(* The deep analysis stack: statistics, the cost model, the planner's
   rewrites and the static safe-plan classification. *)

module Relation = Tpdb_relation.Relation
module Csv = Tpdb_relation.Csv
module Interval = Tpdb_interval.Interval
module Theta = Tpdb_windows.Theta
module Nj = Tpdb_joins.Nj
module Parser = Tpdb_query.Parser
module Catalog = Tpdb_query.Catalog
module Planner = Tpdb_query.Planner
module Physical = Tpdb_query.Physical
module Analyze = Tpdb_query.Analyze
module Stats = Tpdb_query.Stats
module Cost = Tpdb_query.Cost
module Datasets = Tpdb_workload.Datasets
module Metrics = Tpdb_obs.Metrics

(* A document given as its lines, without a final newline. *)
let csv_of_lines ~name ?path lines =
  Csv.of_string ~name ?path (String.concat "\n" lines)

let iv = Interval.make
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

let webkit_catalog ?(seed = 11) ?(size = 120) () =
  let r, s = Datasets.Webkit.pair ~seed size in
  let c = Catalog.create () in
  Catalog.register c r;
  Catalog.register c s;
  c

let plan_of ?parallelism c sql =
  Planner.plan ?parallelism ~sanitize:false c (Parser.parse sql)

(* --- statistics ------------------------------------------------------- *)

let test_stats_roundtrip () =
  let r, _ = Datasets.Webkit.pair ~seed:7 200 in
  let s = Stats.of_relation r in
  let path = Filename.temp_file "tpdb" ".stats" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Stats.save s path;
  match Stats.load path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok s' ->
      Alcotest.(check string)
        "summary round-trips" (Stats.to_string s) (Stats.to_string s');
      Alcotest.(check int) "cardinality" s.Stats.cardinality s'.Stats.cardinality;
      let d = Stats.detail s and d' = Stats.detail s' in
      Alcotest.(check (array int)) "distinct" d.Stats.distinct d'.Stats.distinct;
      Alcotest.(check (array int)) "start hist" d.Stats.start_hist
        d'.Stats.start_hist;
      Alcotest.(check (array int)) "end hist" d.Stats.end_hist d'.Stats.end_hist;
      Alcotest.(check bool) "sample" true (d.Stats.sample = d'.Stats.sample);
      Alcotest.(check (float 1e-9)) "p_mean" d.Stats.p_mean d'.Stats.p_mean;
      Alcotest.(check (float 1e-9)) "mean span" d.Stats.mean_span
        d'.Stats.mean_span;
      Alcotest.(check bool) "flags" true
        (s.Stats.duplicate_free = s'.Stats.duplicate_free
        && s.Stats.lineage_safe = s'.Stats.lineage_safe)

let test_stats_load_rejects_garbage () =
  let path = Filename.temp_file "tpdb" ".stats" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc "not a stats file\n";
  close_out oc;
  match Stats.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

(* A plan with one join reads only the cardinality and the safety
   flags: the sorts behind distinct counts, histograms and the sample
   stay suspended through planning and execution, in RAM or spilled,
   until an estimate reads them. *)
let test_single_join_plan_leaves_detail_lazy () =
  List.iter
    (fun (op, mem_budget) ->
      let c = webkit_catalog () in
      let p =
        Planner.plan ~sanitize:false ~mem_budget c
          (Parser.parse (Printf.sprintf "SELECT * FROM r %s s ON r.File = s.File" op))
      in
      ignore (Planner.run p);
      let computed () =
        List.map
          (fun name ->
            match Catalog.stats c name with
            | Some s -> Tpdb_query.Once.is_computed s.Stats.detail
            | None -> Alcotest.failf "no stats for %s" name)
          [ "r"; "s" ]
      in
      Alcotest.(check (list bool)) (op ^ ": detail untouched") [ false; false ]
        (computed ());
      ignore (Planner.explain p);
      Alcotest.(check (list bool)) (op ^ ": explain reads it") [ true; true ]
        (computed ()))
    [
      ("TPJOIN", 0); ("LEFT TPJOIN", 0); ("RIGHT TPJOIN", 0);
      ("FULL TPJOIN", 0); ("ANTIJOIN", 0); ("FULL TPJOIN", 4096);
    ]

(* --- cost model -------------------------------------------------------- *)

let rec nodes p = p :: List.concat_map nodes (Physical.children p)

let hand_join ?(kind = Nj.Inner) ?(theta = Theta.eq 0 0) left right =
  Physical.Tp_join
    {
      kind;
      parallelism = 1;
      sanitize = false;
      prob_cache = true;
      safe_lineage = false;
      mem_budget = 0;
      est_rows = None;
      theta;
      left;
      right;
    }

let test_cost_covers_every_node () =
  let c = webkit_catalog () in
  let plan =
    Physical.Timeslice
      {
        window = iv 0 1000;
        child =
          hand_join ~kind:Nj.Left
            (Physical.Scan (Catalog.find_exn c "r"))
            (Physical.Scan (Catalog.find_exn c "s"));
      }
  in
  let cost = Cost.of_plan ~stats:(Catalog.stats c) plan in
  List.iter
    (fun node ->
      match Cost.find cost node with
      | None -> Alcotest.fail "node without an estimate"
      | Some e ->
          Alcotest.(check bool) "rows finite and non-negative" true
            (Float.is_finite e.Cost.rows && e.Cost.rows >= 0.0);
          Alcotest.(check bool) "cost finite and non-negative" true
            (Float.is_finite e.Cost.cost && e.Cost.cost >= 0.0))
    (nodes plan);
  Alcotest.(check bool) "annotation renders" true
    (contains (Cost.annotate cost plan) "est rows=")

let test_temporal_selectivity_bounds () =
  let sel = Cost.temporal_selectivity Theta.always in
  Alcotest.(check (float 0.0)) "disjoint samples" 0.0
    (sel [| (0, 10); (20, 30) |] [| (100, 110) |]);
  Alcotest.(check (float 0.0)) "identical samples" 1.0
    (sel [| (0, 10) |] [| (0, 10) |]);
  Alcotest.(check (float 0.0)) "empty sample falls back" 0.5 (sel [||] [| (0, 1) |])

let test_explain_shows_estimates () =
  let c = webkit_catalog () in
  let p =
    plan_of c "SELECT * FROM r LEFT TPJOIN s ON r.File = s.File"
  in
  let explained = Planner.explain p in
  Alcotest.(check bool) "est rows column" true (contains explained "est rows=");
  Alcotest.(check bool) "est cost column" true (contains explained "cost=");
  let _, report = Planner.run_analyze p in
  Alcotest.(check bool) "analyze compares est vs actual" true
    (contains report "q=")

(* --- diagnostic codes --------------------------------------------------- *)

let test_codes_registered () =
  let names = List.map (fun (code, _, _) -> code) Analyze.codes in
  Alcotest.(check int) "codes are unique"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  let c = webkit_catalog () in
  let diags =
    List.concat_map
      (fun sql -> Planner.check_deep (plan_of c sql))
      [
        "SELECT File FROM r ANTIJOIN s ON r.File = s.File";
        "SELECT * FROM r TPJOIN s ON r.File = s.File AND r.File = s.File";
        "SELECT * FROM r DURING [9000000,9000001)";
        "SELECT DISTINCT File FROM r DURING [0,500)";
      ]
  in
  Alcotest.(check bool) "corpus emits diagnostics" true (diags <> []);
  List.iter
    (fun d ->
      if not (List.mem d.Analyze.code names) then
        Alcotest.failf "diagnostic code %S is not registered in Analyze.codes"
          d.Analyze.code)
    diags;
  (* the JSON rendering is well-formed enough to name every code *)
  let json = Analyze.to_json diags in
  List.iter
    (fun d ->
      Alcotest.(check bool) "json mentions the code" true
        (contains json (Printf.sprintf "\"code\": \"%s\"" d.Analyze.code)))
    diags

(* --- safe-plan classification ------------------------------------------ *)

(* Two tuples sharing one lineage variable: the scan is not lineage-safe,
   so no join over it may be tagged and the runtime read-once check must
   stay on. *)
let shared_lineage_catalog () =
  let r =
    csv_of_lines ~name:"r" ~path:"r.csv"
      [ "File,lineage,ts,te,p"; "a,x1,0,10,0.5"; "b,x1,2,12,0.5" ]
  in
  let s =
    csv_of_lines ~name:"s" ~path:"s.csv"
      [ "File,lineage,ts,te,p"; "a,y1,1,8,0.7" ]
  in
  let c = Catalog.create () in
  Catalog.register c r;
  Catalog.register c s;
  c

let test_unsafe_plan_keeps_runtime_check () =
  let c = shared_lineage_catalog () in
  let p = plan_of c "SELECT * FROM r ANTIJOIN s ON r.File = s.File" in
  Alcotest.(check bool) "not tagged" false
    (contains (Planner.explain p) "[lineage: read-once]");
  let m = Metrics.create () in
  ignore (Metrics.with_sink m (fun () -> Planner.run p));
  Alcotest.(check bool) "runtime read-once check ran" true
    (Metrics.get m Metrics.Prob_readonce_checks > 0);
  (* deep check names the hard shape *)
  Alcotest.(check bool) "no safe-plan note" true
    (List.for_all
       (fun d -> d.Analyze.code <> "safe-plan")
       (Planner.check_deep p))

(* A lineage variable shared ACROSS the two sides (under different
   relation names — each scan is individually lineage-safe) also blocks
   the tag: side disjointness is decided on variable tags, not names. *)
let test_cross_side_shared_variable_blocks_tag () =
  let r =
    csv_of_lines ~name:"r" ~path:"r.csv"
      [ "File,lineage,ts,te,p"; "a,x1,0,10,0.5"; "b,x2,2,12,0.5" ]
  in
  let s =
    csv_of_lines ~name:"s" ~path:"s.csv"
      [ "File,lineage,ts,te,p"; "a,x1,1,8,0.7" ]
  in
  let c = Catalog.create () in
  Catalog.register c r;
  Catalog.register c s;
  let p = plan_of c "SELECT * FROM r ANTIJOIN s ON r.File = s.File" in
  Alcotest.(check bool) "shared-variable sides are not tagged" false
    (contains (Planner.explain p) "[lineage: read-once]")

(* A persisted stats file only ever serves cost estimation: the
   safety-critical flags are recomputed from the registered relation, so
   a file written before the data changed cannot vouch a plan safe. *)
let test_stale_stats_never_vouch_safety () =
  let dir = Filename.temp_file "tpdb_stats" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  (* same cardinality and hull as the later registration, so the file
     passes the cheap staleness test — only the flag refresh defends *)
  let once_safe =
    csv_of_lines ~name:"r" ~path:"r.csv"
      [ "File,lineage,ts,te,p"; "a,x1,0,10,0.5"; "b,x2,2,12,0.5" ]
  in
  Stats.save (Stats.of_relation once_safe) (Stats.file ~dir "r");
  let now_unsafe =
    csv_of_lines ~name:"r" ~path:"r.csv"
      [ "File,lineage,ts,te,p"; "a,x1,0,10,0.5"; "b,x1,2,12,0.5" ]
  in
  let c = Catalog.create () in
  Catalog.set_stats_dir c dir;
  Catalog.register c now_unsafe;
  (match Catalog.stats c "r" with
  | None -> Alcotest.fail "no stats for a registered relation"
  | Some s ->
      Alcotest.(check bool) "lineage_safe reflects the live data" false
        s.Stats.lineage_safe);
  (* and the plan built on the stale file stays untagged *)
  let s =
    csv_of_lines ~name:"s" ~path:"s.csv"
      [ "File,lineage,ts,te,p"; "a,y1,1,8,0.7" ]
  in
  Catalog.register c s;
  let p = plan_of c "SELECT * FROM r ANTIJOIN s ON r.File = s.File" in
  Alcotest.(check bool) "stale file does not tag the plan" false
    (contains (Planner.explain p) "[lineage: read-once]");
  (* a file disagreeing on cardinality is discarded outright *)
  Stats.save (Stats.of_relation s) (Stats.file ~dir "t");
  let t3 =
    csv_of_lines ~name:"t" ~path:"t.csv"
      [
        "File,lineage,ts,te,p";
        "a,z1,1,8,0.7";
        "b,z2,2,9,0.6";
        "c,z3,3,10,0.5";
      ]
  in
  Catalog.register c t3;
  match Catalog.stats c "t" with
  | None -> Alcotest.fail "no stats for t"
  | Some st ->
      Alcotest.(check int) "stale cardinality recomputed" 3
        st.Stats.cardinality

(* Inner-join probability bounds with a variable shared across the
   sides: the true output probability p(x1 ∧ x1) = 0.5 must lie inside
   the reported range (the independence product [0.25, 0.25] excludes
   it — only the Fréchet bounds are sound). *)
let test_shared_variable_bounds_sound () =
  let r =
    csv_of_lines ~name:"r" ~path:"r.csv"
      [ "File,lineage,ts,te,p"; "a,x1,0,10,0.5" ]
  in
  let s =
    csv_of_lines ~name:"s" ~path:"s.csv"
      [ "File,lineage,ts,te,p"; "a,x1,0,10,0.5" ]
  in
  let c = Catalog.create () in
  Catalog.register c r;
  Catalog.register c s;
  let p = plan_of c "SELECT * FROM r TPJOIN s ON r.File = s.File" in
  let out = Planner.run p in
  List.iter
    (fun tp ->
      Alcotest.(check (float 1e-9)) "actual probability" 0.5
        (Tpdb_relation.Tuple.p tp))
    (Relation.tuples out);
  match
    List.find_opt
      (fun d -> d.Analyze.code = "plan-bounds")
      (Planner.check_deep p)
  with
  | None -> Alcotest.fail "no plan-bounds note"
  | Some d ->
      Alcotest.(check bool) "range admits the dependent conjunction" true
        (contains d.Analyze.message "[0.000, 0.500]")

(* A chain carrying an Allen predicate must never be reordered: the
   atom binds to the accumulated left window at whichever join first
   sees both its relations, so a permutation can change the result.
   With a = [2,4), b = [1,5), c = [0,6), source order tests
   (a ∩ b) = [2,4) DURING [0,6) (one row); the permutation joining c
   first would test (a ∩ c) = [2,4) CONTAINS [1,5) (no rows). *)
let test_temporal_chain_not_reordered () =
  let c = Catalog.create () in
  Catalog.register c
    (Relation.of_rows ~name:"a" ~columns:[ "Ka" ] ~tag:"a"
       [ ([ "k" ], iv 2 4, 0.9) ]);
  Catalog.register c
    (Relation.of_rows ~name:"b" ~columns:[ "Kb" ] ~tag:"b"
       [ ([ "k" ], iv 1 5, 0.9) ]);
  Catalog.register c
    (Relation.of_rows ~name:"cc" ~columns:[ "Kc" ] ~tag:"cc"
       [ ([ "k" ], iv 0 6, 0.9) ]);
  let p =
    plan_of c
      "SELECT Ka, Kb, Kc FROM a TPJOIN b ON a.Ka = b.Kb TPJOIN cc ON a.Ka \
       = cc.Kc WHERE b.T DURING cc.T"
  in
  Alcotest.(check bool) "temporal chain is never reordered" true
    (List.for_all
       (fun d -> d.Analyze.code <> "join-reordered")
       (Planner.notes p));
  Alcotest.(check int) "source-order semantics" 1
    (Relation.cardinality (Planner.run p))

(* When the planner does reorder, plain [check] leads with the
   join-reordered note so diagnostic paths through the new chain are
   explainable. *)
let test_check_reports_reorder () =
  let rows prefix n =
    List.init n (fun i ->
        ([ prefix ^ string_of_int (i mod 8) ], iv 0 10, 0.5))
  in
  let c = Catalog.create () in
  Catalog.register c
    (Relation.of_rows ~name:"a" ~columns:[ "Ka" ] ~tag:"a" (rows "k" 40));
  Catalog.register c
    (Relation.of_rows ~name:"b" ~columns:[ "Kb" ] ~tag:"b" (rows "k" 40));
  Catalog.register c
    (Relation.of_rows ~name:"cc" ~columns:[ "Kc" ] ~tag:"cc" (rows "k" 1));
  let p =
    plan_of c
      "SELECT Ka, Kb, Kc FROM a TPJOIN b ON a.Ka = b.Kb TPJOIN cc ON a.Ka \
       = cc.Kc"
  in
  let reordered =
    List.exists (fun d -> d.Analyze.code = "join-reordered") (Planner.notes p)
  in
  Alcotest.(check bool) "cheap chain reorders" true reordered;
  match Planner.check p with
  | { Analyze.code = "join-reordered"; _ } :: _ -> ()
  | _ -> Alcotest.fail "check does not lead with the join-reordered note"

(* --- qcheck properties -------------------------------------------------- *)

module Gen = QCheck2.Gen
module Test = QCheck2.Test

let qtest = QCheck_alcotest.to_alcotest ~speed_level:`Quick

(* (a) whatever prune_empty removes really is empty: executing the
   original subplan yields no tuples. *)
let prop_pruned_subplans_empty =
  Test.make ~name:"pruned subplans execute to zero rows" ~count:40
    Gen.(pair (int_range 1 60) (int_range 0 3))
    (fun (size, shape) ->
      let r, s = Datasets.Webkit.pair ~seed:(size * 31) size in
      let env = Relation.prob_env [ r; s ] in
      let hull_end = (Stats.detail (Stats.of_relation r)).Stats.tmax in
      let empty =
        Relation.of_rows ~name:"mt" ~columns:[ "File"; "Rev" ] ~tag:"mt" []
      in
      let plan =
        match shape with
        | 0 ->
            Physical.Timeslice
              {
                window = iv (hull_end + 5) (hull_end + 25);
                child = Physical.Scan r;
              }
        | 1 -> hand_join (Physical.Scan empty) (Physical.Scan s)
        | 2 ->
            hand_join ~kind:Nj.Right (Physical.Scan r) (Physical.Scan empty)
        | _ ->
            Physical.Timeslice
              {
                window = iv 0 1;
                child =
                  Physical.Timeslice
                    {
                      window = iv (hull_end + 2) (hull_end + 4);
                      child = Physical.Scan r;
                    };
              }
      in
      let _, prunes = Analyze.prune_empty plan in
      prunes <> []
      && List.for_all
           (fun (original, d) ->
             d.Analyze.code = "pruned-empty"
             && Relation.cardinality (Physical.to_relation ~env original) = 0)
           prunes)

(* (b) a statically safe plan never touches the runtime read-once check
   or the BDD fallback — the whole point of the tag. Inputs are built
   with unique facts and fresh per-row lineage variables, so the anti
   join is provably safe-shaped. *)
let prop_safe_plans_skip_readonce =
  let rows prefix n stride =
    List.init n (fun i ->
        let start = i * stride mod 97 in
        ( [ prefix ^ string_of_int (i mod 7); string_of_int i ],
          iv start (start + 4 + (i mod 5)),
          0.35 +. (float_of_int (i mod 6) /. 10.) ))
  in
  Test.make ~name:"safe plans skip the read-once check and BDD" ~count:25
    Gen.(pair (int_range 1 40) (int_range 1 9))
    (fun (n, stride) ->
      let c = Catalog.create () in
      Catalog.register c
        (Relation.of_rows ~name:"r" ~columns:[ "File"; "Rev" ] ~tag:"r"
           (rows "f" n stride));
      Catalog.register c
        (Relation.of_rows ~name:"s" ~columns:[ "File"; "Rev" ] ~tag:"s"
           (rows "f" ((n / 2) + 1) (stride + 1)));
      let p = plan_of c "SELECT * FROM r ANTIJOIN s ON r.File = s.File" in
      let tagged = contains (Planner.explain p) "[lineage: read-once]" in
      let m = Metrics.create () in
      ignore (Metrics.with_sink m (fun () -> Planner.run p));
      tagged
      && Metrics.get m Metrics.Prob_readonce_checks = 0
      && Metrics.get m Metrics.Prob_bdd_fallbacks = 0)

(* (c) estimates against actual execution stay finite (and ≥ 1 by
   construction) on the workload generators. *)
let prop_q_error_finite =
  let queries =
    [|
      "SELECT * FROM r LEFT TPJOIN s ON r.File = s.File";
      "SELECT File FROM r ANTIJOIN s ON r.File = s.File";
      "SELECT DISTINCT File FROM r DURING [0,500)";
    |]
  in
  Test.make ~name:"q-error stays finite on workload plans" ~count:15
    Gen.(pair (int_range 2 80) (int_range 0 20))
    (fun (size, pick) ->
      let c = webkit_catalog ~seed:(size + pick) ~size () in
      let p = plan_of c queries.(pick mod Array.length queries) in
      let est = (Cost.root (Planner.estimates p)).Cost.rows in
      let actual = Relation.cardinality (Planner.run p) in
      let q = Physical.q_error ~est ~actual in
      Float.is_finite q && q >= 1.0)

let suite =
  [
    Alcotest.test_case "stats save/load round-trip" `Quick test_stats_roundtrip;
    Alcotest.test_case "single-join plans leave stats detail lazy" `Quick
      test_single_join_plan_leaves_detail_lazy;
    Alcotest.test_case "stats load rejects garbage" `Quick
      test_stats_load_rejects_garbage;
    Alcotest.test_case "cost model covers every plan node" `Quick
      test_cost_covers_every_node;
    Alcotest.test_case "temporal selectivity bounds" `Quick
      test_temporal_selectivity_bounds;
    Alcotest.test_case "explain and analyze show estimates" `Quick
      test_explain_shows_estimates;
    Alcotest.test_case "every emitted code is registered" `Quick
      test_codes_registered;
    Alcotest.test_case "unsafe plans keep the runtime check" `Quick
      test_unsafe_plan_keeps_runtime_check;
    Alcotest.test_case "cross-side shared variable blocks the tag" `Quick
      test_cross_side_shared_variable_blocks_tag;
    Alcotest.test_case "stale stats never vouch for safety" `Quick
      test_stale_stats_never_vouch_safety;
    Alcotest.test_case "shared-variable bounds stay sound" `Quick
      test_shared_variable_bounds_sound;
    Alcotest.test_case "temporal chain is not reordered" `Quick
      test_temporal_chain_not_reordered;
    Alcotest.test_case "check reports the reorder" `Quick
      test_check_reports_reorder;
    qtest prop_pruned_subplans_empty;
    qtest prop_safe_plans_skip_readonce;
    qtest prop_q_error_finite;
  ]

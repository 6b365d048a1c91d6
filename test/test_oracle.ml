(* The differential snapshot-semantics oracle (lib/oracle).

   Two halves: unit tests that the oracle itself is trustworthy (it
   reproduces the paper example and its diff catches seeded defects of
   every class), and the differential qcheck suite — random scenarios,
   all five join kinds, every shipped configuration axis — where
   QCheck2's integrated shrinking minimizes any divergence and the
   printer renders it as a reproducible CSV pair. *)

module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Prob = Tpdb_lineage.Prob
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Theta = Tpdb_windows.Theta
module Nj = Tpdb_joins.Nj
module Oracle = Tpdb_oracle.Oracle
module Metrics = Tpdb_obs.Metrics

(* --- the oracle itself is right on the paper example --- *)

(* Every operator of Table II on the running example, derived by hand
   from the snapshot semantics: Fig. 1b for the left outer join, and the
   b tuples' null-padded rows λb ∧ ¬λa1 wherever a1 overlaps them. *)
let paper_expected kind =
  let joined rows =
    Fixtures.relation ~name:"q" ~columns:[ "Name"; "a.Loc"; "Hotel"; "b.Loc" ] rows
  in
  let inner =
    [
      ([ "Ann"; "ZAK"; "hotel1"; "ZAK" ], "a1 & b3", (4, 6), 0.49);
      ([ "Ann"; "ZAK"; "hotel2"; "ZAK" ], "a1 & b2", (5, 8), 0.42);
    ]
  and left_null =
    [
      ([ "Ann"; "ZAK"; "-"; "-" ], "a1", (2, 4), 0.70);
      ([ "Ann"; "ZAK"; "-"; "-" ], "a1 & !b3", (4, 5), 0.21);
      ([ "Ann"; "ZAK"; "-"; "-" ], "a1 & !(b3 | b2)", (5, 6), 0.084);
      ([ "Ann"; "ZAK"; "-"; "-" ], "a1 & !b2", (6, 8), 0.28);
      ([ "Jim"; "WEN"; "-"; "-" ], "a2", (7, 10), 0.80);
    ]
  and right_null =
    [
      ([ "-"; "-"; "hotel3"; "SOR" ], "b1", (1, 4), 0.9);
      ([ "-"; "-"; "hotel1"; "ZAK" ], "b3 & !a1", (4, 6), 0.21);
      ([ "-"; "-"; "hotel2"; "ZAK" ], "b2 & !a1", (5, 8), 0.18);
    ]
  in
  match kind with
  | Nj.Inner -> joined inner
  | Nj.Left -> joined (inner @ left_null)
  | Nj.Right -> joined (inner @ right_null)
  | Nj.Full -> joined (inner @ left_null @ right_null)
  | Nj.Anti ->
      Fixtures.relation ~name:"a_anti_b" ~columns:[ "Name"; "Loc" ]
        (List.map
           (fun (fact, lineage, span, p) ->
             (List.filteri (fun i _ -> i < 2) fact, lineage, span, p))
           left_null)

let test_paper_example () =
  let a = Fixtures.relation_a () and b = Fixtures.relation_b () in
  let theta = Fixtures.theta_loc in
  List.iter
    (fun kind ->
      let want = paper_expected kind in
      let got = Oracle.eval ~kind ~theta a b in
      if not (Relation.equal_as_sets want got) then
        Alcotest.failf "%s: oracle disagrees with the paper example:\n%s\nvs\n%s"
          (Nj.kind_name kind)
          (Format.asprintf "%a" Relation.pp want)
          (Format.asprintf "%a" Relation.pp got))
    Nj.all_kinds

(* --- the diff catches seeded defects of every class --- *)

let classify = function
  | Oracle.Missing _ -> "missing"
  | Oracle.Unexpected _ -> "unexpected"
  | Oracle.Lineage _ -> "lineage"
  | Oracle.Probability _ -> "probability"
  | Oracle.Schema _ -> "schema"

let test_diff_classification () =
  let a = Fixtures.relation_a () and b = Fixtures.relation_b () in
  let theta = Fixtures.theta_loc in
  let truth = Oracle.eval ~kind:Nj.Left ~theta a b in
  Alcotest.(check (list string)) "clean diff" []
    (List.map classify (Oracle.diff ~expected:truth ~actual:truth));
  let seed f =
    Relation.of_tuples (Relation.schema truth) (f (Relation.tuples truth))
  in
  let check_classes what expected_classes seeded =
    let got =
      List.sort_uniq compare
        (List.map classify (Oracle.diff ~expected:truth ~actual:seeded))
    in
    Alcotest.(check (list string)) what expected_classes got
  in
  (* Dropping a tuple → missing. *)
  check_classes "dropped tuple" [ "missing" ]
    (seed (function _ :: rest -> rest | [] -> []));
  (* Duplicating a tuple → unexpected (the copy finds no partner). *)
  check_classes "duplicated tuple" [ "unexpected" ]
    (seed (function t :: rest -> t :: t :: rest | [] -> []));
  (* Shifting an interval → one missing, one unexpected. *)
  check_classes "shifted interval" [ "missing"; "unexpected" ]
    (seed (function
      | t :: rest ->
          Tuple.make ~fact:(Tuple.fact t) ~lineage:(Tuple.lineage t)
            ~iv:(Interval.shift 1 (Tuple.iv t))
            ~p:(Tuple.p t)
          :: rest
      | [] -> []));
  (* Rewriting a lineage to something inequivalent → lineage. *)
  check_classes "wrong lineage" [ "lineage" ]
    (seed (function
      | t :: rest ->
          Tuple.make ~fact:(Tuple.fact t)
            ~lineage:(Formula.var (Tpdb_lineage.Var.make "z" 99))
            ~iv:(Tuple.iv t) ~p:(Tuple.p t)
          :: rest
      | [] -> []));
  (* Perturbing a probability beyond 1e-12 → probability. *)
  check_classes "wrong probability" [ "probability" ]
    (seed (function
      | t :: rest ->
          let p = Tuple.p t in
          let p = if p > 0.5 then p -. 1e-6 else p +. 1e-6 in
          Tuple.make ~fact:(Tuple.fact t) ~lineage:(Tuple.lineage t)
            ~iv:(Tuple.iv t) ~p
          :: rest
      | [] -> []));
  (* An equivalent-but-not-identical lineage is NOT a mismatch. *)
  check_classes "equivalent lineage accepted" []
    (seed
       (List.map (fun t ->
            Tuple.make ~fact:(Tuple.fact t)
              ~lineage:
                (Formula.( &&& ) (Tuple.lineage t) (Tuple.lineage t)
                |> Formula.normalize)
              ~iv:(Tuple.iv t) ~p:(Tuple.p t))))

(* Oracle runs are visible in metrics. *)
let test_metrics () =
  let a = Fixtures.relation_a () and b = Fixtures.relation_b () in
  let m = Metrics.create () in
  Metrics.with_sink m (fun () ->
      match
        Oracle.check ~configs:[ Oracle.config () ] ~kinds:[ Nj.Left; Nj.Anti ]
          ~theta:Fixtures.theta_loc a b
      with
      | [] -> ()
      | ds ->
          Alcotest.failf "paper example diverged:\n%s"
            (String.concat "\n"
               (List.map (Oracle.report ~theta:Fixtures.theta_loc) ds)));
  Alcotest.(check int) "oracle_evals" 2 (Metrics.get m Metrics.Oracle_evals);
  Alcotest.(check int) "oracle_comparisons" 2
    (Metrics.get m Metrics.Oracle_comparisons);
  Alcotest.(check int) "oracle_mismatches" 0
    (Metrics.get m Metrics.Oracle_mismatches);
  Alcotest.(check bool) "oracle_eval_ns observed" true
    ((Metrics.dist_stats m Metrics.Oracle_eval_ns).count = 2)

(* --- the differential suite ------------------------------------------ *)

module Test = QCheck2.Test

let qtest = QCheck_alcotest.to_alcotest ~speed_level:`Quick

(* The acceptance axes: jobs 1/2/4 × prob-cache on/off. *)
let axis_configs =
  List.concat_map
    (fun jobs ->
      [ Oracle.config ~jobs (); Oracle.config ~jobs ~prob_cache:false () ])
    [ 1; 2; 4 ]

let print_scenario (theta, r, s) = Oracle.repro ~theta r s

let differential ?(configs = axis_configs) ?(count = 120) kind =
  Test.make
    ~name:
      (Printf.sprintf "differential: %s join = snapshot semantics on %d axes"
         (Nj.kind_name kind) (List.length configs))
    ~count ~print:print_scenario
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      match Oracle.check ~configs ~kinds:[ kind ] ~theta r s with
      | [] -> true
      | ds ->
          Test.fail_report
            (String.concat "\n\n"
               (List.map (Oracle.report ~theta) ds
               @ [ print_scenario (theta, r, s) ])))

(* The remaining shipped axis (the sanitizer, sequential and parallel)
   at a lower count, all kinds per case. *)
let differential_full_matrix =
  let configs =
    [ Oracle.config ~sanitize:true (); Oracle.config ~jobs:2 ~sanitize:true () ]
  in
  Test.make ~name:"differential: all kinds under sanitize"
    ~count:40 ~print:print_scenario
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      match Oracle.check ~configs ~theta r s with
      | [] -> true
      | ds ->
          Test.fail_report
            (String.concat "\n\n"
               (List.map (Oracle.report ~theta) ds
               @ [ print_scenario (theta, r, s) ])))

(* The statically safe path — probabilities taken from the sweep — in
   RAM, domain-parallel and spilled. The generated inputs meet the
   classifier's precondition; a self-join (a tag on both sides) does
   not, so [check] leaves the safe configurations out of it. *)
let differential_static_safe =
  let configs = List.filter (fun c -> c.Oracle.static_safe) Oracle.default_configs in
  Test.make ~name:"differential: all kinds on the statically safe path"
    ~count:40 ~print:print_scenario
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      List.length configs = 3
      && Oracle.static_safe_inputs r s
      && (not (Oracle.static_safe_inputs r r))
      &&
      match Oracle.check ~configs ~theta r s with
      | [] -> true
      | ds ->
          Test.fail_report
            (String.concat "\n\n"
               (List.map (Oracle.report ~theta) ds
               @ [ print_scenario (theta, r, s) ])))

(* The set operations under every configuration they run in: all but
   the statically safe ones (jobs 1/2/4, prob-cache on and off, the
   sanitizer, and the tiny-budget spill), on inputs whose Sub column
   may be null. *)
let differential_set_ops =
  Test.make
    ~name:"differential: set operations = snapshot semantics on every config"
    ~count:40 ~print:Tp_gen.print_pair
    (Tp_gen.pair_gen ~nulls:true ())
    (fun (r, s) ->
      let theta = Theta.always in
      match Oracle.check ~kinds:[] ~set_kinds:Nj.all_set_kinds ~theta r s with
      | [] -> true
      | ds ->
          Test.fail_report
            (String.concat "\n\n"
               (List.map (Oracle.report ~theta) ds
               @ [ Oracle.repro ~theta r s ])))

(* Every Allen relation as θ's temporal component, on the paper example,
   across all five join kinds and jobs 1/2/4 — the deterministic
   end-to-end matrix the flat Allen kernels are gated on. Sequential and
   parallel configs must both diff clean against the snapshot
   semantics. *)
let test_allen_matrix () =
  let a = Fixtures.relation_a () and b = Fixtures.relation_b () in
  let configs = List.map (fun jobs -> Oracle.config ~jobs ()) [ 1; 2; 4 ] in
  List.iter
    (fun rel ->
      List.iter
        (fun theta ->
          match Oracle.check ~configs ~theta a b with
          | [] -> ()
          | ds ->
              Alcotest.failf "Allen %s diverges:
%s"
                (Interval.allen_name rel)
                (String.concat "

" (List.map (Oracle.report ~theta) ds)))
        [
          Theta.allen rel;
          Theta.with_temporal (`Allen rel) Fixtures.theta_loc;
        ])
    Interval.all_allen

let suite =
  [
    Alcotest.test_case "oracle reproduces the paper example" `Quick
      test_paper_example;
    Alcotest.test_case "Allen matrix: 13 relations x 5 kinds x jobs" `Quick
      test_allen_matrix;
    Alcotest.test_case "diff classifies seeded defects" `Quick
      test_diff_classification;
    Alcotest.test_case "oracle runs are measured" `Quick test_metrics;
    qtest (differential Nj.Inner);
    qtest (differential Nj.Anti);
    qtest (differential Nj.Left);
    qtest (differential Nj.Right);
    qtest (differential Nj.Full);
    qtest differential_full_matrix;
    qtest differential_static_safe;
    qtest differential_set_ops;
  ]

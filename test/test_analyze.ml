module Relation = Tpdb_relation.Relation
module Value = Tpdb_relation.Value
module Csv = Tpdb_relation.Csv
module Interval = Tpdb_interval.Interval
module Theta = Tpdb_windows.Theta
module Nj = Tpdb_joins.Nj
module Parser = Tpdb_query.Parser
module Catalog = Tpdb_query.Catalog
module Planner = Tpdb_query.Planner
module Physical = Tpdb_query.Physical
module Analyze = Tpdb_query.Analyze

(* A document given as its lines, without a final newline. *)
let csv_of_lines ~name ?path lines =
  Csv.of_string ~name ?path (String.concat "\n" lines)

let iv = Interval.make

let catalog () =
  let c = Catalog.create () in
  Catalog.register c (Fixtures.relation_a ());
  Catalog.register c (Fixtures.relation_b ());
  c

(* A pair with one text and one numeric column each, for type checks. *)
let typed_catalog () =
  let rel name =
    Relation.of_rows ~name ~columns:[ "K"; "N" ] ~tag:name
      [ ([ "u"; "1" ], iv 0 4, 0.5); ([ "v"; "2" ], iv 2 8, 0.6) ]
  in
  let c = Catalog.create () in
  Catalog.register c (rel "x");
  Catalog.register c (rel "y");
  c

let codes diags = List.map (fun d -> d.Analyze.code) diags

let check_of ?parallelism c sql =
  Planner.check (Planner.plan ?parallelism ~sanitize:false c (Parser.parse sql))

let has code diags = List.mem code (codes diags)

(* Every query shape the planner tests exercise must come back clean:
   the analyzer accepts the whole working corpus. *)
let test_accepts_good_corpus () =
  let corpus =
    [
      "SELECT * FROM a";
      "SELECT * FROM a LEFT TPJOIN b ON a.Loc = b.Loc";
      "SELECT * FROM a RIGHT TPJOIN b ON a.Loc = b.Loc";
      "SELECT * FROM a FULL TPJOIN b ON a.Loc = b.Loc";
      "SELECT * FROM a ANTIJOIN b ON a.Loc = b.Loc AND a.Name <> b.Hotel";
      "SELECT Name, Hotel FROM a TPJOIN b ON a.Loc = b.Loc WHERE Name = 'Ann'";
      "SELECT * FROM a UNION SELECT * FROM b";
      "SELECT * FROM a EXCEPT SELECT * FROM b";
      "SELECT DISTINCT Name FROM a LEFT TPJOIN b ON a.Loc = b.Loc";
      "SELECT COUNT(*) FROM a TPJOIN b ON a.Loc = b.Loc";
    ]
  in
  List.iter
    (fun sql ->
      match Analyze.errors (check_of (catalog ()) sql) with
      | [] -> ()
      | diags ->
          Alcotest.failf "%s rejected:\n%s" sql (Analyze.report diags))
    corpus;
  (* A clean parallel equi join also stays silent. *)
  Alcotest.(check (list string))
    "parallel equi join" []
    (codes
       (check_of ~parallelism:4 (catalog ())
          "SELECT * FROM a LEFT TPJOIN b ON a.Loc = b.Loc"))

let test_type_mismatch () =
  let diags =
    check_of (typed_catalog ()) "SELECT * FROM x TPJOIN y ON x.N = y.K"
  in
  Alcotest.(check bool) "column vs column" true (has "type-mismatch" diags);
  let diags =
    check_of (typed_catalog ()) "SELECT * FROM x TPJOIN y ON x.K = y.K AND x.K = 42"
  in
  Alcotest.(check bool) "column vs constant" true (has "type-mismatch" diags);
  Alcotest.(check int) "exactly one error" 1
    (List.length (Analyze.errors diags))

let test_unsatisfiable () =
  let unsat sql = has "unsatisfiable" (check_of (typed_catalog ()) sql) in
  Alcotest.(check bool) "two equalities" true
    (unsat "SELECT * FROM x TPJOIN y ON x.K = y.K AND x.K = 'a' AND x.K = 'b'");
  Alcotest.(check bool) "crossed range" true
    (unsat "SELECT * FROM x TPJOIN y ON x.K = y.K AND x.N > 5 AND x.N < 3");
  Alcotest.(check bool) "equality outside range" true
    (unsat "SELECT * FROM x TPJOIN y ON x.K = y.K AND x.N = 7 AND x.N <= 5");
  Alcotest.(check bool) "consistent constraints pass" false
    (unsat "SELECT * FROM x TPJOIN y ON x.K = y.K AND x.N > 1 AND x.N <= 2")

let test_shape_warnings () =
  (* jobs requested but no equality atom: the fallback is reported. *)
  let diags =
    check_of ~parallelism:2 (typed_catalog ())
      "SELECT * FROM x TPJOIN y ON x.K <> y.K"
  in
  Alcotest.(check bool) "sequential fallback" true
    (has "sequential-fallback" diags);
  Alcotest.(check (list string)) "no errors" []
    (codes (Analyze.errors diags));
  (* the same θ without jobs stays silent *)
  Alcotest.(check bool) "no jobs, no warning" false
    (has "sequential-fallback"
       (check_of (typed_catalog ()) "SELECT * FROM x TPJOIN y ON x.K <> y.K"));
  (* duplicated atom *)
  Alcotest.(check bool) "duplicate atom" true
    (has "duplicate-atom"
       (check_of (typed_catalog ())
          "SELECT * FROM x TPJOIN y ON x.K = y.K AND x.K = y.K"))

let test_projection_drops_key () =
  let drops sql = has "drops-join-key" (check_of (catalog ()) sql) in
  Alcotest.(check bool) "plain projection warns" true
    (drops "SELECT Name FROM a TPJOIN b ON a.Loc = b.Loc");
  Alcotest.(check bool) "keeping the key is fine" false
    (drops "SELECT Name, Loc FROM a ANTIJOIN b ON a.Loc = b.Loc");
  Alcotest.(check bool) "DISTINCT disjoins lineages, no warning" false
    (drops "SELECT DISTINCT Name FROM a TPJOIN b ON a.Loc = b.Loc")

(* Hand-built plans reach the checks the planner cannot produce. *)
let hand_join theta =
  Physical.Tp_join
    {
      kind = Nj.Inner;
      parallelism = 1;
      sanitize = false;
      safe_lineage = false;
      mem_budget = 0;
      est_rows = None;
      theta;
      left = Physical.Scan (Fixtures.relation_a ());
      right = Physical.Scan (Fixtures.relation_b ());
    }

let test_hand_built_plans () =
  Alcotest.(check bool) "out-of-range column" true
    (has "bad-column" (Analyze.check (hand_join (Theta.eq 5 0))));
  Alcotest.(check bool) "NULL comparison" true
    (has "null-comparison"
       (Analyze.check
          (hand_join (Theta.of_atoms [ Theta.Left_const (`Eq, 0, Value.Null) ]))));
  Alcotest.(check bool) "empty θ is cartesian" true
    (has "cartesian" (Analyze.check (hand_join Theta.always)))

let test_diagnostic_rendering () =
  let d =
    Analyze.diagnostic ~severity:Analyze.Warning ~code:"demo" ~path:"A > B"
      "message"
  in
  Alcotest.(check string) "to_string" "warning[demo] at A > B: message"
    (Analyze.to_string d);
  (* typed exceptions map onto diagnostics *)
  (match
     csv_of_lines ~name:"bad" ~path:"bad.csv" [ "K,lineage,ts,te,p"; "k,x1,5,3,1.0" ]
   with
  | exception (Csv.Error _ as exn) -> (
      match Analyze.diagnostic_of_exn exn with
      | Some d ->
          Alcotest.(check string) "csv code" "csv-load" d.Analyze.code;
          Alcotest.(check string) "csv path carries the line" "bad.csv:2"
            d.Analyze.path
      | None -> Alcotest.fail "Csv.Error not mapped")
  | _ -> Alcotest.fail "malformed csv accepted");
  (match
     Analyze.diagnostic_of_exn
       (Value.Type_error { context = "cmp"; left = Value.I 1; right = Value.Null })
   with
  | Some d -> Alcotest.(check string) "value code" "value-type" d.Analyze.code
  | None -> Alcotest.fail "Type_error not mapped");
  Alcotest.(check bool) "unrelated exceptions pass through" true
    (Analyze.diagnostic_of_exn Exit = None)

let suite =
  [
    Alcotest.test_case "accepts the working query corpus" `Quick
      test_accepts_good_corpus;
    Alcotest.test_case "type mismatches are errors" `Quick test_type_mismatch;
    Alcotest.test_case "unsatisfiable constant constraints" `Quick
      test_unsatisfiable;
    Alcotest.test_case "shape warnings" `Quick test_shape_warnings;
    Alcotest.test_case "projection dropping the join key" `Quick
      test_projection_drops_key;
    Alcotest.test_case "hand-built plan checks" `Quick test_hand_built_plans;
    Alcotest.test_case "diagnostic rendering and exception mapping" `Quick
      test_diagnostic_rendering;
  ]

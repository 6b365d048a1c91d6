(* Physical-plan layer: schema inference, streaming execution and
   explain/analyze, node by node. *)

module Interval = Tpdb_interval.Interval
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Value = Tpdb_relation.Value
module Schema = Tpdb_relation.Schema
module Theta = Tpdb_windows.Theta
module Nj = Tpdb_joins.Nj
module Physical = Tpdb_query.Physical

let env () = Relation.prob_env [ Fixtures.relation_a (); Fixtures.relation_b () ]

let scan_a () = Physical.Scan (Fixtures.relation_a ())
let scan_b () = Physical.Scan (Fixtures.relation_b ())

let join kind =
  Physical.Tp_join
    {
      kind;
      parallelism = 1;
      sanitize = false;
      safe_lineage = false;
      mem_budget = 0;
      est_rows = None;
      theta = Fixtures.theta_loc;
      left = scan_a ();
      right = scan_b ();
    }

let test_schema_inference () =
  Alcotest.(check (list string)) "join schema"
    [ "Name"; "a.Loc"; "Hotel"; "b.Loc" ]
    (Schema.columns (Physical.schema (join Nj.Left)));
  Alcotest.(check (list string)) "anti keeps left columns"
    [ "Name"; "Loc" ]
    (Schema.columns (Physical.schema (join Nj.Anti)));
  let sliced =
    Physical.Timeslice { window = Interval.make 2 5; child = scan_a () }
  in
  Alcotest.(check (list string)) "timeslice transparent" [ "Name"; "Loc" ]
    (Schema.columns (Physical.schema sliced));
  let set =
    Physical.Set_op
      {
        kind = `Union;
        parallelism = 1;
        sanitize = false;
        mem_budget = 0;
        est_rows = None;
        left = scan_a ();
        right = scan_a ();
      }
  in
  Alcotest.(check (list string)) "set op keeps left columns" [ "Name"; "Loc" ]
    (Schema.columns (Physical.schema set))

let test_execute_matches_to_relation () =
  let env = env () in
  let plans =
    [
      scan_a ();
      join Nj.Left;
      Physical.Filter
        {
          description = "Loc = ZAK";
          predicate =
            (fun tp -> Value.equal (Fact.get (Tuple.fact tp) 1) (Value.S "ZAK"));
          child = scan_a ();
        };
      Physical.Timeslice { window = Interval.make 3 8; child = join Nj.Anti };
      Physical.Project
        {
          columns = [ 0 ];
          schema = Schema.make ~name:"p" [ "Name" ];
          child = scan_a ();
        };
      Physical.Distinct_project
        {
          columns = [ 1 ];
          schema = Schema.make ~name:"d" [ "Loc" ];
          child = scan_a ();
        };
      Physical.Aggregate
        { group_by = [ 1 ]; spec = Tpdb_setops.Aggregate.Count; child = scan_a () };
    ]
  in
  List.iter
    (fun plan ->
      let streamed = List.of_seq (Physical.execute ~env plan) in
      let materialized = Relation.tuples (Physical.to_relation ~env plan) in
      Alcotest.(check int) "same cardinality" (List.length materialized)
        (List.length streamed);
      Alcotest.(check bool) "same tuples" true
        (List.for_all2 Tuple.equal materialized streamed))
    plans

let test_execute_is_lazy () =
  (* Pulling one tuple from a filter over a scan must not force the whole
     relation through the filter. *)
  let forced = ref 0 in
  let plan =
    Physical.Filter
      {
        description = "counting";
        predicate =
          (fun _ ->
            incr forced;
            true);
        child = scan_a ();
      }
  in
  let seq = Physical.execute ~env:(env ()) plan in
  (match seq () with
  | Seq.Cons (_, _) -> ()
  | Seq.Nil -> Alcotest.fail "no tuple");
  Alcotest.(check int) "only one tuple filtered" 1 !forced

let test_analyze_annotations () =
  let _, report = Physical.analyze ~env:(env ()) (join Nj.Left) in
  let contains needle =
    let nl = String.length needle and hl = String.length report in
    let rec at i = i + nl <= hl && (String.sub report i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "join row count" true (contains "[rows=7");
  Alcotest.(check bool) "children included" true (contains "Scan b (3 tuples)")

let suite =
  [
    Alcotest.test_case "schema inference" `Quick test_schema_inference;
    Alcotest.test_case "execute = to_relation" `Quick test_execute_matches_to_relation;
    Alcotest.test_case "execute is lazy" `Quick test_execute_is_lazy;
    Alcotest.test_case "analyze annotations" `Quick test_analyze_annotations;
  ]

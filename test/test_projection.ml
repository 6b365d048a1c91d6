module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Schema = Tpdb_relation.Schema
module Projection = Tpdb_setops.Projection
module Oracle = Tpdb_oracle.Oracle
module Sweep = Tpdb_engine.Sweep

let iv = Interval.make

let sample () =
  (* Two people in ZAK with overlapping validity, one in WEN. Projecting
     to Loc must disjoin the ZAK lineages where both are valid. *)
  Relation.of_rows ~name:"a" ~columns:[ "Name"; "Loc" ] ~tag:"a"
    [
      ([ "Ann"; "ZAK" ], iv 0 6, 0.5);
      ([ "Bea"; "ZAK" ], iv 4 9, 0.8);
      ([ "Jim"; "WEN" ], iv 2 5, 0.9);
    ]

let test_project_disjunction () =
  let result = Projection.project ~columns:[ 1 ] (sample ()) in
  Alcotest.(check (list string)) "schema" [ "Loc" ]
    (Schema.columns (Relation.schema result));
  let lineage_over span =
    match
      List.find_opt
        (fun tp ->
          Interval.equal (Tuple.iv tp) span
          && Tpdb_relation.Fact.equal (Tuple.fact tp)
               (Tpdb_relation.Fact.of_strings [ "ZAK" ]))
        (Relation.tuples result)
    with
    | Some tp -> Formula.to_string_ascii (Formula.normalize (Tuple.lineage tp))
    | None -> Alcotest.failf "no ZAK tuple over %s" (Interval.to_string span)
  in
  Alcotest.(check string) "only Ann" "a1" (lineage_over (iv 0 4));
  Alcotest.(check string) "both" "a1 | a2" (lineage_over (iv 4 6));
  Alcotest.(check string) "only Bea" "a2" (lineage_over (iv 6 9))

let test_project_probability () =
  let result = Projection.project ~columns:[ 1 ] (sample ()) in
  let both =
    List.find
      (fun tp -> Interval.equal (Tuple.iv tp) (iv 4 6))
      (Relation.tuples result)
  in
  (* P(a1 ∨ a2) = 1 - 0.5·0.2 = 0.9 *)
  Alcotest.(check (float 1e-9)) "disjunction probability" 0.9 (Tuple.p both)

let test_project_names_and_errors () =
  let by_names = Projection.project_names ~columns:[ "Loc" ] (sample ()) in
  let by_index = Projection.project ~columns:[ 1 ] (sample ()) in
  Alcotest.(check bool) "names = indexes" true
    (Relation.equal_as_sets by_names by_index);
  (match Projection.project ~columns:[ 7 ] (sample ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range column accepted");
  (match Projection.project ~columns:[ 1; 1 ] (sample ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate column accepted");
  match Projection.project_names ~columns:[ "Nope" ] (sample ()) with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown column accepted"

let test_identity_projection () =
  let r = sample () in
  Alcotest.(check bool) "projecting all columns is the identity" true
    (Relation.equal_as_sets r (Projection.project ~columns:[ 0; 1 ] r))

(* --- Sweep unit tests (shared with LAWAN) --- *)

let test_sweep_segments () =
  let segments =
    Sweep.constant_segments
      (Sweep.Source.of_list [ (iv 0 4, "a"); (iv 2 6, "b"); (iv 8 9, "c") ])
  in
  Alcotest.(check (list (pair string (list string))))
    "maximal constant-coverage segments"
    [
      ("[0,2)", [ "a" ]);
      ("[2,4)", [ "a"; "b" ]);
      ("[4,6)", [ "b" ]);
      ("[8,9)", [ "c" ]);
    ]
    (List.map
       (fun (seg, payloads) -> (Interval.to_string seg, payloads))
       segments);
  Alcotest.(check int) "empty input" 0
    (List.length
       (Sweep.constant_segments
          (Sweep.Source.of_list ([] : (Interval.t * unit) list))))

let test_sweep_source_rejects_unsorted () =
  match Sweep.Source.of_list [ (iv 4 6, "b"); (iv 0 2, "a") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted source accepted"

let test_sweep_source_of_arrays () =
  let source =
    Sweep.Source.of_arrays ~ts:[| 0; 2 |] ~te:[| 4; 6 |]
      ~payload:[| "a"; "b" |] ~len:2
  in
  Alcotest.(check (list (pair string (list string))))
    "segments from raw arrays"
    [ ("[0,2)", [ "a" ]); ("[2,4)", [ "a"; "b" ]); ("[4,6)", [ "b" ]) ]
    (List.map
       (fun (seg, payloads) -> (Interval.to_string seg, payloads))
       (Sweep.constant_segments source))

(* --- properties --- *)

module Test = QCheck2.Test

let qtest = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let prop_project_matches_oracle =
  Test.make ~name:"projection = pointwise oracle" ~count:120
    ~print:Tp_gen.print_relation
    (Tp_gen.relation_gen ~name:"r" ())
    (fun r ->
      Relation.equal_as_sets
        (Oracle.project ~columns:[ 0 ] r)
        (Projection.project ~columns:[ 0 ] r))

let prop_project_idempotent =
  Test.make ~name:"projection is idempotent" ~count:120
    ~print:Tp_gen.print_relation
    (Tp_gen.relation_gen ~name:"r" ())
    (fun r ->
      (* Re-projecting derived tuples needs the base environment. *)
      let env = Relation.prob_env [ r ] in
      let once = Projection.project ~env ~columns:[ 0 ] r in
      Relation.equal_as_sets once (Projection.project ~env ~columns:[ 0 ] once))

let prop_project_covers_input =
  Test.make ~name:"projection covers exactly the input's time points"
    ~count:120 ~print:Tp_gen.print_relation
    (Tp_gen.relation_gen ~name:"r" ())
    (fun r ->
      let covered rel t =
        List.exists (fun tp -> Tuple.valid_at tp t) (Relation.tuples rel)
      in
      let projected = Projection.project ~columns:[ 0 ] r in
      List.for_all
        (fun t -> covered r t = covered projected t)
        (List.init 40 Fun.id))

let suite =
  [
    Alcotest.test_case "lineages disjoin per segment" `Quick test_project_disjunction;
    Alcotest.test_case "projected probability" `Quick test_project_probability;
    Alcotest.test_case "by-name and errors" `Quick test_project_names_and_errors;
    Alcotest.test_case "identity projection" `Quick test_identity_projection;
    Alcotest.test_case "sweep segments" `Quick test_sweep_segments;
    Alcotest.test_case "sweep source rejects unsorted" `Quick
      test_sweep_source_rejects_unsorted;
    Alcotest.test_case "sweep source of arrays" `Quick
      test_sweep_source_of_arrays;
    qtest prop_project_matches_oracle;
    qtest prop_project_idempotent;
    qtest prop_project_covers_input;
  ]

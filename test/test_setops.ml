module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Value = Tpdb_relation.Value
module Nj = Tpdb_joins.Nj
module Oracle = Tpdb_oracle.Oracle

let union = Nj.set_op ~kind:`Union
let intersection = Nj.set_op ~kind:`Intersect
let difference = Nj.set_op ~kind:`Except

let iv = Interval.make
let krel name rows = Relation.of_rows ~name ~columns:[ "K"; "Sub" ] ~tag:name rows

let r1 () =
  krel "r"
    [
      ([ "x"; "0" ], iv 0 6, 0.5);
      ([ "y"; "0" ], iv 2 8, 0.7);
    ]

let r2 () =
  krel "s"
    [
      ([ "x"; "0" ], iv 3 9, 0.6);
      ([ "z"; "0" ], iv 1 4, 0.9);
    ]

let test_union_semantics () =
  let result = union (r1 ()) (r2 ()) in
  (* Fact x: [0,3) only r (λ=r1), [3,6) both (r1 ∨ s1), [6,9) only s. *)
  let find span =
    match
      List.find_opt
        (fun tp ->
          Interval.equal (Tuple.iv tp) span
          && Tpdb_relation.Fact.equal (Tuple.fact tp)
               (Tpdb_relation.Fact.of_strings [ "x"; "0" ]))
        (Relation.tuples result)
    with
    | Some tp -> Formula.to_string_ascii (Formula.normalize (Tuple.lineage tp))
    | None -> Alcotest.failf "no x tuple over %s" (Interval.to_string span)
  in
  Alcotest.(check string) "only r part" "r1" (find (iv 0 3));
  Alcotest.(check string) "shared part" "r1 | s1" (find (iv 3 6));
  Alcotest.(check string) "only s part" "s1" (find (iv 6 9))

let test_intersection_semantics () =
  let result = intersection (r1 ()) (r2 ()) in
  Alcotest.(check int) "only the shared x interval" 1 (Relation.cardinality result);
  let tp = List.hd (Relation.tuples result) in
  Alcotest.(check string) "interval" "[3,6)" (Interval.to_string (Tuple.iv tp));
  Alcotest.(check string) "lineage" "r1 & s1"
    (Formula.to_string_ascii (Formula.normalize (Tuple.lineage tp)));
  Alcotest.(check (float 1e-9)) "probability" 0.3 (Tuple.p tp)

let test_difference_semantics () =
  let result = difference (r1 ()) (r2 ()) in
  let by_interval span =
    List.find
      (fun tp ->
        Interval.equal (Tuple.iv tp) span
        && Tpdb_relation.Fact.equal (Tuple.fact tp)
             (Tpdb_relation.Fact.of_strings [ "x"; "0" ]))
      (Relation.tuples result)
  in
  Alcotest.(check string) "unmatched keeps lineage" "r1"
    (Formula.to_string_ascii (Tuple.lineage (by_interval (iv 0 3))));
  Alcotest.(check string) "negated where both valid" "r1 & !s1"
    (Formula.to_string_ascii (Tuple.lineage (by_interval (iv 3 6))));
  Alcotest.(check (float 1e-9)) "negated probability" 0.2
    (Tuple.p (by_interval (iv 3 6)))

(* An empty CSV cell loads as a null. SQL's set operations treat two
   nulls as not distinct, so (a, null) of r and of s are one fact. *)
let test_null_facts () =
  let write name rows =
    let path = Filename.temp_file name ".csv" in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (String.concat "\n" ("K,Sub,lineage,ts,te,p" :: rows) ^ "\n"));
    path
  in
  let load name rows =
    let path = write name rows in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
        Tpdb_relation.Csv.load ~name path)
  in
  let a = load "a" [ "a,,r1,0,5,0.5"; "b,x,r2,0,5,0.4" ]
  and b = load "b" [ "a,,s1,2,8,0.6"; "b,x,s2,2,8,0.7" ] in
  let rows rel =
    List.filter_map
      (fun tp ->
        if Value.is_null (Fact.get (Tuple.fact tp) 1) then
          Some
            (Printf.sprintf "%s %s"
               (Interval.to_string (Tuple.iv tp))
               (Formula.to_string_ascii (Formula.normalize (Tuple.lineage tp))))
        else None)
      (Relation.tuples rel)
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "union"
    [ "[0,2) r1"; "[2,5) r1 | s1"; "[5,8) s1" ]
    (rows (union a b));
  Alcotest.(check (list string)) "intersection" [ "[2,5) r1 & s1" ]
    (rows (intersection a b));
  Alcotest.(check (list string)) "difference"
    [ "[0,2) r1"; "[2,5) r1 & !s1" ]
    (rows (difference a b));
  List.iter
    (fun kind ->
      Alcotest.(check bool) (Nj.set_kind_name kind ^ " = oracle") true
        (Relation.equal_as_sets (Oracle.set_op ~kind a b) (Nj.set_op ~kind a b)))
    Nj.all_set_kinds

let test_schema_mismatch () =
  let bad = Relation.of_rows ~name:"b" ~columns:[ "Other" ] [] in
  match union (r1 ()) bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "union across schemas accepted"

(* --- algebraic properties and oracle agreement --- *)

module Test = QCheck2.Test

let qtest = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let prop_union_matches_oracle =
  Test.make ~name:"union = pointwise oracle" ~count:100 ~print:Tp_gen.print_pair
    (Tp_gen.pair_gen ~nulls:true ())
    (fun (r, s) ->
      Relation.equal_as_sets (Oracle.set_op ~kind:`Union r s) (union r s))

let prop_intersection_matches_oracle =
  Test.make ~name:"intersection = pointwise oracle" ~count:100
    ~print:Tp_gen.print_pair
    (Tp_gen.pair_gen ~nulls:true ())
    (fun (r, s) ->
      Relation.equal_as_sets
        (Oracle.set_op ~kind:`Intersect r s)
        (intersection r s))

let prop_difference_matches_oracle =
  Test.make ~name:"difference = pointwise oracle" ~count:100
    ~print:Tp_gen.print_pair
    (Tp_gen.pair_gen ~nulls:true ())
    (fun (r, s) ->
      Relation.equal_as_sets
        (Oracle.set_op ~kind:`Except r s)
        (difference r s))

let prop_self_difference_impossible =
  Test.make ~name:"r - r has probability 0 everywhere" ~count:100
    ~print:Tp_gen.print_relation
    (Tp_gen.relation_gen ~nulls:true ~name:"r" ())
    (fun r ->
      List.for_all
        (fun tp -> Float.abs (Tuple.p tp) < 1e-9)
        (Relation.tuples (difference r r)))

let prop_self_union_is_coalesce =
  Test.make ~name:"r ∪ r = r (coalesced, up to lineage idempotence)" ~count:100
    ~print:Tp_gen.print_relation
    (Tp_gen.relation_gen ~nulls:true ~name:"r" ())
    (fun r ->
      Relation.equal_as_sets (Relation.coalesce r) (union r r))

let prop_intersection_commutes_probabilities =
  Test.make ~name:"intersection probability is symmetric" ~count:100
    ~print:Tp_gen.print_pair
    (Tp_gen.pair_gen ())
    (fun (r, s) ->
      let total rel =
        List.fold_left (fun acc tp -> acc +. Tuple.p tp) 0.0 (Relation.tuples rel)
      in
      Float.abs (total (intersection r s) -. total (intersection s r))
      < 1e-6)

let suite =
  [
    Alcotest.test_case "union lineage per segment" `Quick test_union_semantics;
    Alcotest.test_case "intersection" `Quick test_intersection_semantics;
    Alcotest.test_case "difference" `Quick test_difference_semantics;
    Alcotest.test_case "schema mismatch" `Quick test_schema_mismatch;
    qtest prop_union_matches_oracle;
    qtest prop_intersection_matches_oracle;
    qtest prop_difference_matches_oracle;
    qtest prop_self_difference_impossible;
    qtest prop_self_union_is_coalesce;
    qtest prop_intersection_commutes_probabilities;
    Alcotest.test_case "null facts" `Quick test_null_facts;
  ]

module Interval = Tpdb_interval.Interval
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Theta = Tpdb_windows.Theta
module Window = Tpdb_windows.Window
module Align = Tpdb_alignment.Align
module Ta = Tpdb_alignment.Ta
module Nj = Tpdb_joins.Nj
module Oracle = Tpdb_oracle.Oracle

let iv = Interval.make
let theta_k = Theta.eq 0 0
let krel name rows = Relation.of_rows ~name ~columns:[ "K" ] ~tag:name rows

(* --- Align --- *)

let test_split_tuple () =
  let tuple =
    Tuple.make
      ~fact:(Tpdb_relation.Fact.of_strings [ "x" ])
      ~lineage:(Tpdb_lineage.Formula.of_string "r1")
      ~iv:(iv 0 10) ~p:0.5
  in
  let match_at span =
    Tuple.make
      ~fact:(Tpdb_relation.Fact.of_strings [ "x" ])
      ~lineage:(Tpdb_lineage.Formula.of_string "s1")
      ~iv:span ~p:0.5
  in
  let segments = Align.split_tuple ~matches:[ match_at (iv 2 6); match_at (iv 4 8) ] tuple in
  Alcotest.(check (list string))
    "cut at every event point"
    [ "[0,2)"; "[2,4)"; "[4,6)"; "[6,8)"; "[8,10)" ]
    (List.map Interval.to_string segments);
  Alcotest.(check (list string))
    "no matches: whole interval" [ "[0,10)" ]
    (List.map Interval.to_string (Align.split_tuple ~matches:[] tuple))

let test_replicate_counts () =
  let r = krel "r" [ ([ "x" ], iv 0 10, 0.5); ([ "y" ], iv 0 4, 0.5) ] in
  let s = krel "s" [ ([ "x" ], iv 2 6, 0.5) ] in
  (* x splits into [0,2),[2,6),[6,10); y has no match: 1 replica. *)
  Alcotest.(check int) "replica count" 4
    (Align.replica_count ~theta:theta_k r s)

(* --- TA = NJ on the paper example --- *)

let test_ta_paper_example () =
  let r, s = (Fixtures.relation_a (), Fixtures.relation_b ()) in
  let theta = Fixtures.theta_loc in
  Fixtures.check_relation "TA left outer = Fig 1b"
    (Nj.join ~kind:Nj.Left ~theta r s)
    (Ta.left_outer ~theta r s);
  Fixtures.check_relation "TA anti = NJ anti"
    (Nj.join ~kind:Nj.Anti ~theta r s)
    (Ta.anti ~theta r s);
  Fixtures.check_relation "TA right outer = NJ right outer"
    (Nj.join ~kind:Nj.Right ~theta r s)
    (Ta.right_outer ~theta r s);
  Fixtures.check_relation "TA full outer = NJ full outer"
    (Nj.join ~kind:Nj.Full ~theta r s)
    (Ta.full_outer ~theta r s)

let window_sets_equal a b =
  let canon ws = List.sort_uniq Window.compare_group_start ws in
  let a = canon a and b = canon b in
  List.length a = List.length b && List.for_all2 Window.equal a b

let test_ta_windows_paper_example () =
  let r, s = (Fixtures.relation_a (), Fixtures.relation_b ()) in
  let theta = Fixtures.theta_loc in
  Alcotest.(check bool) "TA wuo = NJ wuo" true
    (window_sets_equal
       (Ta.windows_wuo ~theta r s)
       (List.of_seq (Nj.windows_wuo ~theta r s)));
  Alcotest.(check bool) "TA wuon = NJ wuon" true
    (window_sets_equal
       (Ta.windows_wuon ~theta r s)
       (List.of_seq (Nj.windows_wuon ~theta r s)))

let test_ta_dedup () =
  (* A never-matched r tuple is computed by both TA passes; the union must
     report it once. *)
  let r = krel "r" [ ([ "x" ], iv 0 5, 0.5) ] in
  let s = krel "s" [] in
  Alcotest.(check int) "single unmatched window" 1
    (List.length (Ta.windows_wuo ~theta:theta_k r s))

(* --- properties --- *)

module Test = QCheck2.Test

let qtest = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let prop_ta_windows_equal_nj =
  Test.make ~name:"TA windows = NJ windows" ~count:120
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      window_sets_equal
        (Ta.windows_wuon ~theta r s)
        (List.of_seq (Nj.windows_wuon ~theta r s)))

let prop_ta_operators_match_oracle =
  Test.make ~name:"TA operators = timepoint oracle" ~count:80
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      let oracle kind = Oracle.eval ~kind ~theta r s in
      Relation.equal_as_sets (oracle Nj.Left) (Ta.left_outer ~theta r s)
      && Relation.equal_as_sets (oracle Nj.Anti) (Ta.anti ~theta r s)
      && Relation.equal_as_sets (oracle Nj.Right) (Ta.right_outer ~theta r s)
      && Relation.equal_as_sets (oracle Nj.Full) (Ta.full_outer ~theta r s))

let prop_ta_algorithms_agree =
  Test.make ~name:"TA hash and nested-loop plans agree" ~count:80
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      Relation.equal_as_sets
        (Ta.left_outer ~algorithm:`Hash ~theta r s)
        (Ta.left_outer ~algorithm:`Nested_loop ~theta r s))

let prop_replicas_partition =
  Test.make ~name:"aligned replicas partition each tuple" ~count:120
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      List.for_all
        (fun (tuple, _, segments) ->
          let rec covers cursor = function
            | [] -> cursor = Interval.te (Tuple.iv tuple)
            | seg :: rest ->
                Interval.ts seg = cursor && covers (Interval.te seg) rest
          in
          covers (Interval.ts (Tuple.iv tuple)) segments)
        (Align.replicate ~theta r s))

let suite =
  [
    Alcotest.test_case "split_tuple segmentation" `Quick test_split_tuple;
    Alcotest.test_case "replica counting" `Quick test_replicate_counts;
    Alcotest.test_case "TA operators on the paper example" `Quick test_ta_paper_example;
    Alcotest.test_case "TA window sets on the paper example" `Quick test_ta_windows_paper_example;
    Alcotest.test_case "TA de-duplicating union" `Quick test_ta_dedup;
    qtest prop_ta_windows_equal_nj;
    qtest prop_ta_operators_match_oracle;
    qtest prop_ta_algorithms_agree;
    qtest prop_replicas_partition;
  ]

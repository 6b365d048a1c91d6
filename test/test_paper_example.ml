(* Golden tests for the paper's running example: Fig. 1b (the TP left
   outer join), Fig. 2 (all windows of a w.r.t. b) and Table II (the
   window sets each operator consumes). *)

open Fixtures
module Window = Tpdb_windows.Window
module Nj = Tpdb_joins.Nj
module Oracle = Tpdb_oracle.Oracle

(* Fig. 1b, with the raw four output columns (Name, a.Loc, Hotel, b.Loc):
   the paper projects b.Loc away for display. *)
let expected_left_outer () =
  relation ~name:"q" ~columns:[ "Name"; "a.Loc"; "Hotel"; "b.Loc" ]
    [
      ([ "Ann"; "ZAK"; "-"; "-" ], "a1", (2, 4), 0.70);
      ([ "Ann"; "ZAK"; "hotel1"; "ZAK" ], "a1 & b3", (4, 6), 0.49);
      ([ "Ann"; "ZAK"; "hotel2"; "ZAK" ], "a1 & b2", (5, 8), 0.42);
      ([ "Ann"; "ZAK"; "-"; "-" ], "a1 & !b3", (4, 5), 0.21);
      ([ "Ann"; "ZAK"; "-"; "-" ], "a1 & !(b3 | b2)", (5, 6), 0.084);
      ([ "Ann"; "ZAK"; "-"; "-" ], "a1 & !b2", (6, 8), 0.28);
      ([ "Jim"; "WEN"; "-"; "-" ], "a2", (7, 10), 0.80);
    ]

let test_fig1b_nj () =
  let result = Nj.join ~kind:Nj.Left ~theta:theta_loc (relation_a ()) (relation_b ()) in
  check_relation "NJ left outer join reproduces Fig. 1b"
    (expected_left_outer ()) result

let oracle kind = Oracle.eval ~kind ~theta:theta_loc (relation_a ()) (relation_b ())

let test_fig1b_oracle () =
  let result = oracle Nj.Left in
  check_relation "timepoint oracle reproduces Fig. 1b"
    (expected_left_outer ()) result

let test_fig1b_probabilities () =
  let result = Nj.join ~kind:Nj.Left ~theta:theta_loc (relation_a ()) (relation_b ()) in
  let find lineage_str =
    let target =
      Fixtures.Formula.normalize (Fixtures.Formula.of_string lineage_str)
    in
    match
      List.find_opt
        (fun tp ->
          Fixtures.Formula.equal
            (Fixtures.Formula.normalize (Fixtures.Tuple.lineage tp))
            target)
        (Fixtures.Relation.tuples result)
    with
    | Some tp -> Fixtures.Tuple.p tp
    | None -> Alcotest.failf "no output tuple with lineage %s" lineage_str
  in
  let check_p expected lineage =
    Alcotest.check (Alcotest.float 1e-9) lineage expected (find lineage)
  in
  check_p 0.70 "a1";
  check_p 0.49 "a1 & b3";
  check_p 0.42 "a1 & b2";
  check_p 0.21 "a1 & !b3";
  check_p 0.084 "a1 & !(b3 | b2)";
  check_p 0.28 "a1 & !b2";
  check_p 0.80 "a2"

(* Fig. 2: the window sets of a w.r.t. b under θ. *)
let all_windows () =
  Nj.windows_wuon ~theta:theta_loc (relation_a ()) (relation_b ())
  |> List.of_seq

let count kind ws = List.length (List.filter (fun w -> Window.kind w = kind) ws)

let window_strings kind ws =
  List.filter (fun w -> Window.kind w = kind) ws
  |> List.map Window.to_string
  |> List.sort String.compare

let test_fig2_window_counts () =
  let ws = all_windows () in
  Alcotest.(check int) "unmatched (w1, w2)" 2 (count Window.Unmatched ws);
  Alcotest.(check int) "overlapping (w3, w4)" 2 (count Window.Overlapping ws);
  Alcotest.(check int) "negating (w5, w6, w7)" 3 (count Window.Negating ws)

let test_fig2_windows_exact () =
  let ws = all_windows () in
  Alcotest.(check (list string))
    "unmatched windows"
    [
      "unmatched('Ann, ZAK', null, [2,4), a1, null)";
      "unmatched('Jim, WEN', null, [7,10), a2, null)";
    ]
    (window_strings Window.Unmatched ws);
  Alcotest.(check (list string))
    "overlapping windows"
    [
      "overlapping('Ann, ZAK', 'hotel1, ZAK', [4,6), a1, b3)";
      "overlapping('Ann, ZAK', 'hotel2, ZAK', [5,8), a1, b2)";
    ]
    (window_strings Window.Overlapping ws);
  Alcotest.(check (list string))
    "negating windows"
    [
      "negating('Ann, ZAK', null, [4,5), a1, b3)";
      "negating('Ann, ZAK', null, [5,6), a1, b3 \xe2\x88\xa8 b2)";
      "negating('Ann, ZAK', null, [6,8), a1, b2)";
    ]
    (window_strings Window.Negating ws)

(* Table II: each operator consumes exactly its window sets. The anti join
   keeps only the r-side unmatched and negating windows. *)
let test_table2_anti () =
  let expected =
    relation ~name:"a_anti_b" ~columns:[ "Name"; "Loc" ]
      [
        ([ "Ann"; "ZAK" ], "a1", (2, 4), 0.70);
        ([ "Ann"; "ZAK" ], "a1 & !b3", (4, 5), 0.21);
        ([ "Ann"; "ZAK" ], "a1 & !(b3 | b2)", (5, 6), 0.084);
        ([ "Ann"; "ZAK" ], "a1 & !b2", (6, 8), 0.28);
        ([ "Jim"; "WEN" ], "a2", (7, 10), 0.80);
      ]
  in
  check_relation "TP anti join on the paper example" expected
    (Nj.join ~kind:Nj.Anti ~theta:theta_loc (relation_a ()) (relation_b ()))

let test_table2_right_outer () =
  (* b ⟖ has unmatched/negating windows of b w.r.t. a: mirror of the
     example. Validated against the independent oracle. *)
  let nj = Nj.join ~kind:Nj.Right ~theta:theta_loc (relation_a ()) (relation_b ()) in
  check_relation "right outer matches oracle" (oracle Nj.Right) nj

let test_table2_full_outer () =
  let nj = Nj.join ~kind:Nj.Full ~theta:theta_loc (relation_a ()) (relation_b ()) in
  check_relation "full outer matches oracle" (oracle Nj.Full) nj

let test_inner () =
  let nj = Nj.join ~kind:Nj.Inner ~theta:theta_loc (relation_a ()) (relation_b ()) in
  check_relation "inner join matches oracle" (oracle Nj.Inner) nj

let suite =
  [
    Alcotest.test_case "Fig1b: NJ left outer join" `Quick test_fig1b_nj;
    Alcotest.test_case "Fig1b: oracle left outer join" `Quick test_fig1b_oracle;
    Alcotest.test_case "Fig1b: output probabilities" `Quick test_fig1b_probabilities;
    Alcotest.test_case "Fig2: window counts" `Quick test_fig2_window_counts;
    Alcotest.test_case "Fig2: windows exact" `Quick test_fig2_windows_exact;
    Alcotest.test_case "TableII: anti join" `Quick test_table2_anti;
    Alcotest.test_case "TableII: right outer" `Quick test_table2_right_outer;
    Alcotest.test_case "TableII: full outer" `Quick test_table2_full_outer;
    Alcotest.test_case "inner join" `Quick test_inner;
  ]

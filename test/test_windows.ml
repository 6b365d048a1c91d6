module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Relation = Tpdb_relation.Relation
module Fact = Tpdb_relation.Fact
module Theta = Tpdb_windows.Theta
module Window = Tpdb_windows.Window
module Overlap = Tpdb_windows.Overlap
module Flat_join = Tpdb_windows.Flat_join
module Spec = Tpdb_windows.Spec
module Tuple = Tpdb_relation.Tuple
module Value = Tpdb_relation.Value
module Var = Tpdb_lineage.Var

let iv = Interval.make

let rel name rows = Relation.of_rows ~name ~columns:[ "K" ] ~tag:name rows

let theta_k = Theta.eq 0 0

(* --- Theta --- *)

let test_theta_matches () =
  let fr = Fact.of_strings [ "x"; "3" ] and fs = Fact.of_strings [ "x"; "5" ] in
  Alcotest.(check bool) "eq" true (Theta.matches (Theta.eq 0 0) fr fs);
  Alcotest.(check bool) "lt" true
    (Theta.matches (Theta.of_atoms [ Theta.Cols (`Lt, 1, 1) ]) fr fs);
  Alcotest.(check bool) "conj" false
    (Theta.matches
       (Theta.conj (Theta.eq 0 0) (Theta.of_atoms [ Theta.Cols (`Eq, 1, 1) ]))
       fr fs);
  Alcotest.(check bool) "always" true (Theta.matches Theta.always fr fs);
  let with_null = Fact.of_values [ Tpdb_relation.Value.Null; Tpdb_relation.Value.S "5" ] in
  Alcotest.(check bool) "null never matches" false
    (Theta.matches (Theta.eq 0 0) with_null with_null)

let test_theta_split () =
  let theta =
    Theta.of_atoms
      [ Theta.Cols (`Eq, 0, 1); Theta.Cols (`Lt, 1, 0); Theta.Cols (`Eq, 2, 2) ]
  in
  (match Theta.equi_keys theta with
  | Some (left, right) ->
      Alcotest.(check (list int)) "left keys" [ 0; 2 ] left;
      Alcotest.(check (list int)) "right keys" [ 1; 2 ] right
  | None -> Alcotest.fail "no equi keys");
  Alcotest.(check int) "residual size" 1 (List.length (Theta.atoms (Theta.residual theta)));
  Alcotest.(check (option (pair (list int) (list int))))
    "no keys on pure inequality" None
    (Theta.equi_keys (Theta.of_atoms [ Theta.Cols (`Lt, 0, 0) ]))

let test_theta_swap () =
  let theta = Theta.of_atoms [ Theta.Cols (`Lt, 0, 1) ] in
  let fr = Fact.of_strings [ "1"; "9" ] and fs = Fact.of_strings [ "0"; "5" ] in
  Alcotest.(check bool) "orig" true (Theta.matches theta fr fs);
  Alcotest.(check bool) "swapped" true (Theta.matches (Theta.swap theta) fs fr);
  Alcotest.(check bool) "swap twice = identity" true
    (Theta.matches (Theta.swap (Theta.swap theta)) fr fs)

(* --- Window constructors --- *)

let test_window_invariants () =
  let fr = Fact.of_strings [ "x" ] and lr = Formula.of_string "a1" in
  (match Window.unmatched ~fr ~iv:(iv 0 9) ~lr ~rspan:(iv 2 5) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "window outside rspan accepted");
  match
    Window.overlapping ~fr ~fs:(Fact.of_strings [ "y" ]) ~iv:(iv 3 6) ~lr
      ~ls:(Formula.of_string "b1") ~rspan:(iv 2 8) ~sspan:(iv 4 8) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "window outside sspan accepted"

(* --- LAWAU: the five ending-point cases of Fig. 3 ---
   Single r tuple [0,10); s tuples arranged per case. Join on K. *)

let lawau_case ~s_rows ~expected_unmatched () =
  let r = rel "r" [ ([ "x" ], iv 0 10, 0.5) ] in
  let s = rel "s" (List.map (fun span -> ([ "x" ], span, 0.5)) s_rows) in
  let unmatched ws =
    List.filter (fun w -> Window.kind w = Window.Unmatched) ws
    |> List.map (fun w -> Interval.to_string (Window.iv w))
  in
  Alcotest.(check (list string))
    "unmatched gaps"
    (List.map Interval.to_string expected_unmatched)
    (unmatched
       (Array.to_list (Flat_join.windows ~stage:`Wuo ~theta:theta_k r s)))

let test_lawau_no_overlap =
  (* Case: r matches nothing; the spanning unmatched window comes from the
     conventional outer join itself. *)
  lawau_case ~s_rows:[] ~expected_unmatched:[ iv 0 10 ]

let test_lawau_gap_before =
  (* Fig. 3 case: window ends where the first overlap starts. *)
  lawau_case ~s_rows:[ iv 4 10 ] ~expected_unmatched:[ iv 0 4 ]

let test_lawau_gap_after =
  (* Fig. 3 case: window ends at the tuple's own end point. *)
  lawau_case ~s_rows:[ iv 0 6 ] ~expected_unmatched:[ iv 6 10 ]

let test_lawau_gap_between =
  lawau_case ~s_rows:[ iv 0 3; iv 7 10 ] ~expected_unmatched:[ iv 3 7 ]

let test_lawau_covered =
  (* Fully covered: no unmatched windows at all. *)
  lawau_case ~s_rows:[ iv 0 6; iv 5 10 ] ~expected_unmatched:[]

let test_lawau_nested_overlaps =
  (* Overlapping windows that end before an earlier one does must not
     reopen a gap (cursor keeps the max ending point). *)
  lawau_case ~s_rows:[ iv 0 8; iv 2 4; iv 9 10 ] ~expected_unmatched:[ iv 8 9 ]

(* --- LAWAN: the ending-point cases of Fig. 4 --- *)

let lawan_case ~s_rows ~expected () =
  let r = rel "r" [ ([ "x" ], iv 0 10, 0.5) ] in
  let s =
    Relation.of_rows ~name:"s" ~columns:[ "K" ] ~tag:"s"
      (List.map (fun span -> ([ "x" ], span, 0.5)) s_rows)
  in
  let negating ws =
    List.filter (fun w -> Window.kind w = Window.Negating) ws
    |> List.map (fun w ->
           ( Interval.to_string (Window.iv w),
             match Window.ls w with
             | Some ls -> Formula.to_string_ascii (Formula.normalize ls)
             | None -> "null" ))
  in
  Alcotest.(check (list (pair string string))) "negating windows" expected
    (negating
       (Array.to_list (Flat_join.windows ~stage:`Wuon ~theta:theta_k r s)))

let test_lawan_single =
  (* One matching tuple: a single negating window over the overlap. *)
  lawan_case ~s_rows:[ iv 2 6 ] ~expected:[ ("[2,6)", "s1") ]

let test_lawan_event_points =
  (* Fig. 4: a new window starts at every start/end event; λs is the
     disjunction of the tuples valid over each segment. *)
  lawan_case
    ~s_rows:[ iv 2 6; iv 4 8 ]
    ~expected:
      [ ("[2,4)", "s1"); ("[4,6)", "s1 | s2"); ("[6,8)", "s2") ]

let test_lawan_gap_between_groups =
  (* Fig. 4 case 3: a gap inside the r tuple separates two sweep groups. *)
  lawan_case
    ~s_rows:[ iv 1 3; iv 6 9 ]
    ~expected:[ ("[1,3)", "s1"); ("[6,9)", "s2") ]

let test_lawan_meets =
  (* Tuples that meet: the set changes exactly at the meeting point. *)
  lawan_case
    ~s_rows:[ iv 2 5; iv 5 8 ]
    ~expected:[ ("[2,5)", "s1"); ("[5,8)", "s2") ]

let test_lawan_nested =
  lawan_case
    ~s_rows:[ iv 1 9; iv 3 5 ]
    ~expected:[ ("[1,3)", "s1"); ("[3,5)", "s1 | s2"); ("[5,9)", "s1") ]

let test_lawan_clipped_by_r =
  (* s extends beyond r: negating windows stay inside the r tuple. *)
  lawan_case ~s_rows:[ iv 5 20 ] ~expected:[ ("[5,10)", "s1") ]

(* The stream order of one group: each gap before the overlapping
   window it precedes, a negating window after the overlapping window
   it starts with. *)
let test_flat_stream_order_unit () =
  let r = rel "r" [ ([ "x" ], iv 0 12, 0.5) ] in
  let s =
    rel "s" [ ([ "x" ], iv 1 5, 0.5); ([ "x" ], iv 6 9, 0.4) ]
  in
  let expected =
    [
      "unmatched('x', null, [0,1), r1, null)";
      "overlapping('x', 'x', [1,5), r1, s1)";
      "negating('x', null, [1,5), r1, s1)";
      "unmatched('x', null, [5,6), r1, null)";
      "overlapping('x', 'x', [6,9), r1, s2)";
      "negating('x', null, [6,9), r1, s2)";
      "unmatched('x', null, [9,12), r1, null)";
    ]
  in
  let strings ws = List.map Window.to_string ws in
  Alcotest.(check (list string)) "WUON stream" expected
    (strings (Array.to_list (Flat_join.windows ~stage:`Wuon ~theta:theta_k r s)))

(* --- Render --- *)

let test_render_picture () =
  let picture =
    Tpdb_windows.Render.join_picture ~theta:Fixtures.theta_loc
      (Fixtures.relation_a ()) (Fixtures.relation_b ())
  in
  let contains needle =
    let nl = String.length needle and hl = String.length picture in
    let rec at i = i + nl <= hl && (String.sub picture i nl = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("picture contains " ^ needle) true (contains needle))
    [
      "a1 [2,8)";
      "U [2,4) a1";
      "O [4,6) a1";
      "N [5,6) a1";
      "Fs='hotel1, ZAK'";
      "λs=b3 | b2";
      "|######  |";
    ]

let test_render_scaling () =
  (* A very long relation still renders within the width budget. *)
  let long =
    Relation.of_rows ~name:"long" ~columns:[ "K" ]
      [ ([ "x" ], iv 0 5_000, 0.5) ]
  in
  let rendered = Tpdb_windows.Render.relation ~max_width:40 long in
  List.iter
    (fun line ->
      Alcotest.(check bool) "line within budget" true (String.length line < 120))
    (String.split_on_char '\n' rendered);
  Alcotest.(check bool) "empty relation renders" true
    (String.length
       (Tpdb_windows.Render.relation
          (Relation.of_rows ~name:"none" ~columns:[ "K" ] []))
    > 0)

(* --- Spec (Table I) on the paper example --- *)

let test_spec_lambda () =
  let b = Fixtures.relation_b () in
  let ann = Fact.of_strings [ "Ann"; "ZAK" ] in
  let lambda t =
    match
      Spec.lambda_s_theta ~theta:Fixtures.theta_loc ~s:b ~riv:(iv 2 8) ann t
    with
    | Some f -> Formula.to_string_ascii (Formula.normalize f)
    | None -> "null"
  in
  Alcotest.(check string) "t=3: nothing in ZAK" "null" (lambda 3);
  Alcotest.(check string) "t=4: b3" "b3" (lambda 4);
  Alcotest.(check string) "t=5: b2 or b3" "b2 | b3" (lambda 5);
  Alcotest.(check string) "t=7: b2" "b2" (lambda 7)

(* --- the flat right pass against the Table I definitions --- *)

(* The right side of an outer join from the definitions: the windows of
   s with respect to r under the swapped θ ({!Spec.windows}, grouped by
   s tuple and start-ordered). A matched s tuple's gap and negating
   windows form the first list, a never-matched one's spanning window the
   second. Each negating window's partners are re-derived and put in the
   executor's order: intersection interval, then r fact, then normalized
   r lineage, then [Tuple.compare_fact_start]. *)
let spec_right ~theta r s =
  let swapped = Theta.swap theta in
  let ws = Spec.windows ~theta:swapped s r in
  let matched w =
    List.exists
      (fun o -> Window.kind o = Window.Overlapping && Window.same_group o w)
      ws
  in
  let partner_order (ia, a) (ib, b) =
    let c = Interval.compare ia ib in
    if c <> 0 then c
    else
      let c = Fact.compare (Tuple.fact a) (Tuple.fact b) in
      if c <> 0 then c
      else
        let c =
          Formula.compare
            (Formula.normalize (Tuple.lineage a))
            (Formula.normalize (Tuple.lineage b))
        in
        if c <> 0 then c else Tuple.compare_fact_start a b
  in
  let in_partner_order w =
    let at = Interval.ts (Window.iv w) in
    let partners =
      List.filter_map
        (fun rt ->
          if
            Tuple.valid_at rt at
            && Theta.temporal_matches swapped (Window.rspan w) (Tuple.iv rt)
            && Theta.matches swapped (Window.fr w) (Tuple.fact rt)
          then
            Option.map
              (fun i -> (i, rt))
              (Interval.intersect (Window.rspan w) (Tuple.iv rt))
          else None)
        (Relation.tuples r)
    in
    let ls =
      Formula.disj
        (List.map (fun (_, rt) -> Tuple.lineage rt)
           (List.sort partner_order partners))
    in
    (* the same partners as the definition's λs, in another order *)
    assert (
      Formula.equal (Formula.normalize ls)
        (Formula.normalize (Option.get (Window.ls w))));
    Window.negating ~fr:(Window.fr w) ~iv:(Window.iv w) ~lr:(Window.lr w) ~ls
      ~rspan:(Window.rspan w) ()
  in
  let gaps =
    List.filter_map
      (fun w ->
        match Window.kind w with
        | Window.Overlapping -> None
        | Window.Unmatched -> if matched w then Some w else None
        | Window.Negating -> Some (in_partner_order w))
      ws
  and spanning =
    List.filter
      (fun w -> Window.kind w = Window.Unmatched && not (matched w))
      ws
  in
  (gaps, spanning)

(* Equality down to the disjunct order of a negating window's λs. *)
let same_window a b =
  Window.kind a = Window.kind b
  && Fact.equal (Window.fr a) (Window.fr b)
  && Option.equal Fact.equal (Window.fs a) (Window.fs b)
  && Interval.equal (Window.iv a) (Window.iv b)
  && Formula.equal (Window.lr a) (Window.lr b)
  && Option.equal Formula.equal (Window.ls a) (Window.ls b)
  && Interval.equal (Window.rspan a) (Window.rspan b)

let same_windows expected actual =
  let actual = Array.to_list actual in
  List.length expected = List.length actual
  && List.for_all2 same_window expected actual

let right_matches_spec ?sanitize ~theta r s =
  let gaps, spanning = spec_right ~theta r s in
  let gaps', spanning' = Flat_join.right ?sanitize ~theta r s in
  same_windows gaps gaps' && same_windows spanning spanning'

(* Null keys never match, on either side; an r fact repeated with
   overlapping intervals (not duplicate-free, on purpose) puts two
   partners on one intersection interval, where the executor orders them
   by normalized lineage. *)
let test_flat_right_nulls_and_ties () =
  let tuple tag i key ts te =
    Tuple.make
      ~fact:(Fact.of_values [ key; Value.S "x" ])
      ~lineage:(Formula.var (Var.make tag i))
      ~iv:(iv ts te) ~p:0.5
  in
  let schema = Tpdb_relation.Schema.make ~name:"r" [ "K"; "Sub" ] in
  let r =
    Relation.of_tuples schema
      [
        tuple "r" 1 Value.Null 0 5;
        tuple "r" 2 (Value.S "a") 3 8;
        tuple "r" 3 (Value.S "a") 1 10;
      ]
  and s =
    Relation.of_tuples schema
      [
        tuple "s" 1 (Value.S "a") 4 6;
        tuple "s" 2 Value.Null 2 7;
        tuple "s" 3 (Value.S "b") 0 3;
      ]
  in
  List.iter
    (fun theta ->
      Alcotest.(check bool) "right pass = Spec" true
        (right_matches_spec ~theta r s);
      Alcotest.(check bool) "sanitized right pass = Spec" true
        (right_matches_spec ~sanitize:true ~theta r s);
      let gaps, spanning = Flat_join.right ~theta r s in
      Alcotest.(check (list string))
        "one negating window, partners in lineage order"
        [ "r2 | r3" ]
        (List.filter_map
           (fun w -> Option.map Formula.to_string_ascii (Window.ls w))
           (Array.to_list gaps));
      Alcotest.(check int) "null and unmatched keys span" 2
        (Array.length spanning))
    [ theta_k; Theta.conj theta_k (Theta.eq 1 1) ]

(* --- properties: pipeline output = Table I definitions --- *)

open QCheck2

let qtest = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let flat_windows ?(stage = `Wuon) theta r s =
  Array.to_list (Flat_join.windows ~stage ~theta r s)

(* A sort that keeps duplicates: a pipeline that emits a window twice
   must not compare equal to the definitions. *)
let sorted_normalized ws = List.sort Window.compare_group_start ws

let windows_equal a b =
  let a = sorted_normalized a and b = sorted_normalized b in
  List.length a = List.length b && List.for_all2 Window.equal a b

let prop_pipeline_matches_spec =
  Test.make ~name:"Overlap->LAWAU->LAWAN = Table I window sets" ~count:150
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      windows_equal (flat_windows theta r s) (Spec.windows ~theta r s))

let prop_each_window_satisfies_definition =
  Test.make ~name:"every produced window satisfies its definition" ~count:150
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      List.for_all
        (fun w ->
          match Window.kind w with
          | Window.Overlapping -> Spec.is_overlapping_window ~theta r s w
          | Window.Unmatched -> Spec.is_unmatched_window ~theta r s w
          | Window.Negating -> Spec.is_negating_window ~theta r s w)
        (flat_windows theta r s))

let prop_group_partition =
  Test.make
    ~name:"unmatched+negating windows partition each r tuple's interval"
    ~count:150 ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      let windows = flat_windows theta r s in
      List.for_all
        (fun tp ->
          let mine =
            List.filter
              (fun w ->
                Window.kind w <> Window.Overlapping
                && Interval.equal (Window.rspan w)
                     (Tpdb_relation.Tuple.iv tp)
                && Fact.equal (Window.fr w) (Tpdb_relation.Tuple.fact tp)
                && Formula.equal (Window.lr w) (Tpdb_relation.Tuple.lineage tp))
              windows
          in
          let ivs = List.map Window.iv mine in
          (* disjoint and exactly covering the tuple's interval *)
          let sorted = List.sort Interval.compare ivs in
          let rec covers cursor = function
            | [] -> cursor = Interval.te (Tpdb_relation.Tuple.iv tp)
            | i :: rest -> Interval.ts i = cursor && covers (Interval.te i) rest
          in
          covers (Interval.ts (Tpdb_relation.Tuple.iv tp)) sorted)
        (Relation.tuples r))

(* TA's two probes for the conventional outer join. *)
let prop_hash_equals_nested_loop =
  Test.make ~name:"hash and nested-loop overlap joins agree" ~count:150
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      let run algorithm = List.of_seq (Overlap.left ~algorithm ~theta r s) in
      windows_equal (run `Hash) (run `Nested_loop))

(* Each stage of the flat pipeline against the definitions: [`Wo] is the
   conventional outer join (the overlapping windows, plus one spanning
   unmatched window per r tuple with no partner), [`Wuo] adds the gaps,
   [`Wuon] the negating windows, and [`Wun] is [`Wuon] without the
   overlapping ones. Both sides are sorted before the comparison, so
   this checks content (duplicates included), not order; the unit cases
   and the right-pass reference check order. *)
let prop_flat_equals_spec =
  Test.make ~name:"flat pipeline = Spec at every stage" ~count:150
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      let spec = Spec.windows ~theta r s in
      let kind k w = Window.kind w = k in
      let overlapping = List.filter (kind Window.Overlapping) spec in
      let unpartnered w =
        kind Window.Unmatched w
        && not (List.exists (Window.same_group w) overlapping)
      in
      windows_equal (flat_windows ~stage:`Wo theta r s)
        (List.filter (fun w -> kind Window.Overlapping w || unpartnered w) spec)
      && windows_equal (flat_windows ~stage:`Wuo theta r s)
           (List.filter (fun w -> not (kind Window.Negating w)) spec)
      && windows_equal (flat_windows ~stage:`Wuon theta r s) spec
      && windows_equal (flat_windows ~stage:`Wun theta r s)
           (List.filter (fun w -> not (kind Window.Overlapping w)) spec))

let prop_flat_count_equals_length =
  Test.make ~name:"flat counting kernel = window count at every stage"
    ~count:200 ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      List.for_all
        (fun stage ->
          Flat_join.count ~stage ~theta r s
          = Array.length (Flat_join.windows ~stage ~theta r s))
        [ `Wo; `Wuo; `Wuon ])

(* The same on a Meteo pair, whose long chains make negating windows
   with many live partners — where the order of the multiplications
   shows in the last bits. *)
let test_sweep_prices_meteo () =
  let r, s = Tpdb_workload.Datasets.Meteo.pair ~seed:7 500 in
  let theta = Theta.eq 1 1 in
  let env = Relation.prob_env [ r; s ] in
  let mismatches = ref 0 in
  let check w =
    let expected =
      Tpdb_lineage.Prob.factorize env (Tpdb_joins.Concat.output_lineage w)
    in
    if
      not
        (Int64.equal
           (Int64.bits_of_float (Window.p w))
           (Int64.bits_of_float expected))
    then incr mismatches
  in
  Array.iter check (Flat_join.windows ~env ~theta r s);
  let gaps, spanning = Flat_join.right ~env ~theta r s in
  Array.iter check gaps;
  Array.iter check spanning;
  Alcotest.(check int) "windows whose p differs from Prob.factorize" 0
    !mismatches

(* θs for the right pass: the scenario space plus an equi key with a
   residual atom, under every temporal component. *)
let right_theta_gen =
  let open Gen in
  let* theta =
    oneof
      [
        Tp_gen.theta_gen;
        return (Theta.conj theta_k (Theta.of_atoms [ Theta.Cols (`Ne, 1, 1) ]));
      ]
  in
  let* temporal =
    oneofl (`Overlap :: List.map (fun a -> `Allen a) Interval.all_allen)
  in
  return (Theta.with_temporal temporal theta)

let prop_flat_right_equals_spec =
  Test.make ~name:"flat right pass = Spec, in executor order"
    ~count:200 ~print:Tp_gen.print_triple
    Gen.(
      map
        (fun (theta, (r, s)) -> (theta, r, s))
        (pair right_theta_gen (Tp_gen.pair_gen ())))
    (fun (theta, r, s) ->
      right_matches_spec ~theta r s
      && right_matches_spec ~sanitize:true ~theta r s)

(* Every window the sweep prices carries the very float
   [Prob.factorize] returns for its output lineage; over base relations
   (bare-variable lineages) that is every window of every pass. *)
let prop_sweep_prices_bit_identical =
  let bits = Int64.bits_of_float in
  Test.make ~name:"in-sweep p = Prob.factorize bits (every pass)" ~count:150
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      let env = Relation.prob_env [ r; s ] in
      let priced w =
        let p = Window.p w in
        (not (Float.is_nan p))
        && Int64.equal (bits p)
             (bits
                (Tpdb_lineage.Prob.factorize env
                   (Tpdb_joins.Concat.output_lineage w)))
      in
      List.for_all
        (fun stage ->
          Array.for_all priced (Flat_join.windows ~stage ~env ~theta r s))
        [ `Wo; `Wuo; `Wuon; `Wun ]
      &&
      let gaps, spanning = Flat_join.right ~env ~theta r s in
      Array.for_all priced gaps && Array.for_all priced spanning)

let suite =
  [
    Alcotest.test_case "theta matches" `Quick test_theta_matches;
    Alcotest.test_case "theta equi/residual split" `Quick test_theta_split;
    Alcotest.test_case "theta swap" `Quick test_theta_swap;
    Alcotest.test_case "window invariants" `Quick test_window_invariants;
    Alcotest.test_case "LAWAU: fully unmatched tuple" `Quick test_lawau_no_overlap;
    Alcotest.test_case "LAWAU: gap before overlap (Fig3)" `Quick test_lawau_gap_before;
    Alcotest.test_case "LAWAU: gap after overlap (Fig3)" `Quick test_lawau_gap_after;
    Alcotest.test_case "LAWAU: gap between overlaps (Fig3)" `Quick test_lawau_gap_between;
    Alcotest.test_case "LAWAU: fully covered (Fig3)" `Quick test_lawau_covered;
    Alcotest.test_case "LAWAU: nested overlaps (Fig3)" `Quick test_lawau_nested_overlaps;
    Alcotest.test_case "LAWAN: single match" `Quick test_lawan_single;
    Alcotest.test_case "LAWAN: event-point segmentation (Fig4)" `Quick test_lawan_event_points;
    Alcotest.test_case "LAWAN: gap separates groups (Fig4)" `Quick test_lawan_gap_between_groups;
    Alcotest.test_case "LAWAN: meeting tuples" `Quick test_lawan_meets;
    Alcotest.test_case "LAWAN: nested validity" `Quick test_lawan_nested;
    Alcotest.test_case "LAWAN: clipped by r" `Quick test_lawan_clipped_by_r;
    Alcotest.test_case "flat stream order (unit)" `Quick test_flat_stream_order_unit;
    Alcotest.test_case "flat right pass: null keys and ties" `Quick
      test_flat_right_nulls_and_ties;
    Alcotest.test_case "Spec lambda_s_theta" `Quick test_spec_lambda;
    Alcotest.test_case "render join picture" `Quick test_render_picture;
    Alcotest.test_case "render scaling" `Quick test_render_scaling;
    qtest prop_pipeline_matches_spec;
    qtest prop_each_window_satisfies_definition;
    qtest prop_group_partition;
    qtest prop_hash_equals_nested_loop;
    qtest prop_flat_equals_spec;
    qtest prop_flat_count_equals_length;
    qtest prop_flat_right_equals_spec;
    qtest prop_sweep_prices_bit_identical;
    Alcotest.test_case "in-sweep p = Prob.factorize bits (Meteo)" `Quick
      test_sweep_prices_meteo;
  ]

module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Prob = Tpdb_lineage.Prob
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Value = Tpdb_relation.Value
module Theta = Tpdb_windows.Theta
module Nj = Tpdb_joins.Nj
module Oracle = Tpdb_oracle.Oracle
module Concat = Tpdb_joins.Concat
module Window = Tpdb_windows.Window

let iv = Interval.make

(* --- Concat (output formation) --- *)

let test_concat_functions () =
  let fr = Fact.of_strings [ "x" ] and lr = Formula.of_string "a1" in
  let overl =
    Window.overlapping ~fr ~fs:(Fact.of_strings [ "y" ]) ~iv:(iv 1 3) ~lr
      ~ls:(Formula.of_string "b1") ~rspan:(iv 0 4) ~sspan:(iv 1 3) ()
  in
  Alcotest.(check string) "and" "a1 & b1"
    (Formula.to_string_ascii (Concat.output_lineage overl));
  let unm = Window.unmatched ~fr ~iv:(iv 1 3) ~lr ~rspan:(iv 0 4) () in
  Alcotest.(check string) "pass-through" "a1"
    (Formula.to_string_ascii (Concat.output_lineage unm));
  let negw =
    Window.negating ~fr ~iv:(iv 1 3) ~lr
      ~ls:(Formula.of_string "b1 | b2") ~rspan:(iv 0 4) ()
  in
  Alcotest.(check string) "andNot" "a1 & !(b1 | b2)"
    (Formula.to_string_ascii (Concat.output_lineage negw));
  let env _ = 0.5 in
  let prob = Prob.compute env in
  let padded = Concat.tuple_of_window ~prob ~side:Concat.Left ~pad:2 unm in
  Alcotest.(check int) "null padding" 3 (Fact.arity (Tuple.fact padded));
  Alcotest.(check bool) "padding is null" true
    (Value.is_null (Fact.get (Tuple.fact padded) 2));
  (match Concat.tuple_of_set_window ~prob ~kind:`Except overl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "anti-join formation accepted a pair window")

(* --- hand-written edge cases --- *)

let krel name rows = Relation.of_rows ~name ~columns:[ "K" ] ~tag:name rows
let theta_k = Theta.eq 0 0

let check_against_oracle ?(theta = theta_k) r s =
  let check name nj oracle =
    let got = nj ~theta r s and want = oracle ~theta r s in
    if not (Relation.equal_as_sets want got) then
      Alcotest.failf "%s mismatch:\nexpected:\n%s\ngot:\n%s" name
        (Format.asprintf "%a" Relation.pp want)
        (Format.asprintf "%a" Relation.pp got)
  in
  List.iter
    (fun kind ->
      check (Nj.kind_name kind)
        (Nj.join ?options:None ?env:None ~kind)
        (Oracle.eval ?env:None ~kind))
    Nj.all_kinds

let test_empty_sides () =
  let r = krel "r" [ ([ "x" ], iv 1 5, 0.5) ] in
  let empty = krel "s" [] in
  check_against_oracle r empty;
  check_against_oracle empty r;
  check_against_oracle empty empty;
  (* An empty s still yields the whole of r in the left outer join. *)
  Alcotest.(check int) "left outer keeps r" 1
    (Relation.cardinality (Nj.join ~kind:Nj.Left ~theta:theta_k r empty));
  Alcotest.(check int) "anti keeps r" 1
    (Relation.cardinality (Nj.join ~kind:Nj.Anti ~theta:theta_k r empty))

let test_identical_intervals () =
  let r = krel "r" [ ([ "x" ], iv 2 6, 0.5) ] in
  let s = krel "s" [ ([ "x" ], iv 2 6, 0.5) ] in
  check_against_oracle r s;
  (* Exact cover: no unmatched or negating-free time points on either side. *)
  let left = Nj.join ~kind:Nj.Left ~theta:theta_k r s in
  Alcotest.(check int) "pair + negation" 2 (Relation.cardinality left)

let test_touching_intervals () =
  (* [2,4) and [4,6): meet but never overlap. *)
  let r = krel "r" [ ([ "x" ], iv 2 4, 0.5) ] in
  let s = krel "s" [ ([ "x" ], iv 4 6, 0.5) ] in
  check_against_oracle r s;
  Alcotest.(check int) "no pairs" 0
    (Relation.cardinality (Nj.join ~kind:Nj.Inner ~theta:theta_k r s))

let test_point_intervals () =
  let r = krel "r" [ ([ "x" ], iv 3 4, 0.5) ] in
  let s = krel "s" [ ([ "x" ], iv 3 4, 0.9); ([ "x" ], iv 4 5, 0.8) ] in
  check_against_oracle r s

let test_many_stacked_matches () =
  (* Five s tuples valid simultaneously: λs must collect all of them. *)
  let r = krel "r" [ ([ "x" ], iv 0 10, 0.5) ] in
  let s =
    Relation.of_rows ~name:"s" ~columns:[ "K" ] ~tag:"s"
      (List.init 5 (fun i -> ([ "x" ], iv i (10 - i), 0.5)))
  in
  check_against_oracle r s;
  let anti = Nj.join ~kind:Nj.Anti ~theta:theta_k r s in
  let deepest =
    List.find
      (fun tp -> Interval.equal (Tuple.iv tp) (iv 4 6))
      (Relation.tuples anti)
  in
  Alcotest.(check int) "all five negated over the middle" 5
    (List.length (Formula.vars (Tuple.lineage deepest)) - 1)

let test_self_join () =
  let r = krel "r" [ ([ "x" ], iv 0 6, 0.5); ([ "y" ], iv 2 8, 0.7) ] in
  check_against_oracle r r

let test_non_equi_theta () =
  let r = krel "r" [ ([ "a" ], iv 0 5, 0.5); ([ "b" ], iv 2 9, 0.6) ] in
  let s = krel "s" [ ([ "a" ], iv 1 4, 0.7); ([ "c" ], iv 3 8, 0.8) ] in
  check_against_oracle ~theta:(Theta.of_atoms [ Theta.Cols (`Ne, 0, 0) ]) r s;
  check_against_oracle ~theta:(Theta.of_atoms [ Theta.Cols (`Lt, 0, 0) ]) r s;
  check_against_oracle ~theta:Theta.always r s

let test_probabilities_in_range () =
  let r, s = (Fixtures.relation_a (), Fixtures.relation_b ()) in
  let all_ops =
    [
      Nj.join ~kind:Nj.Inner ~theta:Fixtures.theta_loc r s;
      Nj.join ~kind:Nj.Anti ~theta:Fixtures.theta_loc r s;
      Nj.join ~kind:Nj.Left ~theta:Fixtures.theta_loc r s;
      Nj.join ~kind:Nj.Right ~theta:Fixtures.theta_loc r s;
      Nj.join ~kind:Nj.Full ~theta:Fixtures.theta_loc r s;
    ]
  in
  List.iter
    (fun result ->
      List.iter
        (fun tp ->
          let p = Tuple.p tp in
          if not (p >= 0.0 && p <= 1.0) then
            Alcotest.failf "probability out of range: %s" (Tuple.to_string tp))
        (Relation.tuples result))
    all_ops

let test_explicit_env () =
  (* Joining derived relations requires an explicit environment. *)
  let r, s = (Fixtures.relation_a (), Fixtures.relation_b ()) in
  let env = Relation.prob_env [ r; s ] in
  let derived = Nj.join ~kind:Nj.Anti ~env ~theta:Fixtures.theta_loc r s in
  let again = Nj.join ~kind:Nj.Left ~env ~theta:(Theta.eq 1 1) derived s in
  Alcotest.(check bool) "derived join runs" true (Relation.cardinality again > 0);
  List.iter
    (fun tp ->
      let p = Tuple.p tp in
      Alcotest.(check bool) "p in range" true (p >= 0.0 && p <= 1.0))
    (Relation.tuples again)

(* --- parallel executor --- *)

let all_kinds = [ Nj.Inner; Nj.Anti; Nj.Left; Nj.Right; Nj.Full ]

let test_parallel_fallback () =
  let opts = Nj.options ~parallelism:4 () in
  Alcotest.(check int) "equi θ shards" 4
    (Nj.effective_parallelism opts theta_k);
  Alcotest.(check int) "non-equi θ falls back" 1
    (Nj.effective_parallelism opts (Theta.of_atoms [ Theta.Cols (`Lt, 0, 0) ]));
  Alcotest.(check int) "trivial θ falls back" 1
    (Nj.effective_parallelism opts Theta.always);
  (match Nj.options ~parallelism:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "parallelism 0 accepted");
  (* The silent fallback still computes the right answer. *)
  let r = krel "r" [ ([ "a" ], iv 0 5, 0.5); ([ "b" ], iv 2 9, 0.6) ] in
  let s = krel "s" [ ([ "a" ], iv 1 4, 0.7); ([ "c" ], iv 3 8, 0.8) ] in
  let theta = Theta.of_atoms [ Theta.Cols (`Ne, 0, 0) ] in
  List.iter
    (fun kind ->
      let seq = Nj.join ~kind ~theta r s in
      let par = Nj.join ~options:opts ~kind ~theta r s in
      if not (List.equal Tuple.equal (Relation.tuples seq) (Relation.tuples par))
      then Alcotest.fail "non-equi fallback result differs from sequential")
    all_kinds

(* --- the TPSan invariant sanitizer --- *)

module Invariant = Tpdb_windows.Invariant

let test_sanitizer_detects_violations () =
  let fr = Fact.of_strings [ "x" ] and fs = Fact.of_strings [ "y" ] in
  let lr = Formula.of_string "a1" and ls = Formula.of_string "b1" in
  let expect_violation name stream =
    match List.of_seq stream with
    | exception Invariant.Violation _ -> ()
    | _ -> Alcotest.failf "sanitizer accepted %s" name
  in
  (* A WO window that is not rspan ∩ sspan ([1,3) vs [1,4)). *)
  let broken_wo =
    Window.overlapping ~fr ~fs ~iv:(iv 1 3) ~lr ~ls ~rspan:(iv 0 4)
      ~sspan:(iv 1 4) ()
  in
  expect_violation "a WO window that is not the interval intersection"
    (Invariant.wrap ~stage:Invariant.Overlap (List.to_seq [ broken_wo ]));
  (* A WU set that does not cover r.T ([0,2) leaves [2,4) uncovered). *)
  let partial_wu = Window.unmatched ~fr ~iv:(iv 0 2) ~lr ~rspan:(iv 0 4) () in
  expect_violation "a WU set that does not cover r.T"
    (Invariant.wrap ~stage:Invariant.Wuo (List.to_seq [ partial_wu ]));
  (* A WN window before the LAWAN stage. *)
  let premature_wn = Window.negating ~fr ~iv:(iv 0 2) ~lr ~ls ~rspan:(iv 0 4) () in
  expect_violation "a negating window before LAWAN"
    (Invariant.wrap ~stage:Invariant.Wuo
       (List.to_seq
          [ Window.unmatched ~fr ~iv:(iv 0 4) ~lr ~rspan:(iv 0 4) (); premature_wn ]));
  (* A θ-mismatched WO pair. *)
  let mismatched =
    Window.overlapping ~fr ~fs ~iv:(iv 0 4) ~lr ~ls ~rspan:(iv 0 4)
      ~sspan:(iv 0 4) ()
  in
  expect_violation "a WO pair that does not satisfy θ"
    (Invariant.wrap ~stage:Invariant.Overlap ~theta:theta_k
       (List.to_seq [ mismatched ]));
  (* Descending group order across the merged stream. *)
  let group_of name span =
    Window.unmatched ~fr:(Fact.of_strings [ name ]) ~iv:span
      ~lr:(Formula.of_string "a1") ~rspan:span ()
  in
  (match Invariant.check_group_order [ group_of "b" (iv 0 4); group_of "a" (iv 0 4) ] with
  | exception Invariant.Violation _ -> ()
  | _ -> Alcotest.fail "sanitizer accepted a descending group order");
  (* And the valid counterparts all pass. *)
  let ok =
    Window.overlapping ~fr ~fs ~iv:(iv 1 3) ~lr ~ls ~rspan:(iv 0 4)
      ~sspan:(iv 1 3) ()
  in
  let checked =
    List.of_seq (Invariant.wrap ~stage:Invariant.Overlap (List.to_seq [ ok ]))
  in
  Alcotest.(check int) "valid stream passes" 1 (List.length checked)

(* --- properties: NJ vs the timepoint oracle --- *)

(* No [open QCheck2] here: it would shadow our [Tuple] alias. *)
module Test = QCheck2.Test

let qtest = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let against_oracle name kind =
  Test.make ~name ~count:120 ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      Relation.equal_as_sets (Oracle.eval ~kind ~theta r s)
        (Nj.join ~kind ~theta r s))

let prop_inner = against_oracle "inner join = oracle" Nj.Inner
let prop_anti = against_oracle "anti join = oracle" Nj.Anti
let prop_left = against_oracle "left outer join = oracle" Nj.Left
let prop_right = against_oracle "right outer join = oracle" Nj.Right
let prop_full = against_oracle "full outer join = oracle" Nj.Full

let prop_left_decomposes =
  Test.make ~name:"left outer = inner ∪ padded anti" ~count:120
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      let left = Nj.join ~kind:Nj.Left ~theta r s in
      let inner = Nj.join ~kind:Nj.Inner ~theta r s in
      let anti = Nj.join ~kind:Nj.Anti ~theta r s in
      let pad = Tpdb_relation.Schema.arity (Relation.schema s) in
      let padded_anti =
        Relation.of_tuples (Relation.schema left)
          (List.map
             (fun tp ->
               Tuple.make
                 ~fact:(Fact.concat (Tuple.fact tp) (Fact.nulls pad))
                 ~lineage:(Tuple.lineage tp) ~iv:(Tuple.iv tp) ~p:(Tuple.p tp))
             (Relation.tuples anti))
      in
      Relation.equal_as_sets left (Relation.union_all inner padded_anti))

let prop_full_contains_left_and_right_parts =
  Test.make ~name:"full outer ⊇ left outer and right outer" ~count:120
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      let canon rel =
        Relation.tuples rel
        |> List.map (fun tp ->
               ( Tuple.fact tp,
                 Formula.normalize (Tuple.lineage tp),
                 Tuple.iv tp ))
        |> List.sort_uniq compare
      in
      let full = canon (Nj.join ~kind:Nj.Full ~theta r s) in
      let contains part =
        List.for_all (fun row -> List.mem row full) (canon part)
      in
      contains (Nj.join ~kind:Nj.Left ~theta r s)
      && contains (Nj.join ~kind:Nj.Right ~theta r s))

let prop_anti_probability_decomposes =
  Test.make ~name:"P(anti row) factorizes over independent matches" ~count:120
    ~print:Tp_gen.print_pair
    (Tp_gen.pair_gen ())
    (fun (r, s) ->
      let env = Relation.prob_env [ r; s ] in
      let anti = Nj.join ~kind:Nj.Anti ~theta:theta_k r s in
      List.for_all
        (fun tp ->
          Float.abs (Tuple.p tp -. Prob.exact env (Tuple.lineage tp)) < 1e-9)
        (Relation.tuples anti))

let prop_parallel_equals_sequential =
  (* The determinism contract: the partitioned executor's output is the
     sequential output tuple for tuple — order, lineage and probability
     included — for every join kind and partition count. *)
  Test.make ~name:"parallel join = sequential (all kinds, jobs 2/4)" ~count:120
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      List.for_all
        (fun kind ->
          let seq = Nj.join ~kind ~theta r s in
          List.for_all
            (fun jobs ->
              let par =
                Nj.join
                  ~options:(Nj.options ~parallelism:jobs ())
                  ~kind ~theta r s
              in
              List.equal Tuple.equal (Relation.tuples seq)
                (Relation.tuples par))
            [ 2; 4 ])
        all_kinds)

let prop_cached_equals_uncached =
  (* The probability cache is invisible: for every join kind and
     partition count, the memoized run returns the uncached run's output
     tuple for tuple — including bit-identical probability floats, which
     the [Float.equal] on top of [Tuple.equal]'s 1e-9 tolerance pins. *)
  Test.make ~name:"cached join = uncached (all kinds, jobs 1/2/4)" ~count:100
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      List.for_all
        (fun kind ->
          List.for_all
            (fun jobs ->
              let uncached =
                Nj.join
                  ~options:(Nj.options ~parallelism:jobs ~prob_cache:false ())
                  ~kind ~theta r s
              in
              let cached =
                Nj.join
                  ~options:(Nj.options ~parallelism:jobs ~prob_cache:true ())
                  ~kind ~theta r s
              in
              List.equal
                (fun a b ->
                  Tuple.equal a b && Float.equal (Tuple.p a) (Tuple.p b))
                (Relation.tuples uncached) (Relation.tuples cached))
            [ 1; 2; 4 ])
        all_kinds)

let prop_sanitized_equals_unsanitized =
  (* TPSan is a pure observer: with checking on, every join kind at every
     partition count returns the identical relation — and no lemma
     violation fires on any generated scenario. *)
  Test.make ~name:"sanitized join = unsanitized (all kinds, jobs 1/2/4)"
    ~count:80 ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      List.for_all
        (fun kind ->
          List.for_all
            (fun jobs ->
              let plain =
                Nj.join
                  ~options:(Nj.options ~parallelism:jobs ~sanitize:false ())
                  ~kind ~theta r s
              in
              let checked =
                Nj.join
                  ~options:(Nj.options ~parallelism:jobs ~sanitize:true ())
                  ~kind ~theta r s
              in
              List.equal Tuple.equal (Relation.tuples plain)
                (Relation.tuples checked))
            [ 1; 2; 4 ])
        all_kinds)

let prop_spilled_equals_in_ram =
  (* The out-of-core contract: with the budget forced to one byte every
     equi-θ join spills (partitioning, heap files, buffer pool, merge —
     the whole disk path), and the output must still be the in-RAM
     output tuple for tuple, for every join kind. Non-equi θs cannot
     partition and stay in RAM, which the same equality covers as the
     no-op case. *)
  Test.make ~name:"spilled join = in-RAM (all kinds, budget 1 byte)"
    ~count:100 ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      List.for_all
        (fun kind ->
          let in_ram = Nj.join ~kind ~theta r s in
          let spilled =
            Nj.join ~options:(Nj.options ~mem_budget:1 ()) ~kind ~theta r s
          in
          List.equal
            (fun a b ->
              Tuple.equal a b && Float.equal (Tuple.p a) (Tuple.p b))
            (Relation.tuples in_ram) (Relation.tuples spilled))
        all_kinds)

let prop_join_spilled_streams_equal_join =
  (* [join_spilled] consumes its inputs as streams and never
     materializes them; on materialized relations re-wrapped as streams
     it must return exactly what [join] returns. Only equi-θs apply —
     the streaming entry refuses θs it cannot partition on. *)
  Test.make ~name:"join_spilled on streams = join (all kinds)" ~count:80
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      match Theta.equi_keys theta with
      | None -> true
      | Some _ ->
          let env = Relation.prob_env [ r; s ] in
          List.for_all
            (fun kind ->
              let in_ram = Nj.join ~env ~kind ~theta r s in
              let spilled =
                Nj.join_spilled
                  ~options:(Nj.options ~mem_budget:1 ())
                  ~env ~kind ~theta
                  ~left:(Relation.schema r, Relation.to_seq r)
                  ~right:(Relation.schema s, Relation.to_seq s)
                  ()
              in
              List.equal
                (fun a b ->
                  Tuple.equal a b && Float.equal (Tuple.p a) (Tuple.p b))
                (Relation.tuples in_ram) (Relation.tuples spilled))
            all_kinds)

let prop_composed_joins_match_oracle =
  (* Compositionality: the join of a derived relation (an anti-join
     result, with complex lineages) against a base relation must still
     agree with the timepoint oracle, given the base environment. *)
  Test.make ~name:"join of derived relation = oracle" ~count:80
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      let env = Relation.prob_env [ r; s ] in
      let derived = Nj.join ~kind:Nj.Anti ~env ~theta r s in
      Relation.equal_as_sets
        (Oracle.eval ~env ~kind:Nj.Left ~theta derived s)
        (Nj.join ~kind:Nj.Left ~env ~theta derived s))

let prop_static_safe_probabilities_bit_identical =
  (* A statically safe plan takes its probabilities from the sweep (or,
     for a window whose partner lineage is not a bare variable, from
     [Prob.factorize] through the cache): either way each output p has
     the bits of [Prob.factorize] on the output lineage — on base
     relations for every kind, and on a right outer join over an inner
     join's output, whose preserved side's lineages are conjunctions. *)
  let bits = Int64.bits_of_float in
  Test.make ~name:"static-safe join p = Prob.factorize bits (all kinds)"
    ~count:80 ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      let t =
        Relation.of_tuples
          (Tpdb_relation.Schema.make ~name:"t" [ "K"; "Sub" ])
          (List.mapi
             (fun i tp ->
               Tuple.make ~fact:(Tuple.fact tp)
                 ~lineage:(Formula.var (Tpdb_lineage.Var.make "t" (i + 1)))
                 ~iv:(Tuple.iv tp) ~p:(1.0 -. Tuple.p tp))
             (Relation.tuples s))
      in
      let env = Relation.prob_env [ r; s; t ] in
      let exact rel =
        List.for_all
          (fun tp ->
            Int64.equal (bits (Tuple.p tp))
              (bits (Prob.factorize env (Tuple.lineage tp))))
          (Relation.tuples rel)
      in
      let derived = Nj.join ~env ~kind:Nj.Inner ~theta s t in
      List.for_all
        (fun options ->
          List.for_all
            (fun kind ->
              let safe = Nj.join ~options ~env ~kind ~theta r s in
              exact safe
              && List.equal Tuple.equal
                   (Relation.tuples (Nj.join ~env ~kind ~theta r s))
                   (Relation.tuples safe))
            all_kinds
          && exact (Nj.join ~options ~env ~kind:Nj.Right ~theta r derived))
        [
          Nj.options ~static_safe:true ();
          Nj.options ~static_safe:true ~prob_cache:false ();
          Nj.options ~static_safe:true ~parallelism:2 ();
          Nj.options ~static_safe:true ~mem_budget:1 ();
        ])

let test_join_spilled_counts_tuples_in () =
  let r = Fixtures.relation_a () and s = Fixtures.relation_b () in
  let m = Tpdb_obs.Metrics.create () in
  ignore
    (Tpdb_obs.Metrics.with_sink m (fun () ->
         Nj.join_spilled
           ~options:(Nj.options ~mem_budget:1 ())
           ~env:(Relation.prob_env [ r; s ])
           ~kind:Nj.Full ~theta:Fixtures.theta_loc
           ~left:(Relation.schema r, Relation.to_seq r)
           ~right:(Relation.schema s, Relation.to_seq s)
           ()));
  Alcotest.(check int) "tuples_in = |r| + |s|"
    (Relation.cardinality r + Relation.cardinality s)
    (Tpdb_obs.Metrics.get m Tpdb_obs.Metrics.Tuples_in)

let suite =
  [
    Alcotest.test_case "lineage concatenation functions" `Quick test_concat_functions;
    Alcotest.test_case "empty inputs" `Quick test_empty_sides;
    Alcotest.test_case "identical intervals" `Quick test_identical_intervals;
    Alcotest.test_case "touching intervals" `Quick test_touching_intervals;
    Alcotest.test_case "point intervals" `Quick test_point_intervals;
    Alcotest.test_case "stacked matches" `Quick test_many_stacked_matches;
    Alcotest.test_case "self join" `Quick test_self_join;
    Alcotest.test_case "non-equi theta" `Quick test_non_equi_theta;
    Alcotest.test_case "probabilities in range" `Quick test_probabilities_in_range;
    Alcotest.test_case "explicit environment" `Quick test_explicit_env;
    Alcotest.test_case "parallel fallback on non-equi θ" `Quick
      test_parallel_fallback;
    Alcotest.test_case "sanitizer detects broken window streams" `Quick
      test_sanitizer_detects_violations;
    qtest prop_sanitized_equals_unsanitized;
    qtest prop_inner;
    qtest prop_anti;
    qtest prop_left;
    qtest prop_right;
    qtest prop_full;
    qtest prop_left_decomposes;
    qtest prop_full_contains_left_and_right_parts;
    qtest prop_anti_probability_decomposes;
    qtest prop_parallel_equals_sequential;
    qtest prop_cached_equals_uncached;
    qtest prop_spilled_equals_in_ram;
    qtest prop_join_spilled_streams_equal_join;
    qtest prop_composed_joins_match_oracle;
    qtest prop_static_safe_probabilities_bit_identical;
    Alcotest.test_case "join_spilled counts its input tuples" `Quick
      test_join_spilled_counts_tuples_in;
  ]

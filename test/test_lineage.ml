module Var = Tpdb_lineage.Var
module Formula = Tpdb_lineage.Formula
module Bdd = Tpdb_lineage.Bdd
module Prob = Tpdb_lineage.Prob

let f = Formula.of_string

let formula_testable = Alcotest.testable Formula.pp Formula.equal

(* --- Var --- *)

let test_var () =
  let v = Var.make "a" 3 in
  Alcotest.(check string) "to_string" "a3" (Var.to_string v);
  Alcotest.(check bool) "of_string" true (Var.equal v (Var.of_string "a3"));
  Alcotest.(check bool)
    "of_string multi-digit" true
    (Var.equal (Var.make "rel" 42) (Var.of_string "rel42"));
  Alcotest.(check bool) "ordering by rel then idx" true
    (Var.compare (Var.make "a" 9) (Var.make "b" 1) < 0);
  List.iter
    (fun bad ->
      match Var.of_string bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %S" bad)
    [ "abc"; "42"; "" ];
  (match Var.make "a1" 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tag ending in digit accepted")

(* --- Formula construction --- *)

let test_smart_constructors () =
  Alcotest.check formula_testable "flatten and" (f "a1 & a2 & a3")
    Formula.(conj [ conj [ var (Var.make "a" 1); var (Var.make "a" 2) ]; var (Var.make "a" 3) ]);
  Alcotest.check formula_testable "true unit" (f "a1")
    Formula.(conj [ true_; var (Var.make "a" 1) ]);
  Alcotest.check formula_testable "false annihilates" Formula.false_
    Formula.(conj [ var (Var.make "a" 1); false_ ]);
  Alcotest.check formula_testable "or false unit" (f "a1")
    Formula.(disj [ false_; var (Var.make "a" 1) ]);
  Alcotest.check formula_testable "or true annihilates" Formula.true_
    Formula.(disj [ var (Var.make "a" 1); true_ ]);
  Alcotest.check formula_testable "double negation" (f "a1")
    Formula.(neg (neg (var (Var.make "a" 1))));
  Alcotest.check formula_testable "neg true" Formula.false_ (Formula.neg Formula.true_);
  Alcotest.check formula_testable "and_not" (f "a1 & !a2")
    (Formula.and_not (f "a1") (f "a2"));
  Alcotest.check formula_testable "singleton conj" (f "a1") (Formula.conj [ f "a1" ]);
  Alcotest.check formula_testable "empty conj is true" Formula.true_ (Formula.conj [])

let test_parser_printer () =
  let roundtrip s = Formula.to_string_ascii (f s) in
  Alcotest.(check string) "precedence and over or" "a1 & a2 | a3"
    (roundtrip "a1 & a2 | a3");
  Alcotest.(check string) "parens preserved when needed" "(a1 | a2) & a3"
    (roundtrip "(a1 | a2) & a3");
  Alcotest.(check string) "negated group" "!(a1 | a2)" (roundtrip "!(a1 | a2)");
  Alcotest.(check string) "unicode rendering" "a1 \xe2\x88\xa7 \xc2\xacb2"
    (Formula.to_string (f "a1 & !b2"));
  Alcotest.check formula_testable "parse T/F" Formula.true_ (f "T");
  List.iter
    (fun bad ->
      match f bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "parsed %S" bad)
    [ ""; "a1 &"; "(a1"; "a1 a2"; "&a1"; "a" ]

let test_eval_vars () =
  let env v = Var.idx v mod 2 = 1 in
  Alcotest.(check bool) "eval" true (Formula.eval env (f "a1 & !(a2 | b4)"));
  Alcotest.(check bool) "eval false" false (Formula.eval env (f "a1 & a2"));
  Alcotest.(check (list string))
    "vars sorted unique"
    [ "a1"; "a2"; "b1" ]
    (List.map Var.to_string (Formula.vars (f "b1 & a2 & (a1 | a2)")));
  Alcotest.(check int) "size" 6 (Formula.size (f "a1 & !(a2 | a3)"))

let test_normalize () =
  Alcotest.check formula_testable "commutative"
    (Formula.normalize (f "a1 & a2"))
    (Formula.normalize (f "a2 & a1"));
  Alcotest.check formula_testable "dedup"
    (Formula.normalize (f "a1"))
    (Formula.normalize (f "a1 & a1"));
  Alcotest.check formula_testable "nested or order"
    (Formula.normalize (f "a1 & !(b2 | b3)"))
    (Formula.normalize (f "a1 & !(b3 | b2)"))

let test_substitute () =
  let lookup v =
    if Var.equal v (Var.make "a" 1) then Some (f "b1 & b2") else None
  in
  Alcotest.check formula_testable "substitute"
    (f "b1 & b2 & !a2")
    (Formula.substitute lookup (f "a1 & !a2"))

(* --- hash-consing --- *)

let test_hash_consing () =
  Alcotest.(check bool) "same-domain structural duplicates are shared" true
    (f "a1 & b2 | !c3" == f "a1 & b2 | !c3");
  Alcotest.(check bool) "shared nodes share ids" true
    (Formula.id (f "a1 & b2") = Formula.id (f "a1 & b2"));
  Alcotest.(check bool) "distinct formulas get distinct ids" true
    (Formula.id (f "a1 & b2") <> Formula.id (f "a1 | b2"));
  Alcotest.(check int) "hash is structural" (Formula.hash (f "a1 & b2"))
    (Formula.hash (f "a1 & b2"));
  Alcotest.(check bool) "constants are singletons" true
    (f "T" == Formula.true_ && f "F" == Formula.false_);
  (* the sub-formula is shared between the two parents *)
  match (Formula.view (f "(a1 & b2) | c3"), Formula.view (f "!(a1 & b2)")) with
  | Formula.Or [ x; _ ], Formula.Not y ->
      Alcotest.(check bool) "subterm sharing" true (x == y)
  | _ -> Alcotest.fail "unexpected view shape"

(* The reference structural equality the hash-consed one must agree
   with, written over [view] with no physical shortcuts. *)
let rec structural_equal a b =
  match (Formula.view a, Formula.view b) with
  | Formula.True, Formula.True | Formula.False, Formula.False -> true
  | Formula.Var x, Formula.Var y -> Var.equal x y
  | Formula.Not x, Formula.Not y -> structural_equal x y
  | Formula.And xs, Formula.And ys | Formula.Or xs, Formula.Or ys ->
      List.length xs = List.length ys && List.for_all2 structural_equal xs ys
  | _ -> false

(* --- BDD --- *)

let test_bdd_basics () =
  let m = Bdd.manager () in
  let a = Bdd.var m (Var.make "a" 1) in
  let excluded_middle = Bdd.disj m a (Bdd.neg m a) in
  Alcotest.(check bool) "excluded middle" true (Bdd.is_tautology excluded_middle);
  let contradiction = Bdd.conj m a (Bdd.neg m a) in
  Alcotest.(check bool) "contradiction" true (Bdd.is_contradiction contradiction);
  Alcotest.(check bool) "hash consing" true
    (Bdd.equal (Bdd.of_formula m (f "a1 & b1")) (Bdd.of_formula m (f "b1 & a1")))

let test_bdd_equivalence () =
  Alcotest.(check bool) "de morgan" true
    (Bdd.equivalent (f "!(a1 | a2)") (f "!a1 & !a2"));
  Alcotest.(check bool) "distribution" true
    (Bdd.equivalent (f "a1 & (b1 | b2)") (f "a1 & b1 | a1 & b2"));
  Alcotest.(check bool) "absorption" true
    (Bdd.equivalent (f "a1 | a1 & b1") (f "a1"));
  Alcotest.(check bool) "not equivalent" false
    (Bdd.equivalent (f "a1 | b1") (f "a1 & b1"))

let test_bdd_counting () =
  let m = Bdd.manager ~order:[ Var.make "a" 1; Var.make "a" 2; Var.make "a" 3 ] () in
  let xor_three = Bdd.of_formula m (f "a1 & !a2 | !a1 & a2") in
  Alcotest.(check (float 1e-9)) "sat count over 3 declared vars" 4.0
    (Bdd.sat_count m xor_three);
  Alcotest.(check int) "node sharing" 3 (Bdd.node_count xor_three)

(* --- probability --- *)

let test_probability_example () =
  (* The paper's Fig. 1b probabilities. *)
  let env =
    Prob.env_of_alist
      [
        (Var.make "a" 1, 0.7);
        (Var.make "b" 2, 0.6);
        (Var.make "b" 3, 0.7);
      ]
  in
  let check name expected formula =
    Alcotest.(check (float 1e-9)) name expected (Prob.compute env (f formula))
  in
  check "pair" 0.49 "a1 & b3";
  check "negation of two" 0.084 "a1 & !(b3 | b2)";
  check "negation of one" 0.28 "a1 & !b2"

let test_read_once () =
  let env = Prob.env_of_alist [ (Var.make "a" 1, 0.5); (Var.make "a" 2, 0.5) ] in
  Alcotest.(check bool) "read-once applies" true
    (Option.is_some (Prob.read_once env (f "a1 & !a2")));
  Alcotest.(check bool) "repeated var rejected" true
    (Option.is_none (Prob.read_once env (f "a1 & (a1 | a2)")));
  (* a1 | a1 is NOT read-once even though it is semantically just a1 *)
  Alcotest.(check bool) "syntactic repetition rejected" true
    (Option.is_none (Prob.read_once env (f "a1 | a1")))

let test_conditional () =
  let env =
    Prob.env_of_alist
      [ (Var.make "a" 1, 0.7); (Var.make "b" 2, 0.6); (Var.make "b" 3, 0.7) ]
  in
  Alcotest.(check (float 1e-9)) "P(f|f) = 1" 1.0
    (Prob.conditional env ~given:(f "a1") (f "a1"));
  (* Observing that Ann found no hotel over [5,6): P(hotel2 free | no room)
     must be 0, P(Ann interested | no room) must be 1 given it includes a1. *)
  let evidence = f "a1 & !(b3 | b2)" in
  Alcotest.(check (float 1e-9)) "contradictory" 0.0
    (Prob.conditional env ~given:evidence (f "b2"));
  Alcotest.(check (float 1e-9)) "entailed" 1.0
    (Prob.conditional env ~given:evidence (f "a1"));
  (* Independence: conditioning on an unrelated variable changes nothing. *)
  Alcotest.(check (float 1e-9)) "independent evidence" 0.7
    (Prob.conditional env ~given:(f "b2") (f "a1"));
  match Prob.conditional env ~given:Formula.false_ (f "a1") with
  | exception Prob.Vanishing_evidence { p_given = 0.0; _ } -> ()
  | exception Prob.Vanishing_evidence _ ->
      Alcotest.fail "impossible evidence reported a nonzero probability"
  | _ -> Alcotest.fail "conditioning on impossible evidence accepted"

(* Regression: [conditional] used to guard only [p_given <= 0.0] and
   happily divided by denormal-small evidence probabilities; it must now
   raise the typed error for anything below [Prob.evidence_epsilon]. *)
let test_conditional_denormal_evidence () =
  let env = Prob.env_of_alist [ (Var.make "a" 1, 1e-300); (Var.make "b" 2, 0.5) ] in
  (match Prob.conditional env ~given:(f "a1") (f "b2") with
  | exception Prob.Vanishing_evidence { p_given; epsilon } ->
      Alcotest.(check (float 0.0)) "p_given carried" 1e-300 p_given;
      Alcotest.(check (float 0.0)) "epsilon carried" Prob.evidence_epsilon epsilon
  | p -> Alcotest.failf "denormal evidence accepted, returned %g" p);
  (* Just above the threshold still works. *)
  let env = Prob.env_of_alist [ (Var.make "a" 1, 1e-9); (Var.make "b" 2, 0.5) ] in
  Alcotest.(check (float 1e-12)) "small but sound evidence" 0.5
    (Prob.conditional env ~given:(f "a1") (f "b2"))

(* Regression: [env_of_alist] used to raise a bare [Not_found] for a
   variable missing from the environment. *)
let test_env_unbound_variable () =
  let env = Prob.env_of_alist [ (Var.make "a" 1, 0.5) ] in
  match Prob.compute env (f "a1 & q7") with
  | exception Prob.Unbound_variable v ->
      Alcotest.(check string) "names the variable" "q7" (Var.to_string v)
  | p -> Alcotest.failf "unbound variable computed to %g" p

let test_monte_carlo () =
  let env =
    Prob.env_of_alist
      [
        (Var.make "a" 1, 0.7);
        (Var.make "b" 2, 0.6);
        (Var.make "b" 3, 0.7);
      ]
  in
  let formula = f "a1 & !(b3 | b2)" in
  let estimate = Prob.monte_carlo ~samples:50_000 env formula in
  Alcotest.(check bool) "estimate near exact" true
    (Float.abs (estimate -. 0.084) < 0.01);
  Alcotest.(check (float 0.0)) "deterministic for a seed"
    (Prob.monte_carlo ~seed:7 ~samples:500 env formula)
    (Prob.monte_carlo ~seed:7 ~samples:500 env formula);
  match Prob.monte_carlo ~samples:0 env formula with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero samples accepted"

let test_enumerate_guard () =
  let env _ = 0.5 in
  let big =
    Formula.disj
      (List.init 21 (fun i -> Formula.var (Var.make "x" i)))
  in
  match Prob.enumerate env big with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "enumerate accepted 21 variables"

(* --- properties --- *)

open QCheck2

let var_gen = Gen.map (fun i -> Var.make "v" i) (Gen.int_range 1 6)

let formula_gen : Formula.t Gen.t =
  Gen.sized @@ Gen.fix (fun self size ->
      if size <= 1 then
        Gen.oneof
          [
            Gen.map Formula.var var_gen;
            Gen.return Formula.true_;
            Gen.return Formula.false_;
          ]
      else
        Gen.oneof
          [
            Gen.map Formula.var var_gen;
            Gen.map Formula.neg (self (size / 2));
            Gen.map2
              (fun a b -> Formula.conj [ a; b ])
              (self (size / 2)) (self (size / 2));
            Gen.map2
              (fun a b -> Formula.disj [ a; b ])
              (self (size / 2)) (self (size / 2));
          ])

let print_formula = Formula.to_string_ascii

let env_half _ = 0.5
let env_idx v = 0.1 +. (0.12 *. float_of_int (Var.idx v))

let prop_exact_matches_enumeration =
  Test.make ~name:"BDD probability = naive enumeration" ~count:300
    ~print:print_formula formula_gen (fun formula ->
      let close a b = Float.abs (a -. b) < 1e-9 in
      close (Prob.exact env_idx formula) (Prob.enumerate env_idx formula))

let prop_read_once_matches_exact =
  Test.make ~name:"read-once fast path agrees with exact" ~count:300
    ~print:print_formula formula_gen (fun formula ->
      match Prob.read_once env_idx formula with
      | None -> true
      | Some p -> Float.abs (p -. Prob.exact env_idx formula) < 1e-9)

let prop_normalize_preserves_semantics =
  Test.make ~name:"normalize preserves logical equivalence" ~count:300
    ~print:print_formula formula_gen (fun formula ->
      Bdd.equivalent formula (Formula.normalize formula))

let prop_parser_roundtrip =
  Test.make ~name:"ascii printer/parser round-trip" ~count:300
    ~print:print_formula formula_gen (fun formula ->
      Formula.equal formula (Formula.of_string (Formula.to_string_ascii formula)))

let prop_chain_rule =
  Test.make ~name:"chain rule: P(f∧g) = P(f|g) P(g)" ~count:200
    ~print:(fun (a, b) -> print_formula a ^ " ; " ^ print_formula b)
    (QCheck2.Gen.pair formula_gen formula_gen)
    (fun (f1, f2) ->
      let p_g = Prob.exact env_idx f2 in
      if p_g <= 1e-12 then true
      else
        let joint = Prob.exact env_idx (Formula.( &&& ) f1 f2) in
        Float.abs ((Prob.conditional env_idx ~given:f2 f1 *. p_g) -. joint)
        < 1e-9)

let prop_monte_carlo_converges =
  Test.make ~name:"Monte-Carlo estimate within 5 sigma of exact" ~count:60
    ~print:print_formula formula_gen (fun formula ->
      let samples = 20_000 in
      let exact = Prob.exact env_idx formula in
      let estimate = Prob.monte_carlo ~samples env_idx formula in
      (* binomial std-dev bound: 0.5/sqrt(n); allow 5 sigma *)
      Float.abs (estimate -. exact) <= 5.0 *. 0.5 /. sqrt (float_of_int samples))

let prop_equal_is_structural =
  Test.make ~name:"hash-consed equal = structural equality" ~count:500
    ~print:(fun (a, b) -> print_formula a ^ " ; " ^ print_formula b)
    (Gen.pair formula_gen formula_gen)
    (fun (f1, f2) ->
      Formula.equal f1 f2 = structural_equal f1 f2
      && Formula.equal f1 f1
      && (Formula.compare f1 f2 = 0) = Formula.equal f1 f2)

let prop_cached_equals_uncached_prob =
  Test.make ~name:"Prob.Cache.compute = Prob.compute (exact floats)"
    ~count:300
    ~print:(fun fs -> String.concat " ; " (List.map print_formula fs))
    (Gen.list_size (Gen.int_range 1 8) formula_gen)
    (fun formulas ->
      (* One fresh cache and one env closure across the batch, so later
         formulas exercise result hits, BDD reuse and manager rebuilds. *)
      let cache = Prob.Cache.create () in
      let env = env_idx in
      List.for_all
        (fun formula ->
          Float.equal
            (Prob.Cache.compute cache env formula)
            (Prob.compute env formula))
        formulas
      (* and replay: every second pass must hit and return the same floats *)
      && List.for_all
           (fun formula ->
             Float.equal
               (Prob.Cache.compute cache env formula)
               (Prob.compute env formula))
           formulas)

(* [Prob.exact] as it stood with fixed-size tables (1024-slot unique,
   and and or tables, a 256-slot negation cache and a 256-slot
   probability memo), frozen verbatim. Table capacity cannot change a
   node id or the diagram's structure, so a manager sized from its
   formula must return the same floats bit for bit. *)
module Frozen_exact = struct
  type t = Leaf of bool | Node of { id : int; level : int; lo : t; hi : t }

  type manager = {
    unique : (int * int * int, t) Hashtbl.t;
    and_cache : (int * int, t) Hashtbl.t;
    or_cache : (int * int, t) Hashtbl.t;
    neg_cache : (int, t) Hashtbl.t;
    levels : (Var.t, int) Hashtbl.t;
    mutable level_vars : Var.t list;
    mutable next_id : int;
  }

  let node_id = function Leaf false -> 0 | Leaf true -> 1 | Node n -> n.id

  let level_of_var m v =
    match Hashtbl.find_opt m.levels v with
    | Some l -> l
    | None ->
        let l = Hashtbl.length m.levels in
        Hashtbl.add m.levels v l;
        m.level_vars <- v :: m.level_vars;
        l

  let manager order =
    let m =
      {
        unique = Hashtbl.create 1024;
        and_cache = Hashtbl.create 1024;
        or_cache = Hashtbl.create 1024;
        neg_cache = Hashtbl.create 256;
        levels = Hashtbl.create 64;
        level_vars = [];
        next_id = 2;
      }
    in
    List.iter (fun v -> ignore (level_of_var m v)) order;
    m

  let mk m level lo hi =
    if node_id lo = node_id hi then lo
    else
      let key = (level, node_id lo, node_id hi) in
      match Hashtbl.find_opt m.unique key with
      | Some n -> n
      | None ->
          let n = Node { id = m.next_id; level; lo; hi } in
          m.next_id <- m.next_id + 1;
          Hashtbl.add m.unique key n;
          n

  let rec neg m = function
    | Leaf b -> Leaf (not b)
    | Node n -> (
        match Hashtbl.find_opt m.neg_cache n.id with
        | Some r -> r
        | None ->
            let r = mk m n.level (neg m n.lo) (neg m n.hi) in
            Hashtbl.add m.neg_cache n.id r;
            r)

  let rec apply m cache op a b =
    match (a, b) with
    | Leaf x, Leaf y -> Leaf (op x y)
    | _ -> (
        let key = (node_id a, node_id b) in
        match Hashtbl.find_opt cache key with
        | Some r -> r
        | None ->
            let r =
              match (a, b) with
              | Leaf _, Leaf _ -> assert false
              | Node na, Node nb when na.level = nb.level ->
                  mk m na.level (apply m cache op na.lo nb.lo)
                    (apply m cache op na.hi nb.hi)
              | Node na, Node nb when na.level < nb.level ->
                  mk m na.level (apply m cache op na.lo b)
                    (apply m cache op na.hi b)
              | Node na, Leaf _ ->
                  mk m na.level (apply m cache op na.lo b)
                    (apply m cache op na.hi b)
              | _, Node nb ->
                  mk m nb.level (apply m cache op a nb.lo)
                    (apply m cache op a nb.hi)
            in
            Hashtbl.add cache key r;
            r)

  let conj m a b =
    match (a, b) with
    | Leaf false, _ | _, Leaf false -> Leaf false
    | Leaf true, f | f, Leaf true -> f
    | _ -> apply m m.and_cache ( && ) a b

  let disj m a b =
    match (a, b) with
    | Leaf true, _ | _, Leaf true -> Leaf true
    | Leaf false, f | f, Leaf false -> f
    | _ -> apply m m.or_cache ( || ) a b

  let rec of_formula m f =
    match Formula.view f with
    | Formula.True -> Leaf true
    | Formula.False -> Leaf false
    | Formula.Var v -> mk m (level_of_var m v) (Leaf false) (Leaf true)
    | Formula.Not g -> neg m (of_formula m g)
    | Formula.And gs ->
        List.fold_left (fun acc g -> conj m acc (of_formula m g)) (Leaf true) gs
    | Formula.Or gs ->
        List.fold_left (fun acc g -> disj m acc (of_formula m g)) (Leaf false) gs

  let probability m env root =
    let order = Array.of_list (List.rev m.level_vars) in
    let memo = Hashtbl.create 256 in
    let rec go = function
      | Leaf true -> 1.0
      | Leaf false -> 0.0
      | Node n -> (
          match Hashtbl.find_opt memo n.id with
          | Some p -> p
          | None ->
              let pv = env order.(n.level) in
              let p = ((1.0 -. pv) *. go n.lo) +. (pv *. go n.hi) in
              Hashtbl.add memo n.id p;
              p)
    in
    go root

  let exact env f =
    let m = manager (Formula.vars f) in
    probability m env (of_formula m f)
end

(* Formulas that are not read-once, shaped like derived lineages: a
   conjunction of base variables with the negated disjunction of
   partners that share some of its variables, or'ed with a random
   formula over the same pool. Pools of up to 40 variables make the
   sized tables grow past their initial capacity. *)
let repeated_formula_gen : Formula.t Gen.t =
  let open Gen in
  let* pool = int_range 2 40 in
  let var = map (fun i -> Formula.var (Var.make "v" i)) (int_range 1 pool) in
  let conj_of n = map Formula.conj (list_size (int_range 1 n) var) in
  let* lambda = conj_of 4 in
  let* partners = list_size (int_range 1 6) (conj_of 3) in
  let* extra = formula_gen in
  let* shape = int_range 0 2 in
  let negating = Formula.and_not lambda (Formula.disj partners) in
  return
    (match shape with
    | 0 -> negating
    | 1 -> Formula.disj [ negating; Formula.conj [ lambda; extra ] ]
    | _ -> Formula.conj [ Formula.disj [ lambda; extra ]; Formula.neg extra ])

let prop_exact_frozen =
  Test.make ~name:"Prob.exact = fixed-table exact (exact floats)" ~count:500
    ~print:print_formula repeated_formula_gen (fun formula ->
      let env v = 0.05 +. (0.9 *. Float.of_int (Var.idx v mod 17) /. 16.0) in
      assume (Option.is_none (Prob.read_once env formula));
      Float.equal (Prob.exact env formula) (Frozen_exact.exact env formula))

let prop_negation_complements =
  Test.make ~name:"P(f) + P(!f) = 1" ~count:300 ~print:print_formula
    formula_gen (fun formula ->
      let p = Prob.exact env_half formula
      and q = Prob.exact env_half (Formula.neg formula) in
      Float.abs (p +. q -. 1.0) < 1e-9)

let qcheck = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let suite =
  [
    Alcotest.test_case "var naming" `Quick test_var;
    Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
    Alcotest.test_case "parser / printer" `Quick test_parser_printer;
    Alcotest.test_case "eval / vars / size" `Quick test_eval_vars;
    Alcotest.test_case "normalize" `Quick test_normalize;
    Alcotest.test_case "substitute" `Quick test_substitute;
    Alcotest.test_case "hash-consing" `Quick test_hash_consing;
    Alcotest.test_case "bdd basics" `Quick test_bdd_basics;
    Alcotest.test_case "bdd equivalence" `Quick test_bdd_equivalence;
    Alcotest.test_case "bdd counting" `Quick test_bdd_counting;
    Alcotest.test_case "paper probabilities" `Quick test_probability_example;
    Alcotest.test_case "read-once detection" `Quick test_read_once;
    Alcotest.test_case "conditional probability" `Quick test_conditional;
    Alcotest.test_case "conditional rejects denormal evidence" `Quick
      test_conditional_denormal_evidence;
    Alcotest.test_case "unbound variable is typed" `Quick
      test_env_unbound_variable;
    Alcotest.test_case "monte carlo" `Quick test_monte_carlo;
    Alcotest.test_case "enumerate guard" `Quick test_enumerate_guard;
    qcheck prop_exact_matches_enumeration;
    qcheck prop_read_once_matches_exact;
    qcheck prop_normalize_preserves_semantics;
    qcheck prop_parser_roundtrip;
    qcheck prop_chain_rule;
    qcheck prop_monte_carlo_converges;
    qcheck prop_negation_complements;
    qcheck prop_equal_is_structural;
    qcheck prop_cached_equals_uncached_prob;
    qcheck prop_exact_frozen;
  ]

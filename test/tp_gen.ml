(* QCheck2 generators for small TP relations, sized so the quadratic
   oracles (Spec, and Oracle's joins, set operations and projection)
   stay fast. *)

module Interval = Tpdb_interval.Interval
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Theta = Tpdb_windows.Theta
open QCheck2

let horizon = 36

let interval : Interval.t Gen.t =
  let open Gen in
  let* ts = int_range 0 (horizon - 2) in
  let* duration = int_range 1 (min 8 (horizon - ts)) in
  return (Interval.make ts (ts + duration))

(* A chain of disjoint (possibly adjacent) intervals for one fact. *)
let chain : Interval.t list Gen.t =
  let open Gen in
  let* count = int_range 1 3 in
  let* start = int_range 0 12 in
  let rec build t k acc =
    if k = 0 then return (List.rev acc)
    else
      let* gap = int_range 0 3 in
      let* duration = int_range 1 6 in
      let ts = t + gap in
      build (ts + duration) (k - 1) (Interval.make ts (ts + duration) :: acc)
  in
  build start count []

let probability : float Gen.t =
  Gen.map (fun x -> 0.05 +. (0.9 *. x)) (Gen.float_bound_inclusive 1.0)

(* Facts are (key, sub): [keys] controls join selectivity, [sub] lets one
   key carry several distinct facts; with [nulls], [sub] may be null. *)
let relation_gen ?(keys = 3) ?(max_facts = 5) ?(nulls = false) ~name () :
    Relation.t Gen.t =
  let open Gen in
  let* n_facts = int_range 1 max_facts in
  let fact_gen =
    let* key = int_range 0 (keys - 1) in
    let* sub = int_range 0 (if nulls then 2 else 1) in
    return
      [ Printf.sprintf "k%d" key; (if sub = 2 then "" else Printf.sprintf "x%d" sub) ]
  in
  let* facts = list_repeat n_facts fact_gen in
  let facts = List.sort_uniq compare facts in
  let* rows_per_fact =
    flatten_l
      (List.map
         (fun fact ->
           let* intervals = chain in
           let* ps = list_repeat (List.length intervals) probability in
           return (List.map2 (fun iv p -> (fact, iv, p)) intervals ps))
         facts)
  in
  return
    (Relation.of_rows ~name ~columns:[ "K"; "Sub" ] ~tag:name
       (List.concat rows_per_fact))

let pair_gen ?keys ?max_facts ?nulls () : (Relation.t * Relation.t) Gen.t =
  Gen.pair
    (relation_gen ?keys ?max_facts ?nulls ~name:"r" ())
    (relation_gen ?keys ?max_facts ?nulls ~name:"s" ())

(* θs worth testing: key equality (hashable), full fact equality, an
   inequality (no equi-key: exercises the single-bucket path), and the
   always-true condition. *)
let fact_theta_gen : Theta.t Gen.t =
  Gen.oneofl
    [
      Theta.eq 0 0;
      Theta.conj (Theta.eq 0 0) (Theta.eq 1 1);
      Theta.of_atoms [ Theta.Cols (`Ne, 0, 0) ];
      Theta.of_atoms [ Theta.Cols (`Le, 0, 0) ];
      Theta.always;
    ]

(* The full θ space: every fact condition, possibly strengthened with an
   Allen temporal component (each of the 13 relations equally likely
   next to the plain overlap condition). *)
let theta_gen : Theta.t Gen.t =
  let open Gen in
  let* theta = fact_theta_gen in
  let* temporal =
    oneofl (`Overlap :: List.map (fun a -> `Allen a) Interval.all_allen)
  in
  return (Theta.with_temporal temporal theta)

let print_relation r = Format.asprintf "%a" Relation.pp r

let print_pair (r, s) = print_relation r ^ "\n" ^ print_relation s

let print_triple (theta, r, s) =
  Printf.sprintf "theta: %s\n%s\n%s" (Theta.to_string theta) (print_relation r)
    (print_relation s)

(* With [nulls], the Sub column may be null (see [relation_gen]), so a
   θ with [Theta.eq 1 1] meets null keys, which [=] never matches. *)
let scenario_gen ?keys ?max_facts ?nulls () :
    (Theta.t * Relation.t * Relation.t) Gen.t =
  Gen.map
    (fun (theta, (r, s)) -> (theta, r, s))
    (Gen.pair theta_gen (pair_gen ?keys ?max_facts ?nulls ()))

module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact

(* Pair-level temporal component of θ, evaluated against the spanning
   tuple's full interval. [`Overlap] needs no extra check here: λ is only
   consulted for time points where both tuples are valid, which implies a
   shared point. *)
let temporal_ok theta riv siv =
  match Theta.temporal theta with
  | `Overlap -> true
  | `Allen rel -> Interval.allen riv siv = rel

let lambda_s_theta ~theta ~s ~riv rfact t =
  let lineages =
    List.filter_map
      (fun s_tuple ->
        if
          Tuple.valid_at s_tuple t
          && Theta.matches theta rfact (Tuple.fact s_tuple)
          && temporal_ok theta riv (Tuple.iv s_tuple)
        then Some (Tuple.lineage s_tuple)
        else None)
      (Relation.tuples s)
  in
  match lineages with [] -> None | _ -> Some (Formula.disj lineages)

let formula_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Formula.equal (Formula.normalize x) (Formula.normalize y)
  | None, Some _ | Some _, None -> false

(* Maximal runs of equal λ^{s,θ}_t inside one r tuple's interval. *)
let runs_of_tuple ~theta ~s r_tuple =
  let rspan = Tuple.iv r_tuple in
  let states =
    List.of_seq
      (Seq.map
         (fun t ->
           (t, lambda_s_theta ~theta ~s ~riv:rspan (Tuple.fact r_tuple) t))
         (Interval.points rspan))
  in
  let rec group = function
    | [] -> []
    | (t, state) :: rest ->
        let rec extend last = function
          | (t', state') :: rest' when formula_opt_equal state state' ->
              extend t' rest'
          | remaining -> (last, remaining)
        in
        let last, remaining = extend t rest in
        (Interval.make t (last + 1), state) :: group remaining
  in
  group states

let per_tuple_windows ~theta r s =
  List.concat_map
    (fun r_tuple ->
      let fr = Tuple.fact r_tuple
      and lr = Tuple.lineage r_tuple
      and rspan = Tuple.iv r_tuple in
      List.map
        (fun (iv, state) ->
          match state with
          | None -> Window.unmatched ~fr ~iv ~lr ~rspan ()
          | Some ls -> Window.negating ~fr ~iv ~lr ~ls ~rspan ())
        (runs_of_tuple ~theta ~s r_tuple))
    (Relation.tuples r)

let overlapping_windows ~theta r s =
  List.concat_map
    (fun r_tuple ->
      List.filter_map
        (fun s_tuple ->
          if
            Theta.matches theta (Tuple.fact r_tuple) (Tuple.fact s_tuple)
            && temporal_ok theta (Tuple.iv r_tuple) (Tuple.iv s_tuple)
          then
            Interval.intersect (Tuple.iv r_tuple) (Tuple.iv s_tuple)
            |> Option.map (fun iv ->
                   Window.overlapping ~fr:(Tuple.fact r_tuple)
                     ~fs:(Tuple.fact s_tuple) ~iv ~lr:(Tuple.lineage r_tuple)
                     ~ls:(Tuple.lineage s_tuple) ~rspan:(Tuple.iv r_tuple)
                     ~sspan:(Tuple.iv s_tuple) ())
          else None)
        (Relation.tuples s))
    (Relation.tuples r)
  |> List.sort Window.compare_group_start

let unmatched_windows ~theta r s =
  per_tuple_windows ~theta r s
  |> List.filter (fun w -> Window.kind w = Window.Unmatched)
  |> List.sort Window.compare_group_start

let negating_windows ~theta r s =
  per_tuple_windows ~theta r s
  |> List.filter (fun w -> Window.kind w = Window.Negating)
  |> List.sort Window.compare_group_start

let windows ~theta r s =
  overlapping_windows ~theta r s @ per_tuple_windows ~theta r s
  |> List.sort Window.compare_group_start

let lineage_matches expected actual =
  Formula.equal (Formula.normalize expected) (Formula.normalize actual)

let spanning_tuples r w =
  List.filter
    (fun tp ->
      Fact.equal (Tuple.fact tp) (Window.fr w)
      && lineage_matches (Tuple.lineage tp) (Window.lr w))
    (Relation.tuples r)

let valid_spanning_at r w t = List.exists (fun tp -> Tuple.valid_at tp t) (spanning_tuples r w)

let is_overlapping_window ~theta r s w =
  Window.kind w = Window.Overlapping
  && List.exists
       (fun r_tuple ->
         Fact.equal (Tuple.fact r_tuple) (Window.fr w)
         && lineage_matches (Tuple.lineage r_tuple) (Window.lr w)
         && List.exists
              (fun s_tuple ->
                Some (Tuple.fact s_tuple) = Window.fs w
                && (match Window.ls w with
                   | Some ls -> lineage_matches (Tuple.lineage s_tuple) ls
                   | None -> false)
                && Theta.matches theta (Tuple.fact r_tuple) (Tuple.fact s_tuple)
                && temporal_ok theta (Tuple.iv r_tuple) (Tuple.iv s_tuple)
                && Interval.intersect (Tuple.iv r_tuple) (Tuple.iv s_tuple)
                   = Some (Window.iv w))
              (Relation.tuples s))
       (Relation.tuples r)

let boundary_fails ~theta r s w expected_state t' =
  (* Table I maximality: at each boundary point, either no spanning r tuple
     is valid or λ^{s,θ} differs from the window's λs. *)
  (not (valid_spanning_at r w t'))
  || not
       (formula_opt_equal expected_state
          (lambda_s_theta ~theta ~s ~riv:(Window.rspan w) (Window.fr w) t'))

let is_unmatched_window ~theta r s w =
  Window.kind w = Window.Unmatched
  && Window.fs w = None
  && Window.ls w = None
  && Seq.for_all
       (fun t ->
         valid_spanning_at r w t
         && lambda_s_theta ~theta ~s ~riv:(Window.rspan w) (Window.fr w) t
            = None)
       (Interval.points (Window.iv w))
  && boundary_fails ~theta r s w None (Interval.ts (Window.iv w) - 1)
  && boundary_fails ~theta r s w None (Interval.te (Window.iv w))

let is_negating_window ~theta r s w =
  Window.kind w = Window.Negating
  && Window.fs w = None
  &&
  match Window.ls w with
  | None -> false
  | Some ls ->
      Seq.for_all
        (fun t ->
          valid_spanning_at r w t
          &&
          match
            lambda_s_theta ~theta ~s ~riv:(Window.rspan w) (Window.fr w) t
          with
          | Some actual -> lineage_matches ls actual
          | None -> false)
        (Interval.points (Window.iv w))
      && boundary_fails ~theta r s w (Some ls) (Interval.ts (Window.iv w) - 1)
      && boundary_fails ~theta r s w (Some ls) (Interval.te (Window.iv w))

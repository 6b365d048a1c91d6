module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Prob = Tpdb_lineage.Prob
module Theta = Tpdb_windows.Theta
module Window = Tpdb_windows.Window
module Overlap = Tpdb_windows.Overlap
module Concat = Tpdb_joins.Concat

let default_algorithm : Overlap.algorithm = `Nested_loop

(* Pass 1: the conventional outer join (overlapping pairs plus spanning
   unmatched windows for never-matched r tuples). *)
let pass1 ~algorithm ~theta r s =
  List.of_seq (Overlap.left ~algorithm ~theta r s)

(* Pass 2: align every r tuple (second execution of the join), then let
   every replica re-scan its match list — TA's redundant interval
   comparisons — to classify itself as unmatched or negating. *)
let pass2 ~algorithm ~theta r s =
  List.concat_map
    (fun (r_tuple, matches, segments) ->
      let fr = Tuple.fact r_tuple
      and lr = Tuple.lineage r_tuple
      and rspan = Tuple.iv r_tuple in
      List.map
        (fun segment ->
          let covering =
            List.filter
              (fun m -> Interval.covers (Tuple.iv m) segment)
              matches
          in
          match covering with
          | [] -> Window.unmatched ~fr ~iv:segment ~lr ~rspan ()
          | _ ->
              Window.negating ~fr ~iv:segment ~lr
                ~ls:(Formula.disj (List.map Tuple.lineage covering))
                ~rspan ())
        segments)
    (Align.replicate ~algorithm ~theta r s)

(* The unmatched-only variant of pass 2, used when no negating windows are
   requested (Fig. 5's WUO experiment): the join is still executed a second
   time, but each tuple only needs its coverage gaps, not the per-replica
   λs aggregation. *)
let pass2_unmatched ~algorithm ~theta r s =
  let probe = Overlap.prober ~algorithm ~theta s in
  List.concat_map
    (fun r_tuple ->
      let within = Tuple.iv r_tuple in
      let covered =
        List.filter_map
          (fun m -> Interval.intersect within (Tuple.iv m))
          (probe r_tuple)
      in
      List.map
        (fun gap ->
          Window.unmatched ~fr:(Tuple.fact r_tuple) ~iv:gap
            ~lr:(Tuple.lineage r_tuple) ~rspan:within ())
        (Tpdb_interval.Timeline.gaps ~within covered))
    (Relation.tuples r)

(* The de-duplicating union of sub-results: unmatched windows computed by
   both passes must collapse to one. *)
let union_dedup window_lists =
  let sorted = List.sort Window.compare_group_start (List.concat window_lists) in
  let rec uniq = function
    | a :: (b :: _ as rest) ->
        if Window.compare_group_start a b = 0 then uniq rest else a :: uniq rest
    | short -> short
  in
  uniq sorted

let keep kind ws = List.filter (fun w -> Window.kind w = kind) ws

let windows_wuo ?(algorithm = default_algorithm) ~theta r s =
  let first = pass1 ~algorithm ~theta r s in
  let second = pass2_unmatched ~algorithm ~theta r s in
  union_dedup [ first; second ]

let windows_wuon ?(algorithm = default_algorithm) ~theta r s =
  let first = pass1 ~algorithm ~theta r s in
  let second = pass2 ~algorithm ~theta r s in
  union_dedup [ first; second ]

let env_default env r s =
  match env with Some e -> e | None -> Relation.prob_env [ r; s ]

let anti ?(algorithm = default_algorithm) ?env ~theta r s =
  let env = env_default env r s in
  let tuples =
    windows_wuon ~algorithm ~theta r s
    |> List.filter (fun w -> Window.kind w <> Window.Overlapping)
    |> List.map
         (Concat.tuple_of_set_window ~prob:(Prob.compute env) ~kind:`Except)
  in
  let schema =
    Schema.rename
      (Relation.name r ^ "_anti_" ^ Relation.name s)
      (Relation.schema r)
  in
  Relation.of_tuples schema tuples

let left_outer ?(algorithm = default_algorithm) ?env ~theta r s =
  let env = env_default env r s in
  let pad = Schema.arity (Relation.schema s) in
  let tuples =
    windows_wuon ~algorithm ~theta r s
    |> List.map (Concat.tuple_of_window ~prob:(Prob.compute env) ~side:Concat.Left ~pad)
  in
  Relation.of_tuples (Schema.join (Relation.schema r) (Relation.schema s)) tuples

(* The s side of right/full outer joins: the same two passes run on the
   swapped inputs — TA re-executes the join rather than reusing pass 1. *)
let right_side ~algorithm ~env ~pad_left ~theta r s =
  pass2 ~algorithm ~theta:(Theta.swap theta) s r
  |> List.map (Concat.tuple_of_window ~prob:(Prob.compute env) ~side:Concat.Right ~pad:pad_left)

let right_outer ?(algorithm = default_algorithm) ?env ~theta r s =
  let env = env_default env r s in
  let pad_r = Schema.arity (Relation.schema r) in
  let pad_s = Schema.arity (Relation.schema s) in
  let pairs =
    pass1 ~algorithm ~theta r s
    |> keep Window.Overlapping
    |> List.map (Concat.tuple_of_window ~prob:(Prob.compute env) ~side:Concat.Left ~pad:pad_s)
  in
  let gaps = right_side ~algorithm ~env ~pad_left:pad_r ~theta r s in
  Relation.of_tuples
    (Schema.join (Relation.schema r) (Relation.schema s))
    (pairs @ gaps)

let full_outer ?(algorithm = default_algorithm) ?env ~theta r s =
  let env = env_default env r s in
  let pad_r = Schema.arity (Relation.schema r) in
  let pad_s = Schema.arity (Relation.schema s) in
  let left =
    windows_wuon ~algorithm ~theta r s
    |> List.map (Concat.tuple_of_window ~prob:(Prob.compute env) ~side:Concat.Left ~pad:pad_s)
  in
  let gaps = right_side ~algorithm ~env ~pad_left:pad_r ~theta r s in
  Relation.of_tuples
    (Schema.join (Relation.schema r) (Relation.schema s))
    (left @ gaps)

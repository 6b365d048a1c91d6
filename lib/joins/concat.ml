module Formula = Tpdb_lineage.Formula
module Prob = Tpdb_lineage.Prob
module Fact = Tpdb_relation.Fact
module Tuple = Tpdb_relation.Tuple
module Window = Tpdb_windows.Window
module Metrics = Tpdb_obs.Metrics

(* [Formula.size] walks the formula, so guard on the sink before paying
   for it — the flat check the rest of the instrumentation also uses. *)
let count_lineage lineage =
  if Metrics.enabled () then
    Metrics.add Metrics.Lineage_nodes (Formula.size lineage)

let output_lineage w =
  match (Window.kind w, Window.ls w) with
  | Window.Overlapping, Some ls -> Formula.( &&& ) (Window.lr w) ls
  | Window.Unmatched, None -> Window.lr w
  | Window.Negating, Some ls -> Formula.and_not (Window.lr w) ls
  | (Window.Overlapping | Window.Unmatched | Window.Negating), _ ->
      invalid_arg "Concat.output_lineage: malformed window"

type side = Left | Right

let output_fact ~side ~pad w =
  match (Window.kind w, side) with
  | Window.Overlapping, Left -> (
      match Window.fs w with
      | Some fs -> Fact.concat (Window.fr w) fs
      | None -> invalid_arg "Concat: overlapping window without fs")
  | Window.Overlapping, Right ->
      invalid_arg "Concat: overlapping window on the right pass"
  | (Window.Unmatched | Window.Negating), Left ->
      Fact.concat (Window.fr w) (Fact.nulls pad)
  | (Window.Unmatched | Window.Negating), Right ->
      Fact.concat (Fact.nulls pad) (Window.fr w)

let p_of ~prob w lineage =
  let p = Window.p w in
  if Float.is_nan p then prob lineage else p

let tuple_of_window ~prob ~side ~pad w =
  let lineage = output_lineage w in
  count_lineage lineage;
  Tuple.make
    ~fact:(output_fact ~side ~pad w)
    ~lineage ~iv:(Window.iv w) ~p:(p_of ~prob w lineage)

let set_lineage kind w =
  match (kind, Window.kind w, Window.ls w) with
  | `Union, Window.Overlapping, Some ls -> Formula.( ||| ) (Window.lr w) ls
  | `Intersect, Window.Overlapping, _
  | `Union, Window.Unmatched, _
  | `Except, (Window.Unmatched | Window.Negating), _ ->
      output_lineage w
  | (`Union | `Intersect | `Except), _, _ ->
      invalid_arg "Concat.tuple_of_set_window: window not of this operation"

let tuple_of_set_window ~prob ~kind w =
  let lineage = set_lineage kind w in
  count_lineage lineage;
  Tuple.make ~fact:(Window.fr w) ~lineage ~iv:(Window.iv w)
    ~p:(p_of ~prob w lineage)

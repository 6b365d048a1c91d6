module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Grouping = Tpdb_engine.Grouping
module Sweep = Tpdb_engine.Sweep

(* The sweep over one group's overlapping windows: every maximal segment
   with a constant, non-empty set of valid matching s tuples becomes a
   negating window whose λs lists the lineages in arrival order, matching
   the paper's examples (b3 ∨ b2 in Fig. 1b). The group's windows are
   start-sorted, so the Sweep.Source start-order precondition holds by
   construction. *)
let negating_of_group group =
  let overlapping =
    List.filter_map
      (fun w ->
        match (Window.kind w, Window.ls w) with
        | Window.Overlapping, Some ls -> Some (Window.iv w, ls)
        | (Window.Overlapping | Window.Unmatched | Window.Negating), _ -> None)
      group
  in
  match group with
  | [] -> []
  | first :: _ ->
      let fr = Window.fr first
      and lr = Window.lr first
      and rspan = Window.rspan first in
      Sweep.constant_segments (Sweep.Source.of_list overlapping)
      |> List.map (fun (iv, lineages) ->
             Tpdb_obs.Metrics.incr Tpdb_obs.Metrics.Windows_negating;
             Window.negating ~fr ~iv ~lr ~ls:(Formula.disj lineages) ~rspan ())

let extend_group group =
  let negs = negating_of_group group in
  List.merge
    (fun a b -> Interval.compare_start (Window.iv a) (Window.iv b))
    group negs

let extend ?(sanitize = false) stream =
  let extended =
    Grouping.map_runs ~same:Window.same_group extend_group stream
  in
  if sanitize then Invariant.wrap ~stage:Invariant.Wuon extended else extended

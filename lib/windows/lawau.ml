module Interval = Tpdb_interval.Interval
module Grouping = Tpdb_engine.Grouping

let extend_group group =
  match group with
  | [] -> []
  | first :: _ ->
      let rspan = Window.rspan first in
      let fr = Window.fr first and lr = Window.lr first in
      let gap cursor upto =
        Interval.make_opt cursor upto
        |> Option.map (fun iv ->
               Tpdb_obs.Metrics.incr Tpdb_obs.Metrics.Windows_unmatched;
               Window.unmatched ~fr ~iv ~lr ~rspan ())
      in
      let rec sweep cursor acc = function
        | [] ->
            let acc =
              match gap cursor (Interval.te rspan) with
              | Some w -> w :: acc
              | None -> acc
            in
            List.rev acc
        | w :: rest ->
            let iv = Window.iv w in
            let acc =
              match gap cursor (Interval.ts iv) with
              | Some g -> w :: g :: acc
              | None -> w :: acc
            in
            sweep (max cursor (Interval.te iv)) acc rest
      in
      sweep (Interval.ts rspan) [] group

let extend ?(sanitize = false) stream =
  let extended =
    Grouping.map_runs ~same:Window.same_group extend_group stream
  in
  if sanitize then Invariant.wrap ~stage:Invariant.Wuo extended else extended

module Interval = Tpdb_interval.Interval
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Hash_partition = Tpdb_engine.Hash_partition
module Metrics = Tpdb_obs.Metrics

type algorithm = [ `Hash | `Nested_loop ]

(* One r tuple against its match list: the overlapping windows sorted by
   interval, or a single spanning unmatched window when nothing matches. *)
let windows_of_probe r_tuple matches =
  let fr = Tuple.fact r_tuple
  and lr = Tuple.lineage r_tuple
  and rspan = Tuple.iv r_tuple in
  match matches with
  | [] ->
      Metrics.incr Metrics.Windows_unmatched;
      [ Window.unmatched ~fr ~iv:rspan ~lr ~rspan () ]
  | _ ->
      let with_iv =
        List.filter_map
          (fun s_tuple ->
            Interval.intersect rspan (Tuple.iv s_tuple)
            |> Option.map (fun iv -> (iv, s_tuple)))
          matches
      in
      let sorted =
        List.sort
          (fun (ia, sa) (ib, sb) ->
            let c = Interval.compare ia ib in
            if c <> 0 then c else Tuple.compare_fact_start sa sb)
          with_iv
      in
      List.map
        (fun (iv, s_tuple) ->
          Metrics.incr Metrics.Windows_overlapping;
          Window.overlapping ~fr ~fs:(Tuple.fact s_tuple) ~iv ~lr
            ~ls:(Tuple.lineage s_tuple) ~rspan ~sspan:(Tuple.iv s_tuple) ())
        sorted

let prober ?(algorithm = `Hash) ~theta s =
  let s_tuples = Relation.tuples s in
  (* A pair forms a window iff it shares a time point, satisfies θ's
     temporal component over the full tuple intervals, and fact-matches
     the residual atoms. [residual] keeps the temporal component of the
     θ it was derived from, so one value carries both checks. *)
  let pair_matches residual r_tuple s_tuple =
    Interval.overlaps (Tuple.iv r_tuple) (Tuple.iv s_tuple)
    && Theta.temporal_matches residual (Tuple.iv r_tuple) (Tuple.iv s_tuple)
    && Theta.matches residual (Tuple.fact r_tuple) (Tuple.fact s_tuple)
  in
  match (algorithm, Theta.equi_keys theta) with
  | `Hash, Some (left_cols, right_cols) ->
      let partition =
        Hash_partition.build
          ~key:(fun tp -> Fact.key right_cols (Tuple.fact tp))
          ~hash:Fact.hash ~equal:Fact.equal s_tuples
      in
      let residual = Theta.residual theta in
      fun r_tuple ->
        let key = Fact.key left_cols (Tuple.fact r_tuple) in
        if Array.exists Tpdb_relation.Value.is_null key then []
        else
          List.filter (pair_matches residual r_tuple)
            (Hash_partition.probe partition key)
  | (`Hash | `Nested_loop), _ ->
      fun r_tuple -> List.filter (pair_matches theta r_tuple) s_tuples

let left ?algorithm ~theta r s =
  let probe = prober ?algorithm ~theta s in
  Seq.concat_map
    (fun r_tuple -> List.to_seq (windows_of_probe r_tuple (probe r_tuple)))
    (List.to_seq (Relation.sorted_by_fact_start r))

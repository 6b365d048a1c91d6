module Interval = Tpdb_interval.Interval
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Hash_partition = Tpdb_engine.Hash_partition
module Metrics = Tpdb_obs.Metrics

type algorithm = [ `Flat | `Hash | `Merge | `Index | `Nested_loop ]

type right_tracker = {
  s_tuples : Tuple.t array;
  matched : bool array;
  mutable drained : bool;
}

(* One r tuple against its sorted match list: the overlapping windows, or a
   single spanning unmatched window when nothing matches. *)
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

let probe_fn ?(algorithm = `Hash) ~theta s_indexed =
  let build_partition right_cols =
    Hash_partition.build
      ~key:(fun (_, tp) -> Fact.key right_cols (Tuple.fact tp))
      ~hash:Fact.hash ~equal:Fact.equal s_indexed
  in
  (* A pair forms a window iff it shares a time point, satisfies θ's
     temporal component over the full tuple intervals, and fact-matches
     the residual atoms. [residual] keeps the temporal component of the
     θ it was derived from, so one value carries both checks. *)
  let pair_matches residual r_tuple s_tuple =
    Interval.overlaps (Tuple.iv r_tuple) (Tuple.iv s_tuple)
    && Theta.temporal_matches residual (Tuple.iv r_tuple) (Tuple.iv s_tuple)
    && Theta.matches residual (Tuple.fact r_tuple) (Tuple.fact s_tuple)
  in
  let overlap_filter residual r_tuple candidates =
    List.filter (fun (_, s_tuple) -> pair_matches residual r_tuple s_tuple) candidates
  in
  (* [`Merge]: candidates sorted by start; stop at the first candidate
     starting at or after the probe's end point. *)
  let sorted_scan residual r_tuple candidates =
    let rte = Interval.te (Tuple.iv r_tuple) in
    let rec scan acc = function
      | [] -> List.rev acc
      | ((_, s_tuple) as entry) :: rest ->
          if Interval.ts (Tuple.iv s_tuple) >= rte then List.rev acc
          else
            scan
              (if pair_matches residual r_tuple s_tuple then entry :: acc
               else acc)
              rest
    in
    scan [] candidates
  in
  let sort_by_start entries =
    List.sort
      (fun (_, a) (_, b) -> Interval.compare (Tuple.iv a) (Tuple.iv b))
      entries
  in
  match (algorithm, Theta.equi_keys theta) with
  (* [`Flat] is dispatched to Flat_join by Nj before reaching here; a
     direct caller (the TA baseline) gets the hash-partitioned probe. *)
  | (`Hash | `Flat), Some (left_cols, right_cols) ->
      let partition = build_partition right_cols in
      let residual = Theta.residual theta in
      fun r_tuple ->
        let key = Fact.key left_cols (Tuple.fact r_tuple) in
        if Array.exists Tpdb_relation.Value.is_null key then []
        else overlap_filter residual r_tuple (Hash_partition.probe partition key)
  | `Merge, Some (left_cols, right_cols) ->
      let partition = build_partition right_cols in
      Hash_partition.map_buckets sort_by_start partition;
      let residual = Theta.residual theta in
      fun r_tuple ->
        let key = Fact.key left_cols (Tuple.fact r_tuple) in
        if Array.exists Tpdb_relation.Value.is_null key then []
        else sorted_scan residual r_tuple (Hash_partition.probe partition key)
  | `Merge, None ->
      let sorted = sort_by_start s_indexed in
      fun r_tuple -> sorted_scan theta r_tuple sorted
  | `Index, Some (left_cols, right_cols) ->
      let partition = build_partition right_cols in
      (* One interval tree per bucket, built up front and probed through
         a second key-partition (the tree is the single bucket element). *)
      let trees =
        Hash_partition.build
          ~key:(fun (key, _) -> key)
          ~hash:Fact.hash ~equal:Fact.equal
          (List.map
             (fun (key, bucket) ->
               ( key,
                 Tpdb_engine.Interval_tree.build
                   (fun (_, tp) -> Tuple.iv tp)
                   bucket ))
             (Hash_partition.buckets partition))
      in
      let residual = Theta.residual theta in
      fun r_tuple ->
        let key = Fact.key left_cols (Tuple.fact r_tuple) in
        if Array.exists Tpdb_relation.Value.is_null key then []
        else
          (match Hash_partition.probe trees key with
          | [] -> []
          | (_, tree) :: _ ->
              Tpdb_engine.Interval_tree.overlapping tree (Tuple.iv r_tuple)
              |> List.filter (fun (_, s_tuple) ->
                     Theta.temporal_matches residual (Tuple.iv r_tuple)
                       (Tuple.iv s_tuple)
                     && Theta.matches residual (Tuple.fact r_tuple)
                          (Tuple.fact s_tuple)))
  | `Index, None ->
      let tree =
        Tpdb_engine.Interval_tree.build (fun (_, tp) -> Tuple.iv tp) s_indexed
      in
      fun r_tuple ->
        Tpdb_engine.Interval_tree.overlapping tree (Tuple.iv r_tuple)
        |> List.filter (fun (_, s_tuple) ->
               Theta.temporal_matches theta (Tuple.iv r_tuple)
                 (Tuple.iv s_tuple)
               && Theta.matches theta (Tuple.fact r_tuple)
                    (Tuple.fact s_tuple))
  | (`Nested_loop | `Hash | `Flat), _ ->
      fun r_tuple -> overlap_filter theta r_tuple s_indexed

let prober ?algorithm ~theta s =
  let s_indexed = List.mapi (fun i tp -> (i, tp)) (Relation.tuples s) in
  let probe = probe_fn ?algorithm ~theta s_indexed in
  fun r_tuple -> List.map snd (probe r_tuple)

let left_with ?algorithm ~theta ~mark r s =
  let s_indexed = List.mapi (fun i tp -> (i, tp)) (Relation.tuples s) in
  let probe = probe_fn ?algorithm ~theta s_indexed in
  let r_sorted = Relation.sorted_by_fact_start r in
  Seq.concat_map
    (fun r_tuple ->
      let matches = probe r_tuple in
      List.iter (fun (i, _) -> mark i) matches;
      List.to_seq (windows_of_probe r_tuple (List.map snd matches)))
    (List.to_seq r_sorted)

let checked ~sanitize ~theta stream =
  if sanitize then Invariant.wrap ~stage:Invariant.Overlap ~theta stream
  else stream

let left ?algorithm ?(sanitize = false) ~theta r s =
  checked ~sanitize ~theta (left_with ?algorithm ~theta ~mark:ignore r s)

let left_tracking ?algorithm ?(sanitize = false) ~theta r s =
  let s_tuples = Relation.to_array s in
  let tracker =
    {
      s_tuples;
      matched = Array.make (Array.length s_tuples) false;
      drained = false;
    }
  in
  let stream =
    let body =
      checked ~sanitize ~theta
        (left_with ?algorithm ~theta
           ~mark:(fun i -> tracker.matched.(i) <- true)
           r s)
    in
    Seq.append body
      (fun () ->
        tracker.drained <- true;
        Seq.Nil)
  in
  (stream, tracker)

let unmatched_right tracker =
  if not tracker.drained then
    invalid_arg "Overlap.unmatched_right: main stream not yet drained";
  let unmatched =
    List.filter_map
      (fun i ->
        if tracker.matched.(i) then None
        else begin
          Metrics.incr Metrics.Windows_unmatched;
          let tp = tracker.s_tuples.(i) in
          Some
            (Window.unmatched ~fr:(Tuple.fact tp) ~iv:(Tuple.iv tp)
               ~lr:(Tuple.lineage tp) ~rspan:(Tuple.iv tp) ())
        end)
      (List.init (Array.length tracker.s_tuples) Fun.id)
  in
  List.to_seq (List.sort Window.compare_group_start unmatched)

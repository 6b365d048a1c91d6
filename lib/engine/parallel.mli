(** Domain-parallel partitioned execution of equi joins.

    The sweeping window algorithms compute each equi-key group
    independently, so an equi-θ join parallelizes by sharding {e both}
    inputs on the join key into [P] partitions, running the full sweep
    per partition on separate domains ({!Pool}), and merging the
    per-partition output streams back into one.

    The merge is deterministic and order-preserving: every stream is a
    concatenation of {e groups} (runs of elements that compare equal
    under [compare_group]), groups are emitted in ascending group order,
    ties prefer the lower partition id, and the elements of a group keep
    their within-partition order. Because equal keys hash to the same
    partition, a group never spans two partitions — so when the
    sequential operator emits groups in ascending [compare_group] order,
    the merged parallel stream is {e identical} to the sequential one,
    element for element. *)

val bucket_of : partitions:int -> int -> int
(** The bucketing function of {!shard2}: [hash] to a partition index in
    [\[0, partitions)], ignoring the sign bit. Exposed so the
    out-of-core spill partitioner shards exactly like the in-RAM
    executor — the determinism argument of the merged output depends on
    both paths agreeing on it. *)

val shard2 :
  partitions:int ->
  left_key:('r -> int) ->
  right_key:('s -> int) ->
  'r list ->
  's list ->
  ('r list * 's list) array
(** Buckets both inputs by key hash modulo [partitions] (clamped to at
    least 1), preserving input order inside every bucket. Items with
    equal hashes land in the same bucket, on both sides. *)

val map : pool:Pool.t -> ('a -> 'b) -> 'a array -> 'b array
(** {!Pool.map} over an array, preserving order. *)

val merge_grouped :
  ?check:('w -> 'w -> unit) ->
  compare_group:('w -> 'w -> int) ->
  'w array array ->
  'w array
(** K-way merge of per-partition streams under the contract above, a
    heap over one cursor per stream. Each input array must have its
    groups in nondecreasing [compare_group] order; elements of one group
    must not occur in two arrays. The result is a fresh array (inputs
    are not modified). [?check] is called on every adjacent pair of the
    merged result — a sanitizer hook that can assert the
    nondecreasing-group postcondition. *)

val equi_join :
  ?check:('w -> 'w -> unit) ->
  pool:Pool.t ->
  partitions:int ->
  left_key:('r -> int) ->
  right_key:('s -> int) ->
  sweep:('r list -> 's list -> 'w list) ->
  compare_group:('w -> 'w -> int) ->
  'r list ->
  's list ->
  'w list
(** [shard2], then [sweep] per partition on the pool, then
    [merge_grouped]: the whole partitioned-join pipeline in one call. *)

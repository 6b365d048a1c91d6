(** Hash partitioning on join keys.

    The build side of the overlap join: [s] tuples are bucketed by their
    equi-join key so that each [r] tuple probes only θ-compatible
    candidates. With no equi-key the single-bucket degenerate case gives
    the nested-loop behaviour the paper attributes to TA's plans. *)

type ('k, 'a) t

val build :
  key:('a -> 'k) ->
  hash:('k -> int) ->
  equal:('k -> 'k -> bool) ->
  'a list ->
  ('k, 'a) t
(** Bucket order within a key follows input order. *)

val probe : ('k, 'a) t -> 'k -> 'a list
(** Empty list for absent keys. *)

val buckets : ('k, 'a) t -> ('k * 'a list) list
val size : ('k, 'a) t -> int
(** Number of distinct keys. *)

(** Array-based binary min-heap.

    The paper's LAWAN keeps the ending points of the valid [s] tuples of
    the current group in a priority queue to determine the ending point
    of each sweeping window (§III-C); {!Sweep} does the same for
    projection and aggregation. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> unit -> 'a t
val push : 'a t -> 'a -> unit
val peek : 'a t -> 'a option
val pop : 'a t -> 'a option
val is_empty : 'a t -> bool
val size : 'a t -> int
val clear : 'a t -> unit

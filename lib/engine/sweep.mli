(** The generic interval sweep underlying the TP projection and
    sequenced aggregation operators (LAWAN's sweep, over arbitrary
    payloads).

    Input is a {!Source.t} — endpoints unboxed into start-sorted int
    arrays with payloads in a parallel array, the same flat layout as
    {!Flat}. The sweep visits the start and end points in temporal order
    and emits one segment per maximal run of time points whose set of
    covering items is constant and non-empty. Payloads are listed in
    arrival (start) order — the order the paper's examples use for
    lineage disjunctions like [b3 ∨ b2]. Upcoming ending points are
    scheduled with a priority queue, as in the paper.

    Start-sortedness is the constructor's precondition. {!Source.of_list}
    always asserts it (the list is being copied anyway) and raises
    [Invalid_argument] on unsorted input; the zero-copy
    {!Source.of_arrays} asserts it only under [TPDB_SANITIZE=1], keeping
    the hot path branch-free by default. *)

module Interval = Tpdb_interval.Interval

module Source : sig
  type 'a t

  val of_list : (Interval.t * 'a) list -> 'a t
  (** Must be sorted by interval start; raises [Invalid_argument]
      otherwise. *)

  val of_arrays : ts:int array -> te:int array -> payload:'a array -> len:int -> 'a t
  (** Wraps the first [len] elements of three parallel arrays without
      copying; [ts] must be ascending (asserted under
      [TPDB_SANITIZE=1]). *)

  val length : 'a t -> int
end

val constant_segments : 'a Source.t -> (Interval.t * 'a list) list
(** Output segments are disjoint, in temporal order, and their union is
    exactly the union of the input intervals. *)

(** The flat struct-of-arrays sweep core.

    A {!t} lays a start-sorted run of intervals out as two unboxed int
    arrays (start points, end points); probes walk them with index
    arithmetic — one binary search for the candidate start range, one
    end-point comparison per candidate — instead of chasing a `Seq` of
    boxed records. Payloads (tuples, lineages, original positions) live
    in parallel arrays owned by the caller, indexed by the same
    positions.

    {!window_range}/{!end_matches} form the extended-Allen probe kernel
    (after Piatov et al., arXiv:2008.12665): for each of the 13 Allen
    relations, plus the classic [`Overlap], the window-producing matches
    of a probe interval are exactly a contiguous start-array range
    filtered by a predicate on the end point alone:

    {v
    relation r REL s     start range (by s.ts)    end predicate (s.te)
    ─────────────────    ─────────────────────    ────────────────────
    overlap              [0, lb rte)              te > rts
    equals               [lb rts, ub rts)         te = rte
    starts               [lb rts, ub rts)         te > rte
    started_by           [lb rts, ub rts)         te < rte
    during               [0, lb rts)              te > rte
    contains             (ub rts, lb rte)         te < rte
    overlaps             (ub rts, lb rte)         te > rte
    overlapped_by        [0, lb rts)              rts < te < rte
    finishes             [0, lb rts)              te = rte
    finished_by          (ub rts, lb rte)         te = rte
    before/meets/
    met_by/after         empty                    —
    v}

    where [lb x]/[ub x] are the lower/upper bounds of [x] in the start
    array. The disjoint relations probe an empty range because a pair
    standing in them shares no time point and thus forms no overlapping
    window (it can still shape unmatched windows — by matching nothing).

    {!Buf} is the reusable scratch buffer the probe loop collects
    matches into; it never shrinks, so steady-state probing does not
    allocate. *)

module Interval = Tpdb_interval.Interval

(** Growable int buffer. *)
module Buf : sig
  type t

  val create : ?capacity:int -> unit -> t
  val clear : t -> unit
  val length : t -> int
  val push : t -> int -> unit
  val get : t -> int -> int
  val set : t -> int -> int -> unit

  val truncate : t -> int -> unit
  (** Drops every element from the given length on (no-op when the
      buffer is already shorter). *)

  val sort : t -> (int -> int -> int) -> unit
  (** In-place sort of the live prefix under an element comparator. *)
end

(** Growable array of boxed values, in push order. *)
module Vec : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit

  val contents : 'a t -> 'a array
  (** The pushed values; the buffer must not be pushed to afterwards. *)
end

type t
(** Endpoint arrays of a start-sorted interval run. *)

val of_sorted : ('a -> Interval.t) -> 'a array -> t
(** [of_sorted iv arr] extracts the endpoint arrays of [arr], which must
    already be sorted by interval start (raises [Invalid_argument]
    otherwise). *)

val length : t -> int

(** The backing start array itself — indices [0, length) are live; the
    tail of the array is padding. For sweep kernels whose inner loop
    cannot afford a call per element. *)
val starts : t -> int array

(** The backing end array; same contract as {!starts}. *)
val ends : t -> int array
val ts : t -> int -> int
val te : t -> int -> int

val lower_bound : t -> int -> int
(** First index whose start point is [>= x]; {!length} if none. *)

val upper_bound : t -> int -> int
(** First index whose start point is [> x]; {!length} if none. *)

type temporal = [ `Overlap | `Allen of Interval.allen ]

val window_range : t -> temporal -> rts:int -> rte:int -> int * int
(** Candidate index range [(lo, hi)] for a probe interval [[rts, rte)]:
    every index outside it fails the temporal relation or shares no time
    point with the probe. *)

val end_matches : temporal -> rts:int -> rte:int -> int -> bool
(** [end_matches rel ~rts ~rte te] completes the kernel: an index [i] of
    the range with end point [te] is a window-producing match iff this
    holds. *)

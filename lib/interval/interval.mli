(** Half-open intervals [ts, te) over a discrete timeline.

    Time points are integers; an interval is valid iff [ts < te]. All
    temporal attributes in this repository (tuples, windows, outputs) use
    this representation, mirroring the paper's [Ts, Te) notation. *)

type time = int

type t = private { ts : time; te : time }

exception Empty_interval of time * time
(** Raised by {!make} when [ts >= te]. *)

val make : time -> time -> t
(** [make ts te] is [[ts, te)]. Raises {!Empty_interval} if [ts >= te]. *)

val make_opt : time -> time -> t option
(** [make_opt ts te] is [Some [ts, te)] when [ts < te], else [None]. *)

val ts : t -> time
val te : t -> time

val duration : t -> int
(** Number of time points covered: [te - ts]. Always positive. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Lexicographic on (start, end). *)

val compare_start : t -> t -> int
val compare_end : t -> t -> int

val contains : t -> time -> bool
(** [contains i t] iff [ts <= t < te]. *)

val covers : t -> t -> bool
(** [covers outer inner] iff every point of [inner] is in [outer]. *)

val overlaps : t -> t -> bool
(** Shared time point exists (θo of the paper). *)

val intersect : t -> t -> t option
(** Largest interval contained in both, if non-empty. *)

val hull : t -> t -> t
(** Smallest interval containing both. *)

val adjacent : t -> t -> bool
(** [adjacent a b] iff one meets the other exactly ([a.te = b.ts] or
    [b.te = a.ts]). *)

val union_if_joinable : t -> t -> t option
(** Union when the two intervals overlap or are adjacent. *)

val minus : t -> t -> t list
(** [minus a b] is the (0, 1 or 2) maximal sub-intervals of [a] not
    covered by [b], in temporal order. *)

val before : t -> t -> bool
(** [before a b] iff [a] ends at or before [b] starts. *)

val shift : int -> t -> t

val clamp : within:t -> t -> t option
(** [clamp ~within i] is [intersect within i]. *)

(** Allen's thirteen interval relations; used by tests and by the
    alignment baseline. *)
type allen =
  | Before
  | Meets
  | Overlaps
  | Starts
  | During
  | Finishes
  | Equals
  | Finished_by
  | Contains
  | Started_by
  | Overlapped_by
  | Met_by
  | After

val allen : t -> t -> allen

val all_allen : allen list
(** All thirteen relations, in declaration order. *)

val allen_inverse : allen -> allen
(** [allen (allen_inverse rel) b a = rel] iff [allen rel a b = rel]:
    the converse relation ([Before] ↔ [After], [Equals] to itself …). *)

val allen_name : allen -> string
(** Lowercase name as used in query syntax and EXPLAIN output:
    ["before"], ["finished_by"], … *)

val allen_of_name : string -> allen option
(** Inverse of {!allen_name}, case-insensitive. *)

val allen_disjoint : allen -> bool
(** Whether the relation implies the two intervals share no time point
    ([Before], [Meets], [Met_by], [After]). A θ with such a temporal
    predicate can never produce overlapping windows. *)

val points : t -> time Seq.t
(** All time points of the interval, ascending. *)

val to_string : t -> string
(** ["[ts,te)"], as in the paper's figures. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s bytes without allocating. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> t
(** Parses the {!to_string} format. Raises [Invalid_argument] on bad
    syntax and {!Empty_interval} on an empty interval. *)

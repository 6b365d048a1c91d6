(** Base-tuple variables.

    Every tuple of a TP base relation carries a distinct Boolean variable;
    lineages of derived tuples are formulas over these variables. Following
    the paper's notation, a variable is a relation tag plus an index and
    prints as ["a1"], ["b3"], ... *)

type t = { rel : string; idx : int }

val make : string -> int -> t
(** [make rel idx]. [rel] must be non-empty and must not end in a digit
    (so that printing stays injective); [idx >= 0]. Raises
    [Invalid_argument] otherwise. *)

val rel : t -> string
val idx : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s bytes without allocating. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> t
(** Inverse of {!to_string}: trailing digits are the index. Raises
    [Invalid_argument] if there is no trailing digit or no tag. *)

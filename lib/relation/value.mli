(** Attribute values of facts.

    Outer-join results contain null-padded facts, so [Null] is a first-
    class value. Numeric values compare numerically across [I]/[F]. *)

type t =
  | Null
  | S of string
  | I of int
  | F of float

exception Type_error of { context : string; left : t; right : t }
(** Raised instead of a bare assertion when two values turn out not to be
    comparable; [context] names the operation. Rendered by the CLI's
    diagnostic reporter. *)

val equal : t -> t -> bool
(** SQL-style for joins is handled at the predicate level; here [Null]
    equals [Null] (needed for set semantics of results). *)

val compare : t -> t -> int
(** Total order: [Null] first, then numerics (by value), then strings. *)

val hash : t -> int
(** Compatible with {!equal}: in particular [I 2] and [F 2.] hash alike. *)

val is_null : t -> bool

val to_string : t -> string
(** [Null] prints as ["-"], as in the paper's result tables. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s bytes; allocates only for [F]. *)

val pp : Format.formatter -> t -> unit

val of_string_guess : string -> t
(** ["-"] and [""] parse as [Null]; otherwise try int, then float, then
    string. Inverse of {!to_string} up to numeric formatting. *)

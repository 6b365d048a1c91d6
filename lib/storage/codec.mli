(** Binary (de)serialization of TP values and tuples.

    Little-endian, length-prefixed, tagged. A tuple record is
    self-delimiting: arity, values, lineage (ASCII formula), interval
    bounds and the probability's IEEE bits. *)

exception Corrupt of string
(** Raised by every reader on malformed input. *)

type reader = { bytes : Bytes.t; mutable pos : int }

val reader : Bytes.t -> reader
val reader_at : Bytes.t -> int -> reader

val write_uint16 : Buffer.t -> int -> unit
val read_uint16 : reader -> int
val write_int64 : Buffer.t -> int -> unit
val read_int64 : reader -> int
val write_float : Buffer.t -> float -> unit
val read_float : reader -> float
val write_string : Buffer.t -> string -> unit
val read_string : reader -> string

val write_value : Buffer.t -> Tpdb_relation.Value.t -> unit
val read_value : reader -> Tpdb_relation.Value.t

val write_tuple : Buffer.t -> Tpdb_relation.Tuple.t -> unit
val read_tuple : reader -> Tpdb_relation.Tuple.t

val tuple_size : Tpdb_relation.Tuple.t -> int
(** Encoded byte size (by encoding into a scratch buffer). *)

(** {2 Varints}

    Unsigned LEB128 — 7 value bits per byte, high bit continues. Zigzag
    folds signed values into the unsigned range so small deltas of
    either sign encode in one byte. *)

val write_varint : Buffer.t -> int -> unit
(** Raises [Invalid_argument] on negative input. *)

val read_varint : reader -> int
val write_zigzag : Buffer.t -> int -> unit
val read_zigzag : reader -> int

(** {2 Columnar tuple blocks}

    The spill-file payload format: a self-delimiting block of tuples
    encoded column-wise — varint tuple count; interval starts as
    zigzag-varint deltas; durations as varint [te - ts - 1]; raw
    little-endian IEEE f64 probabilities; lineages as a per-block
    dictionary of distinct relation tags followed by structural
    bytecode over {!Tpdb_lineage.Formula.view} with dictionary-coded
    variables; facts through the tagged value codec. [decode ∘ encode]
    is the identity on tuple arrays (lineages are rebuilt through the
    smart constructors, which is the identity on the invariant-respecting
    formulas {!Tpdb_lineage.Formula} produces).

    The relation tags of the dictionary appear in order of first use;
    within one tuple, new tags appear in {!Tpdb_lineage.Formula.vars}
    order. Malformed input of any kind raises {!Corrupt}. *)

module Column : sig
  val encode : Buffer.t -> Tpdb_relation.Tuple.t array -> unit

  val encode_sub : Buffer.t -> Tpdb_relation.Tuple.t array -> int -> unit
  (** [encode_sub buf tuples n] encodes the first [n] tuples: the bytes
      of [encode buf (Array.sub tuples 0 n)]. *)

  val decode : reader -> Tpdb_relation.Tuple.t array

  val decode_into : reader -> Tpdb_relation.Tuple.t array -> int -> int
  (** [decode_into r dst off] decodes one block into [dst] from index
      [off] on and returns its tuple count. Raises {!Corrupt} on
      malformed input, including a block that does not fit in [dst]. *)
end

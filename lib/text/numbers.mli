(** Number writers for the rendered text of results and CSV files.

    Each appends to a caller's [Buffer.t] the same bytes as the
    [Printf] format it is named after. The ints allocate nothing. The
    floats allocate nothing for a positive finite value whose
    significant digits one exact power-of-ten scaling and one rounding
    decide; every other value (ties and near-ties, zero, negatives,
    non-finite values, exponents beyond ±22) goes to [caml_format_float],
    the C [printf] conversion [Printf] itself ends in. *)

val add_int : Buffer.t -> int -> unit
(** The bytes of [string_of_int], for every int including [min_int]. *)

val add_g : Buffer.t -> float -> unit
(** [Printf "%g"]. *)

val add_g4 : Buffer.t -> float -> unit
(** [Printf "%.4g"]: the probability column of rendered results. *)

val add_g12 : Buffer.t -> float -> unit
(** [Printf "%.12g"]: the probability column of CSV files. *)

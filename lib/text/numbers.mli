(** Number writers for the rendered text of results and CSV files.

    Each appends to a caller's [Buffer.t]. The ints allocate nothing;
    the floats make exactly one [caml_format_float] call (the C
    [printf] conversion [Printf] itself ends in), so they print the
    same bytes as the [Printf] format they are named after. *)

val add_int : Buffer.t -> int -> unit
(** The bytes of [string_of_int], for every int including [min_int]. *)

val add_g : Buffer.t -> float -> unit
(** [Printf "%g"]. *)

val add_g4 : Buffer.t -> float -> unit
(** [Printf "%.4g"]: the probability column of rendered results. *)

val add_g12 : Buffer.t -> float -> unit
(** [Printf "%.12g"]: the probability column of CSV files. *)

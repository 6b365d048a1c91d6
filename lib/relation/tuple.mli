(** TP tuples: (fact, lineage, interval, probability). *)

type t = {
  fact : Fact.t;
  lineage : Tpdb_lineage.Formula.t;
  iv : Tpdb_interval.Interval.t;
  p : float;
}

val make :
  fact:Fact.t ->
  lineage:Tpdb_lineage.Formula.t ->
  iv:Tpdb_interval.Interval.t ->
  p:float ->
  t
(** Raises [Invalid_argument] unless [0. <= p <= 1.]. *)

val placeholder : t
(** A tuple to fill arrays whose slots are all written before they are
    read. It is one shared value, so arrays of more than 256 tuples
    built from it do not force a minor collection. *)

val fact : t -> Fact.t
val lineage : t -> Tpdb_lineage.Formula.t
val iv : t -> Tpdb_interval.Interval.t
val p : t -> float

val valid_at : t -> Tpdb_interval.Interval.time -> bool

val compare_fact_start : t -> t -> int
(** Orders by (fact, interval, lineage): the grouping order used by the
    sweeping algorithms. *)

val compare_start : t -> t -> int
(** Orders by (interval start, interval end) only. *)

val equal : t -> t -> bool
(** Fact, interval and {e normalized} lineage equality, probability within
    1e-9. This is result-set equality as used by the tests. *)

val to_string : t -> string
(** Paper style: [('Ann, ZAK', a1, [2,8), 0.7)]. *)

val pp : Format.formatter -> t -> unit

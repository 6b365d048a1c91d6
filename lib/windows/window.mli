(** Generalized lineage-aware temporal windows (paper §II, Table I).

    A window binds an interval [iv] to the facts and lineages of the
    matching valid tuples of both input relations:

    - {b overlapping}: a θ-matching pair (r, s) over the intersection of
      their intervals; both facts and both lineages are set;
    - {b unmatched}: a maximal sub-interval of an [r] tuple where no
      θ-matching [s] tuple is valid; [fs] and [ls] are null;
    - {b negating}: a maximal sub-interval where the set of valid
      θ-matching [s] tuples is non-empty and constant; [fs] is null and
      [ls] is the disjunction of their lineages.

    Windows additionally carry [rspan], the original interval of the
    spanning [r] tuple (and [sspan] for overlapping windows): LAWAU needs
    it to find coverage gaps, and the sanitizer checks a WO window
    against [rspan ∩ sspan]. [p] is the probability of the window's
    output lineage when the flat sweep computed it from its build side's
    tuple probabilities (static-safe plans, see
    {!Tpdb_joins.Nj.options}), and [nan] otherwise; output formation
    computes the missing ones. *)

module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Fact = Tpdb_relation.Fact

type kind = Overlapping | Unmatched | Negating

type t = private {
  kind : kind;
  fr : Fact.t;
  fs : Fact.t option;
  iv : Interval.t;
  lr : Formula.t;
  ls : Formula.t option;
  rspan : Interval.t;
  sspan : Interval.t option;
  p : float;
}

val overlapping :
  ?p:float ->
  fr:Fact.t ->
  fs:Fact.t ->
  iv:Interval.t ->
  lr:Formula.t ->
  ls:Formula.t ->
  rspan:Interval.t ->
  sspan:Interval.t ->
  unit ->
  t
(** Raises [Invalid_argument] unless [rspan] and [sspan] both cover
    [iv]. [p] defaults to [nan] (not computed), here and below. *)

val unmatched :
  ?p:float ->
  fr:Fact.t ->
  iv:Interval.t ->
  lr:Formula.t ->
  rspan:Interval.t ->
  unit ->
  t

val negating :
  ?p:float ->
  fr:Fact.t ->
  iv:Interval.t ->
  lr:Formula.t ->
  ls:Formula.t ->
  rspan:Interval.t ->
  unit ->
  t

val kind : t -> kind
val fr : t -> Fact.t
val fs : t -> Fact.t option
val iv : t -> Interval.t
val lr : t -> Formula.t
val ls : t -> Formula.t option
val rspan : t -> Interval.t

val p : t -> float
(** The precomputed output probability, or [nan]. *)

val same_group : t -> t -> bool
(** Two windows belong to the same LAWAU/LAWAN group iff they stem from
    the same spanning [r] tuple: equal [fr], [lr] and [rspan]. *)

val compare_group : t -> t -> int
(** Total order on groups alone: by [fr], [rspan], [lr] — the same keys
    (and comparators) as {!Tpdb_relation.Tuple.compare_fact_start} on the
    spanning tuple, so it reproduces the group order of the sequential
    sweep. [compare_group a b = 0] iff [same_group a b]. The partitioned
    executor ({!Tpdb_engine.Parallel}) merges per-partition streams under
    this order. *)

val compare_group_start : t -> t -> int
(** The stream order of the window pipeline: by group, then by interval
    start (then end, then kind, then the [s] side, for determinism). *)

val equal : t -> t -> bool
(** Structural, with [ls] compared after {!Formula.normalize} (the
    disjunction order in a negating window is not semantic); [p] is not
    compared. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Overlapping windows: the conventional outer join r ⟕(θo ∧ θ) s
    (paper §III-A), the building block of the Temporal Alignment baseline.

    Produces, grouped by [r] tuple and ordered by window start inside each
    group, one {e overlapping} window per θ-matching pair of tuples with
    intersecting intervals — plus one spanning {e unmatched} window for
    every [r] tuple that matches nothing at all (the outer part of the
    join). Every window carries the original interval of its [r] tuple.
    The NJ executor derives the same windows in its flat sweep
    ({!Flat_join}, stage [`Wo]).

    With an equality atom in θ, [`Hash] partitions the build side on the
    join key and each [r] tuple probes only its bucket; [`Nested_loop]
    forces the quadratic plan, the one PostgreSQL picks for TA's
    queries. Both produce identical window streams. *)

type algorithm = [ `Hash | `Nested_loop ]

val left :
  ?algorithm:algorithm ->
  theta:Theta.t ->
  Tpdb_relation.Relation.t ->
  Tpdb_relation.Relation.t ->
  Window.t Seq.t
(** [algorithm] defaults to [`Hash]. The stream is re-computed on every
    traversal. *)

val prober :
  ?algorithm:algorithm ->
  theta:Theta.t ->
  Tpdb_relation.Relation.t ->
  Tpdb_relation.Tuple.t ->
  Tpdb_relation.Tuple.t list
(** [prober ~theta s] prepares the build side once (hash partition on the
    equi-key, or the bare tuple list for nested loop) and returns the
    probe: every [s] tuple that θ-matches and temporally overlaps the
    argument. The TA baseline calls it once per pass. *)

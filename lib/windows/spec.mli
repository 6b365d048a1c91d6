(** Executable form of the paper's Table I window definitions.

    Everything here evaluates the definitions {e pointwise} over the
    discrete timeline — quadratic and meant for tests, where it serves as
    the ground-truth oracle against which {!Flat_join}'s stages and
    {!Overlap} are verified. *)

module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Relation = Tpdb_relation.Relation
module Fact = Tpdb_relation.Fact

val lambda_s_theta :
  theta:Theta.t ->
  s:Relation.t ->
  riv:Interval.t ->
  Fact.t ->
  Interval.time ->
  Formula.t option
(** [λ^{s,θ}_t] of Table I: the disjunction of the lineages of the [s]
    tuples valid at [t] whose facts θ-match the given [r] fact — and, when
    θ carries an [`Allen] temporal component, whose full interval stands
    in that relation to [riv] (the [r] tuple's interval) — in the
    relation's tuple order; [None] when no tuple matches. *)

val windows : theta:Theta.t -> Relation.t -> Relation.t -> Window.t list
(** All generalized windows of [r] with respect to [s] — the union
    [WO ∪ WU ∪ WN], built directly from the definitions (as enumerated in
    the paper's Fig. 2), sorted by {!Window.compare_group_start}. *)

val overlapping_windows :
  theta:Theta.t -> Relation.t -> Relation.t -> Window.t list

val unmatched_windows :
  theta:Theta.t -> Relation.t -> Relation.t -> Window.t list

val negating_windows :
  theta:Theta.t -> Relation.t -> Relation.t -> Window.t list

val is_overlapping_window :
  theta:Theta.t -> Relation.t -> Relation.t -> Window.t -> bool
(** Checks the window against the Table I definition of [WO(r; s, θ)]
    (including interval maximality). *)

val is_unmatched_window :
  theta:Theta.t -> Relation.t -> Relation.t -> Window.t -> bool

val is_negating_window :
  theta:Theta.t -> Relation.t -> Relation.t -> Window.t -> bool

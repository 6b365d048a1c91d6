(** TA — the Temporal Alignment baseline for TP joins with negation
    (paper §IV), the only prior approach adaptable to these operators.

    TA computes the same results as {!Tpdb_joins.Nj} but with the cost
    structure the paper measures:

    - the conventional join is executed {e twice}: once for the
      overlapping pairs (pass 1) and once more to align every [r] tuple
      against its matching [s] tuples (pass 2);
    - pass 2 {e replicates} tuples: each [r] tuple is split at every
      matching start/end point, and each replica re-scans the match list
      to aggregate its λs — the redundant interval comparisons NJ's single
      sweep avoids;
    - the sub-results are combined by a de-duplicating union (unmatched
      windows are computed by both passes);
    - the default join algorithm is the nested loop PostgreSQL's optimizer
      chooses for TA's [θo ∧ θ] predicates (pass [`Hash] to give TA the
      hash partitioning NJ's sweep uses, as in the paper's Fig. 5 where
      both share the conventional-join cost).

    All results are materialized lists — TA is not pipelined. *)

module Relation = Tpdb_relation.Relation
module Prob = Tpdb_lineage.Prob
module Theta = Tpdb_windows.Theta
module Window = Tpdb_windows.Window
module Overlap = Tpdb_windows.Overlap

val windows_wuo :
  ?algorithm:Overlap.algorithm ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  Window.t list
(** Overlapping + unmatched windows (Fig. 5's TA series): pass 1 ∪ the
    unmatched part of pass 2, de-duplicated. *)

val windows_wuon :
  ?algorithm:Overlap.algorithm ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  Window.t list
(** All window sets of [r] w.r.t. [s] (Fig. 6's TA series adds the
    negating part of pass 2). *)

val anti :
  ?algorithm:Overlap.algorithm ->
  ?env:Prob.env ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  Relation.t

val left_outer :
  ?algorithm:Overlap.algorithm ->
  ?env:Prob.env ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** Fig. 7's TA series. *)

val right_outer :
  ?algorithm:Overlap.algorithm ->
  ?env:Prob.env ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  Relation.t

val full_outer :
  ?algorithm:Overlap.algorithm ->
  ?env:Prob.env ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  Relation.t

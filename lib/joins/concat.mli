(** Output-tuple formation: windows → TP tuples (paper §II, Example 2).

    Each window class has a fixed lineage-concatenation function:
    overlapping windows use [and], negating windows use [andNot], and
    unmatched windows pass [λr] through. Facts are concatenated, with the
    missing side null-padded for unmatched and negating windows. The set
    operations keep the window's own fact and differ only in the union's
    overlapping windows, which use [or] ({!tuple_of_set_window}). *)

module Formula = Tpdb_lineage.Formula
module Prob = Tpdb_lineage.Prob
module Tuple = Tpdb_relation.Tuple
module Window = Tpdb_windows.Window

val output_lineage : Window.t -> Formula.t
(** [λr ∧ λs] / [λr] / [λr ∧ ¬λs] by window kind. *)

type side = Left | Right
(** Which input relation the window stream is grouped by. [Right] streams
    (used for the right half of right/full outer joins) have the roles of
    the window swapped, so the null padding goes in front. *)

val tuple_of_window :
  prob:(Formula.t -> float) -> side:side -> pad:int -> Window.t -> Tuple.t
(** [prob] computes the output probability of the window's lineage —
    [Prob.compute env], or [Prob.factorize env] on a statically safe
    plan — unless the sweep already did ({!Window.p} is not [nan]). [pad] is
    the arity of the null-padded side. Overlapping windows on the
    [Right] side are rejected with [Invalid_argument] (they are emitted
    by the left pass already). *)

val tuple_of_set_window :
  prob:(Formula.t -> float) ->
  kind:[ `Union | `Intersect | `Except ] ->
  Window.t ->
  Tuple.t
(** Output formation for the set operations and the anti join: the
    window's own fact [fr], no [s] columns. The lineage is [λr ∨ λs] on
    a union's overlapping windows and {!output_lineage} otherwise.
    [`Except] (also the anti join) takes unmatched and negating windows,
    [`Intersect] overlapping ones and [`Union] overlapping and unmatched
    ones; any other window raises [Invalid_argument]. *)

(** Duplicate-eliminating TP projection.

    Projecting fact columns can make distinct tuples coincide; under TP
    semantics the result must contain, at every time point, each projected
    fact {e once}, with the {e disjunction} of the lineages of all
    contributing tuples (a tuple is in the projection when any witness
    is). Output intervals are the maximal runs with a constant witness
    set — the same sweep that builds LAWAN's negating windows. *)

module Relation = Tpdb_relation.Relation
module Prob = Tpdb_lineage.Prob

val project :
  ?env:Prob.env -> columns:int list -> Relation.t -> Relation.t
(** [project ~columns r] keeps the given fact columns (in the given
    order). Raises [Invalid_argument] on column indexes out of range or a
    duplicate selection. *)

val project_names :
  ?env:Prob.env -> columns:string list -> Relation.t -> Relation.t
(** Same, by column name. Raises [Not_found] for unknown columns. *)

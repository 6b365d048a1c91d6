(** Join conditions θ: a temporal predicate over the two tuples'
    intervals plus a conjunction of atoms over the non-temporal
    attributes of the two facts.

    The temporal component is [`Overlap] — the paper's θo, satisfied by
    any pair sharing a time point — or [`Allen rel], satisfied exactly
    when the pair stands in that one Allen relation. Every constructor
    below builds [`Overlap] thetas, so call sites predating the temporal
    component are unaffected; {!with_temporal} and {!allen} opt in.

    Atoms compare a column of the left fact with a column of the right
    fact (or with a constant). Equality atoms are recognized so the
    executor can hash-partition on them; everything else is evaluated as
    a residual predicate — exactly the split PostgreSQL's planner
    performs between hash clauses and join filters.

    Comparisons with [Null] never hold (SQL semantics), except
    [`Not_distinct], SQL's [IS NOT DISTINCT FROM]: equality under which
    two nulls are equal. It is the equality of the set operations, and
    an equality atom like [`Eq]. *)

type op = [ `Eq | `Lt | `Le | `Gt | `Ge | `Ne | `Not_distinct ]

type atom =
  | Cols of op * int * int  (** left column ⋈ right column *)
  | Left_const of op * int * Tpdb_relation.Value.t
  | Right_const of op * int * Tpdb_relation.Value.t

type temporal = [ `Overlap | `Allen of Tpdb_interval.Interval.allen ]

type t

val always : t
(** The empty conjunction: every pair matches (pure temporal join). *)

val of_atoms : atom list -> t

val eq : int -> int -> t
(** [eq i j] : left column [i] = right column [j]. *)

val fact_equality : int -> t
(** [fact_equality arity]: every column [i < arity] of the left fact
    [`Not_distinct] from column [i] of the right fact — the θ of the set
    operations. *)

val conj : t -> t -> t
(** Conjunction of atoms. Temporal components combine by keeping the
    non-[`Overlap] side; two different [`Allen] components raise
    [Invalid_argument] (a pair of intervals stands in exactly one Allen
    relation, so such a θ would be unsatisfiable). *)

val atoms : t -> atom list

val temporal : t -> temporal

val with_temporal : temporal -> t -> t

val allen : Tpdb_interval.Interval.allen -> t
(** [allen rel] = [with_temporal (`Allen rel) always]. *)

val temporal_matches : t -> Tpdb_interval.Interval.t -> Tpdb_interval.Interval.t -> bool
(** Whether the temporal component holds for a (left, right) pair of
    tuple intervals: interval overlap for [`Overlap], exact relation
    equality for [`Allen rel]. Note that window formation additionally
    requires a shared time point, so a disjoint Allen relation
    ({!Tpdb_interval.Interval.allen_disjoint}) admits no overlapping
    window. *)

val matches : t -> Tpdb_relation.Fact.t -> Tpdb_relation.Fact.t -> bool
(** Comparisons involving [Null] never match (SQL semantics), except
    [`Not_distinct] between two nulls. *)

val equi_keys : t -> (int list * int list) option
(** Columns of the column-equality atoms ([`Eq] and [`Not_distinct]),
    left and right, positionally paired; [None] when there is no
    equality atom to hash on. *)

val null_safe_keys : t -> bool list
(** For each {!equi_keys} pair, in the same order, whether two nulls
    match on it ([`Not_distinct]) rather than never matching ([`Eq]). *)

val atom_equal : atom -> atom -> bool
(** Structural equality, comparing embedded constants with
    {!Tpdb_relation.Value.compare} (the polymorphic [=] is banned on
    values — see the poly-compare lint). *)

val simplify : t -> t * atom list
(** Folds away redundant conjuncts — exact duplicates and constant
    bounds implied by a stronger bound on the same column ([x > 5]
    subsumes [x > 3]; [x = 5] subsumes [x >= 1]) — returning the
    simplified θ and the dropped atoms. Contradictory atoms are {e not}
    folded: the analyzer reports them as [unsatisfiable] errors instead
    of silently rewriting the query. Satisfied pairs are unchanged:
    [matches (fst (simplify t)) fr fs = matches t fr fs]. *)

val residual : t -> t
(** Everything but the column-equality atoms. [matches t fr fs] iff the
    {!equi_keys} columns are pairwise equal (non-null on the [`Eq]
    pairs, {!null_safe_keys}) and [matches (residual t) fr fs]. *)

val swap : t -> t
(** θ with the two sides exchanged:
    [matches (swap t) fs fr = matches t fr fs], and the temporal
    component replaced by its converse
    ({!Tpdb_interval.Interval.allen_inverse}), so
    [temporal_matches (swap t) b a = temporal_matches t a b]. *)

val to_string :
  ?left:Tpdb_relation.Schema.t -> ?right:Tpdb_relation.Schema.t -> t -> string

val pp : Format.formatter -> t -> unit

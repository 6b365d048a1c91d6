(** Planning and execution of TP-SQL queries.

    The planner mirrors the paper's PostgreSQL integration: it resolves
    column references, splits each join condition into hashable equality
    atoms and a residual predicate (the flat sweep hashes on the
    equality atoms, or scans one bucket when there are none) and wires
    the NJ operators. [explain] renders the chosen plan.

    After lowering, the planner runs the analyzer's rewrite pipeline
    ({!Analyze.optimize}): redundant θ conjuncts are folded, provably
    empty subplans are pruned to empty scans, and joins whose output
    lineages are statically read-once are tagged so probability
    computation skips the runtime read-once check. Chains of inner
    equi-joins are additionally ordered by the cost model
    ({!Cost.of_plan}) over per-relation statistics ({!Catalog.stats}).
    Every rewrite is reported as a Note-severity diagnostic ({!notes},
    surfaced by [tpdb_cli check --deep]). *)

module Relation = Tpdb_relation.Relation

exception Plan_error of string
(** Unknown relation/column, ambiguous reference, or an ON condition that
    does not relate the two inputs. *)

type t

val plan :
  ?parallelism:int ->
  ?sanitize:bool ->
  ?mem_budget:int ->
  Catalog.t ->
  Ast.t ->
  t
(** [parallelism] (default 1) is stored into every TP join node: the
    partition count of the domain-parallel window sweep (the CLI's
    [--jobs]). Joins whose θ has no equality atom ignore it and run
    sequentially. Raises {!Plan_error} when < 1. [sanitize] (default
    {!Tpdb_windows.Invariant.env_enabled}, i.e. the [TPDB_SANITIZE]
    environment variable — the CLI's [--sanitize]) turns on the TPSan
    window-invariant checks in every TP join node. [mem_budget] (default
    [0] = not set, so the executor's [TPDB_MEM_BUDGET] fallback still
    applies — the CLI's [--mem-budget]) is the out-of-core working-set budget in bytes
    stored into every TP join node; an equi-join whose estimated working
    set exceeds it is spilled to partitioned heap files and swept
    partition by partition ({!Tpdb_storage.Spill}). When both join
    inputs are base relations with persisted statistics, their catalog
    cardinalities are stored alongside so the spill decision needs no
    live counting. Raises {!Plan_error} when negative. *)

val explain : t -> string
(** The plan tree with the cost model's per-node [[est rows=… cost=…]]
    columns, and a [[lineage: read-once]] marker on statically safe
    joins. *)

val fingerprint : t -> string
(** {!Physical.fingerprint} of the optimized plan: stable across runs of
    the same query text, different for distinct plans. The query log's
    grouping key. *)

val check : t -> Analyze.diagnostic list
(** Static analysis of the planned tree ({!Analyze.check}): type checks
    on θ, unsatisfiable/tautological atoms, sequential-fallback and
    cartesian-shape warnings, projections that drop join keys. When the
    planner reordered the join chain, the [join-reordered] note leads
    the report so diagnostic paths through the reordered chain are
    explainable. *)

val check_deep : t -> Analyze.diagnostic list
(** The plan-time rewrite notes ({!notes}) followed by
    {!Analyze.check_deep} on the optimized plan: abstract
    temporal/probability bounds, safe-plan classification, and the base
    {!check} diagnostics. Behind [tpdb_cli check --deep]. *)

val notes : t -> Analyze.diagnostic list
(** Note-severity diagnostics for the rewrites the planner applied while
    building this plan: cost-based join reorders ([join-reordered]),
    folded θ conjuncts ([theta-fold]), pruned provably-empty subplans
    ([pruned-empty]). *)

val estimates : t -> Cost.t
(** The cost model over the optimized plan, computed on first use and
    memoized. Statistics come from the catalog the plan was built
    against ({!Catalog.stats}). *)

val env : t -> Tpdb_lineage.Prob.env
(** The marginals the plan runs under: the catalog's {!Catalog.env}
    when the plan was built, shared by every plan of that generation. *)

val run : t -> Relation.t

val stream : t -> Tpdb_relation.Tuple.t Seq.t
(** Pipelined execution: pulls result tuples one at a time through the
    physical operators (see {!Physical.execute}). *)

val run_analyze : t -> Relation.t * string
(** EXPLAIN ANALYZE: the result plus the plan tree annotated with
    per-node output cardinalities and exclusive wall times. *)

val run_string : Catalog.t -> string -> Relation.t
(** Parse, plan and execute in one step. *)

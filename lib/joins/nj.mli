(** NJ — the paper's operators for TP joins with negation, assembled from
    generalized lineage-aware temporal windows (paper Table II):

    - anti join [r ▷ s]: WU(r;s,θ) ∪ WN(r;s,θ)
    - left outer [r ⟕ s]: WO ∪ WU(r;s,θ) ∪ WN(r;s,θ)
    - right outer [r ⟖ s]: WO ∪ WU(s;r,θ) ∪ WN(s;r,θ)
    - full outer [r ⟗ s]: all five sets, with WO computed once
    - inner join [r ⋈ s]: WO only (for completeness)

    All five are served by the single entry point {!join}, selected by
    {!join_kind}. The pipeline is the flat struct-of-arrays sweep
    ({!Tpdb_windows.Flat_join}), which derives the overlapping (WO),
    unmatched (WU) and negating (WN) windows in one pass, → output
    formation ({!Concat}). Right and full outer joins find the [s]
    side's windows in a second pass of the kernel with the sides swapped
    ({!Tpdb_windows.Flat_join.right}), which builds no overlapping
    window. Output formation prices every window the sweep did not with
    {!Prob.compute} — the function TA and the oracle call — or with
    {!Prob.factorize} on a statically safe plan (see {!static_safe}), so
    NJ and TA share their probability path.

    {2 Set operations}

    {!set_op} runs the TP set operations (the authors' prior work,
    "Supporting set operations in temporal-probabilistic databases",
    ICDE 2018 — reference [1] of the paper; arXiv:1910.00474) on the
    same pipeline. A set operation is a TP join with θ = equality on
    {e all} fact columns ({!Theta.fact_equality}, under which two nulls
    are equal, as in SQL's set operations) and a per-operation lineage
    concatenation: at every time point and for every fact [F],

    - [`Union]: [λr ∨ λs] where both operands contain [F], the single
      operand's lineage elsewhere;
    - [`Intersect]: [λr ∧ λs] where both contain [F];
    - [`Except]: [λr ∧ ¬λs] where both contain [F], [λr] where only
      [r] does (exactly the anti join of Table II under fact equality).

    Operands must have schemas with equal column lists; the result uses
    the left schema ({!set_op_schema}).

    {2 Parallel execution}

    With [parallelism = P > 1] and a θ containing at least one equality
    atom, both inputs are sharded on the equi-join key into [P]
    partitions and the window sweep of every partition runs on a
    separate domain of the shared {!Tpdb_engine.Pool}; the per-partition
    streams are then merged back deterministically (by group, lower
    partition id first — see {!Tpdb_engine.Parallel}), so the result is
    identical to the sequential one, tuple for tuple, including order,
    lineage and probability. A θ without an equality atom silently falls
    back to the sequential sweep ({!effective_parallelism} reports the
    decision). Output formation — lineage concatenation and the
    probabilities the sweep did not compute — always runs on the calling
    domain.

    Inputs are assumed duplicate-free ({!Tpdb_relation.Relation.is_duplicate_free}),
    as the paper assumes of TP relations. [env] supplies the marginal
    probability of every base variable; it defaults to the variables of
    the two inputs and must be passed explicitly when joining derived
    relations. *)

module Relation = Tpdb_relation.Relation
module Prob = Tpdb_lineage.Prob
module Theta = Tpdb_windows.Theta
module Window = Tpdb_windows.Window

type options
(** Execution options. Abstract: build with {!options} so that future
    fields (like [parallelism], added after the first release) never
    break call sites. *)

val options :
  ?parallelism:int ->
  ?sanitize:bool ->
  ?static_safe:bool ->
  ?mem_budget:int ->
  ?est_rows:int * int ->
  unit ->
  options
(** Builder, with today's defaults spelled out:
    - [parallelism] (default [1] = sequential): partition count of the
      domain-parallel sweep; raises [Invalid_argument] when < 1;
    - [sanitize] (default {!Tpdb_windows.Invariant.env_enabled}, i.e.
      the [TPDB_SANITIZE] environment variable): run the TPSan window
      invariant checks on every stage's stream, on the parallel merge,
      and on the final output; a violated paper lemma raises
      {!Tpdb_windows.Invariant.Violation};
    - [mem_budget] (default: the [TPDB_MEM_BUDGET] environment variable
      in megabytes, else [0] = unlimited): working-set budget in bytes
      for the out-of-core executor. When an equi-θ join's estimated
      working set exceeds it, both inputs are hash-partitioned to
      columnar heap files ({!Tpdb_storage.Spill}) and swept one
      partition pair at a time through a budget-sized buffer pool —
      output stays tuple-for-tuple identical to the in-RAM path. A
      non-equi θ ignores the budget (like [parallelism]). Raises
      [Invalid_argument] when negative;
    - [est_rows] (default [None] = live counting): planner-supplied
      (left, right) input cardinalities — e.g. from catalog [Stats] —
      used for the spill decision's working-set estimate instead of
      counting the materialized inputs. *)

val default_options : options
(** [options ()]. *)

val parallelism : options -> int
val sanitize : options -> bool

val mem_budget : options -> int
(** Out-of-core working-set budget in bytes; [0] = never spill. *)

val est_rows : options -> (int * int) option
(** Planner row estimates for the spill decision, when supplied. *)

val static_safe : options -> bool
(** Whether the planner proved every output lineage of this join
    read-once (default [false]). When set, the sweep takes each
    window's probability from its tuples' probabilities, multiplied in
    the order {!Prob.factorize} evaluates the output lineage (so the
    float is bit-identical); windows whose
    partner lineages are not bare variables go through
    {!Prob.factorize} — no per-formula read-once check and no BDD
    fallback. Only set it from a proof such as the static safe-plan
    classification in {!Tpdb_query.Analyze}; the sanitizer's output
    check cross-validates each probability against {!Prob.compute}. *)

val effective_parallelism : options -> Theta.t -> int
(** The partition count {!join} will actually use: [parallelism options]
    when θ has an equality atom to shard on ({!Theta.equi_keys}), [1]
    otherwise (non-equi θ falls back to the sequential sweep). *)

type join_kind = Inner | Anti | Left | Right | Full

val all_kinds : join_kind list
(** Every operator of Table II, in declaration order: [Inner; Anti;
    Left; Right; Full]. The differential oracle and the fuzzer sweep
    this list. *)

val kind_name : join_kind -> string
(** Lowercase name used in trace span labels and stats output:
    ["inner"], ["anti"], ["left-outer"], ["right-outer"],
    ["full-outer"]. *)

type set_kind = [ `Union | `Intersect | `Except ]

val all_set_kinds : set_kind list
(** [[`Union; `Intersect; `Except]]. *)

val set_kind_name : set_kind -> string
(** ["union"], ["intersect"], ["except"]. *)

val set_op_schema :
  set_kind -> Tpdb_relation.Schema.t -> Tpdb_relation.Schema.t -> Tpdb_relation.Schema.t
(** The schema of {!set_op} on operands of these schemas: the left one,
    renamed [r_union_s], [r_isect_s] or [r_minus_s]. *)

val join :
  ?options:options ->
  ?env:Prob.env ->
  kind:join_kind ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** The unified TP join: every operator of the paper's Table II, selected
    by [kind]. Used by the query planner and the CLI. *)

val set_op :
  ?options:options ->
  ?env:Prob.env ->
  kind:set_kind ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** The TP set operation [kind] (see {e Set operations} above) on the
    join's executor: it spills, runs in parallel and is sanitized as
    {!join} is under [options], except that [static_safe] is ignored —
    the sweep prices windows by the Table I concatenation, not by the
    set operations'. Raises [Invalid_argument] when the operands' column
    lists differ. *)

val join_spilled :
  ?options:options ->
  ?partitions:int ->
  env:Prob.env ->
  kind:join_kind ->
  theta:Theta.t ->
  left:Tpdb_relation.Schema.t * Tpdb_relation.Tuple.t Seq.t ->
  right:Tpdb_relation.Schema.t * Tpdb_relation.Tuple.t Seq.t ->
  unit ->
  Relation.t
(** Out-of-core join over tuple {e streams}: the inputs go straight into
    the spill partitioner without ever being materialized, so peak
    memory is one partition pair plus the output regardless of input
    cardinality — the entry point of the 10^6–10^7-tuple spill-scale
    bench. Requires [options] with a positive [mem_budget] and an
    equi-θ; raises [Invalid_argument] otherwise. [partitions] defaults
    to an estimate from [est_rows] (or a fixed fan-out of 64) since an
    unmaterialized stream cannot be sampled; [env] is mandatory for the
    same reason. Each input sequence is traversed exactly once. Output
    is identical to {!join} on the materialized inputs. *)

val windows_wuo :
  ?options:options -> theta:Theta.t -> Relation.t -> Relation.t -> Window.t Seq.t
(** Overlapping + unmatched windows of [r] w.r.t. [s] (the paper's WUO:
    the conventional outer join extended by LAWAU's gaps), from the flat
    kernel at stage [`Wuo]. Benched as Fig. 5. The stream is recomputed
    on every traversal. *)

val windows_wuon :
  ?options:options -> theta:Theta.t -> Relation.t -> Relation.t -> Window.t Seq.t
(** WUO extended with LAWAN's negating windows (stage [`Wuon]). Benched
    as Fig. 6. *)

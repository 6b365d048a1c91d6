(** The differential snapshot-semantics oracle.

    The paper defines every TP join point-wise: at each time point [t]
    the output contains a row iff the §I snapshot semantics says so,
    with the Table I lineage. The set operations (arXiv:1910.00474) and
    the duplicate-eliminating projection are defined the same way. The
    optimized flat sweep never evaluates that definition directly — it
    sweeps intervals — and TPSan re-derives the same lemmas with the
    same interval bookkeeping, so a misconception shared between the
    sweep and the sanitizer passes both silently. This module is the independent check: a deliberately
    naive, obviously-correct evaluator that

    - materializes both inputs point by point over the active timeline,
    - computes each snapshot's output rows from first principles (match
      rows with [λr ∧ λs], negation rows with [λr ∧ ¬(∨ λs)], unmatched
      rows with [λr] — §I / Table I; for the set operations, per fact:
      [λr ∨ λs], [λr ∧ λs], [λr ∧ ¬λs]; for a projection, the
      disjunction of the witnesses),
    - re-coalesces maximal intervals from the per-point rows, and
    - computes every probability by exact weighted model counting on the
      BDD ({!Tpdb_lineage.Prob.exact}), bypassing the read-once fast
      path and the probability cache the pipeline uses.

    {!diff} then compares an optimized result against that ground truth:
    facts and intervals exactly, lineages up to {e logical equivalence}
    (BDD equality, not syntax), probabilities within {!prob_tolerance}.
    {!check} sweeps the comparison across every execution-configuration
    axis the repo ships (parallelism, probability cache, sanitizer,
    out-of-core spilling and the statically safe probability path).

    All of them go through one point-wise materializer. Deliberately
    quadratic in active-domain size — an oracle, not an operator. It
    shares only {!Tpdb_interval.Interval} arithmetic, the lineage
    constructors and the set operations' schema names with the pipeline
    under test; none of the window machinery
    ({!Tpdb_windows.Flat_join}), the sweep bookkeeping, or
    {!Tpdb_joins.Concat}.

    With a {!Tpdb_obs.Metrics} sink installed, oracle work shows up as
    the [oracle_evals] / [oracle_comparisons] / [oracle_mismatches]
    counters and the [oracle_eval_ns] distribution; with a trace sink,
    each evaluation is an ["oracle"]-category span. *)

module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Prob = Tpdb_lineage.Prob
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Theta = Tpdb_windows.Theta
module Nj = Tpdb_joins.Nj

(** {2 Ground truth} *)

val eval :
  ?env:Prob.env ->
  kind:Nj.join_kind ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** The snapshot-semantics ground truth for [kind]: same schema
    conventions as {!Nj.join} (joined schema, null padding for the outer
    parts, renamed [r] schema for the anti join), maximal intervals,
    exact-WMC probabilities. [env] defaults to
    [Relation.prob_env [r; s]]. *)

val set_op :
  ?env:Prob.env -> kind:Nj.set_kind -> Relation.t -> Relation.t -> Relation.t
(** The snapshot-semantics ground truth of the set operation [kind]:
    facts compared with {!Tpdb_relation.Fact.equal} (two nulls are
    equal), the schema of {!Nj.set_op}. *)

val project : ?env:Prob.env -> columns:int list -> Relation.t -> Relation.t
(** The ground truth of the duplicate-eliminating TP projection
    ({!Tpdb_setops.Projection.project}): at every point, each projected
    fact once, with the disjunction of its witnesses' lineages. [env]
    defaults to [Relation.prob_env [r]]. *)

(** {2 Configurations} *)

type config = {
  jobs : int;
  prob_cache : bool;
  sanitize : bool;
  mem_budget : int;
  static_safe : bool;
}
(** One point of the execution-configuration space of {!Nj.options}.
    [mem_budget] (bytes, [0] = in-RAM) selects the out-of-core spilling
    executor; [static_safe] the statically safe probability path, where
    the sweep computes the probabilities. *)

val config :
  ?jobs:int ->
  ?prob_cache:bool ->
  ?sanitize:bool ->
  ?mem_budget:int ->
  ?static_safe:bool ->
  unit ->
  config
(** Defaults mirror {!Nj.options}: [jobs 1], [prob_cache true],
    [sanitize false], [mem_budget 0], [static_safe false]. *)

val config_name : config -> string
(** Compact label, e.g. ["jobs2+nocache+sanitize"]; ["default"] for the
    all-defaults configuration. *)

val options_of : config -> Nj.options

val default_configs : config list
(** The shipped sweep: jobs 1/2/4 × prob-cache on/off, plus the
    sanitizer sequential and at [jobs 2]; two tiny-budget
    ([mem_budget 1]) spilling variants that force every equi-θ scenario
    through the out-of-core executor, proving spilled output identical
    to the oracle's ground truth; and three statically safe variants (in
    RAM, [jobs 2], [mem_budget 1]), which {!check} runs only on
    {!static_safe_inputs}. *)

val static_safe_inputs : Relation.t -> Relation.t -> bool
(** The safe-plan classifier's precondition for a join of two scans
    ({!Tpdb_query.Analyze.read_once_safe}): both inputs duplicate-free,
    every lineage a bare variable, no variable twice, and no relation
    tag on both sides. *)

(** {2 Diffing} *)

val prob_tolerance : float
(** [1e-12]: the oracle computes probabilities by exact BDD WMC while
    the pipeline may use the read-once factorization — equal up to a few
    ulps, never more. *)

type mismatch =
  | Missing of Tuple.t
      (** required by the snapshot semantics, absent from the output *)
  | Unexpected of Tuple.t  (** present in the output, not in the truth *)
  | Lineage of { expected : Tuple.t; actual : Tuple.t }
      (** same fact and interval, lineages not logically equivalent *)
  | Probability of { expected : Tuple.t; actual : Tuple.t; delta : float }
      (** lineages equivalent, probabilities differ by more than
          {!prob_tolerance} *)
  | Schema of { expected : string list; actual : string list }
      (** output column lists differ *)

type operation = Join of Nj.join_kind | Set_op of Nj.set_kind

type divergence = {
  op : operation;
  config : config;
  mismatches : mismatch list;  (** non-empty *)
}

val diff : expected:Relation.t -> actual:Relation.t -> mismatch list
(** Tuple-level comparison of an optimized output against ground truth.
    Tuples are matched on (fact, interval) exactly — both sides emit
    maximal intervals, so a split or widened interval is a real
    divergence — then lineage (BDD equivalence), then probability
    (within {!prob_tolerance}). Empty iff the relations agree. *)

val check :
  ?configs:config list ->
  ?kinds:Nj.join_kind list ->
  ?set_kinds:Nj.set_kind list ->
  ?env:Prob.env ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  divergence list
(** Evaluates the oracle once per [kind] (default {!Nj.all_kinds}) and
    diffs [Nj.join] under every [config] (default {!default_configs})
    against it, skipping the [static_safe] ones unless
    {!static_safe_inputs} holds; then the same for [Nj.set_op] on every
    set operation of [set_kinds] (default none; θ does not apply), under
    the configurations that are not [static_safe]. Empty iff every
    configuration of every operation agrees with the snapshot
    semantics. *)

(** {2 Reporting} *)

val mismatch_to_string : mismatch -> string

val report : theta:Theta.t -> divergence -> string
(** Multi-line human-readable account of one divergence: operation, config,
    θ, and every mismatch. *)

val repro : theta:Theta.t -> Relation.t -> Relation.t -> string
(** A self-contained reproduction block: θ plus both inputs as CSV
    documents (the {!Tpdb_relation.Csv} format, loadable with
    [tpdb_cli]). Printed by the qcheck suite on shrunk counterexamples
    and written as artifacts by [tpdb_cli fuzz --oracle]. *)

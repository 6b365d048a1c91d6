(** Physical query plans.

    The planner lowers a TP-SQL AST into a tree of physical operators,
    mirroring how the paper's implementation appears inside PostgreSQL's
    executor: scans feed a TP join node (the NJ pipeline: the overlapping,
    LAWAU and LAWAN windows from one flat sweep), optionally topped by filter
    and projection nodes. [execute] streams tuples: filters and
    projections are fully pipelined; a join node materializes its inputs
    (the build phase, as a hash join does) and then streams its output
    windows through output formation. *)

module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Prob = Tpdb_lineage.Prob
module Theta = Tpdb_windows.Theta

type t =
  | Scan of Relation.t
  | Filter of { description : string; predicate : Tuple.t -> bool; child : t }
  | Project of { columns : int list; schema : Schema.t; child : t }
  | Tp_join of {
      kind : Tpdb_joins.Nj.join_kind;
      parallelism : int;
          (** partition count of the domain-parallel sweep; 1 = sequential *)
      sanitize : bool;
          (** run the TPSan window-invariant checks during execution *)
      prob_cache : bool;
          (** memoize output probabilities ({!Tpdb_joins.Nj.options}) *)
      safe_lineage : bool;
          (** statically proven read-once: probabilities go through
              {!Tpdb_lineage.Prob.factorize} with no runtime read-once
              check and no BDD fallback. Set by the planner from the
              safe-plan classification ({!Analyze}); [false] is always
              sound. *)
      mem_budget : int;
          (** out-of-core working-set budget in bytes for this join;
              [0] = not set here, so {!Tpdb_joins.Nj.options}'s
              [TPDB_MEM_BUDGET] fallback still applies *)
      est_rows : (int * int) option;
          (** catalog-statistics cardinalities of (left, right), when both
              inputs are base relations with stats — sizes the spill
              decision without counting the materialized inputs *)
      theta : Theta.t;
      left : t;
      right : t;
    }
  | Distinct_project of { columns : int list; schema : Schema.t; child : t }
      (** duplicate-eliminating TP projection: lineages of coinciding
          tuples are disjoined per time point *)
  | Timeslice of { window : Tpdb_interval.Interval.t; child : t }
      (** AT / DURING: clamp result validity to a window *)
  | Aggregate of {
      group_by : int list;
      spec : Tpdb_setops.Aggregate.spec;
      child : t;
    }  (** sequenced expected-value aggregation *)
  | Sort_limit of {
      description : string;
      compare : Tuple.t -> Tuple.t -> int;
      limit : int option;
      child : t;
    }  (** ORDER BY / LIMIT: blocking *)
  | Set_op of {
      kind : Tpdb_joins.Nj.set_kind;
      parallelism : int;
      sanitize : bool;
      prob_cache : bool;
      mem_budget : int;
      est_rows : (int * int) option;
          (** as on [Tp_join]; {!Tpdb_joins.Nj.set_op} runs on the join's
              executor, without the statically safe probability path *)
      left : t;
      right : t;
    }

val schema : t -> Schema.t

val children : t -> t list
(** Direct child subplans, left before right; empty for scans. *)

val fingerprint : t -> string
(** A 16-hex-digit normalized-plan fingerprint: FNV-1a 64 over the
    plan's canonical shape — operators, relation names, column lists, θ,
    join kind and executor — excluding the runtime execution knobs
    ([parallelism]/[sanitize]/[prob_cache]/[safe_lineage]), so the same
    optimized plan fingerprints identically however it is run. Stable
    across runs and processes: the query log groups by it, and the
    ROADMAP's prepared-plan cache will key on it. *)

val execute : env:Prob.env -> t -> Tuple.t Seq.t
(** Streams the plan's result. Recomputed on each traversal. *)

val to_relation : env:Prob.env -> t -> Relation.t

val explain : ?annotate:(t -> string) -> t -> string
(** Multi-line tree rendering; join nodes name their pipeline
    ([overlap[flat] -> LAWAU -> LAWAN]) and θ. [annotate] appends
    a per-node suffix to each line — the CLI renders the cost model's
    [[est rows=… cost=…]] columns this way — and defaults to nothing, so
    plain [explain] output is byte-identical to previous releases. *)

val q_error : est:float -> actual:int -> float
(** [max (est/actual) (actual/est)], both sides floored at one row so
    empty results stay finite. 1.0 is a perfect estimate. *)

val q_error_threshold : float
(** 16.0 — above this, {!analyze} flags the node's estimate as stale. *)

val analyze :
  ?estimate:(t -> float option) -> env:Prob.env -> t -> Relation.t * string
(** EXPLAIN ANALYZE: executes the plan bottom-up, materializing at node
    granularity, and returns the result plus the explain tree annotated
    with per-node output cardinality, exclusive wall time, and — for
    nodes that sweep windows — the per-class window counts
    ([WO]/[WU]/[WN]) read as deltas from the {!Tpdb_obs.Metrics} sink
    (a private sink is installed for the run when the caller has none).
    Wall times are human-scaled ([µs]/[ms]/[s], {!Tpdb_obs.Clock.pp_ms}),
    and a [Distributions:] footer reports n/p50/p90/p99/max for every
    distribution the run touched. With a {!Tpdb_obs.Trace} sink
    installed, every operator also records an [operator]-category span.

    [estimate] supplies the cost model's per-node row estimates
    ({!Cost.rows}); nodes with an estimate additionally get an
    [est=… q=…] column ({!q_error}), and a [cost-q-error] warning line
    is emitted under any node whose q-error exceeds
    {!q_error_threshold}. *)

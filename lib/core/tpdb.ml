(** Umbrella module: the full public API of the library.

    {1 Data model}
    - {!Interval}, {!Timeline}: half-open intervals over a discrete
      timeline and event-point computations.
    - {!Var}, {!Formula}: lineage variables and formulas.
    - {!Bdd}, {!Prob}: exact probability computation (weighted model
      counting) and the read-once fast path.
    - {!Value}, {!Fact}, {!Schema}, {!Tuple}, {!Relation}, {!Csv}: TP
      relations and persistence.

    {1 The paper's contribution}
    - {!Theta}: join conditions.
    - {!Window}: generalized lineage-aware temporal windows.
    - {!Tpdb_windows.Flat_join}: the sweep engine — overlapping,
      unmatched (LAWAU) and negating (LAWAN) windows in one pass over
      flat endpoint arrays.
    - {!Overlap}: the conventional outer join, TA's building block.
    - {!Spec}: the Table I definitions, executable (test oracle).
    - {!Nj}: TP inner/outer/anti joins over windows, and the TP set
      operations (prior work) as joins under fact equality.
    - {!Oracle}: the differential snapshot-semantics oracle — ground
      truth evaluated point by point and diffed against {!Nj.join} and
      {!Nj.set_op} across every execution configuration (behind the
      qcheck differential suite and [tpdb_cli fuzz]).

    {1 Baseline and extensions}
    - {!Align}, {!Ta}: the Temporal Alignment baseline.
    - {!Projection}, {!Aggregate}: duplicate-eliminating TP projection
      and sequenced aggregation.

    {1 Infrastructure}
    - {!Grouping}, {!Hash_partition}, {!Heap}, {!Sweep}: the executor
      pieces.
    - {!Pool}, {!Parallel}: the domain pool and the partitioned parallel
      executor behind [Nj.options ~parallelism] / the CLI's [--jobs].
    - {!Rng}, {!Datasets}: reproducible workload generation.
    - {!Ast}, {!Parser}, {!Catalog}, {!Planner}: the TP-SQL front end.
    - {!Analyze}, {!Invariant}: TPSan — the static plan analyzer behind
      [tpdb_cli check] (with the deep statistics-driven passes behind
      [check --deep]) and the runtime window-invariant sanitizer behind
      [--sanitize] / [TPDB_SANITIZE=1].
    - {!Stats}, {!Cost}: per-relation statistics ([tpdb_cli stats]) and
      the cardinality/cost model feeding EXPLAIN's estimate columns and
      the planner's join ordering.
    - {!Hist}, {!Metrics}, {!Trace}, {!Qlog}, {!Obs_clock}: the
      observability layer — lock-free log-bucketed histograms, atomic
      pipeline counters with quantile distributions ([--stats-json],
      [--stats-openmetrics], [bench --json]), span-based tracing with a
      Chrome trace-event exporter and optional per-span GC accounting
      ([--trace]), the structured JSONL query log ([--qlog],
      [tpdb_cli qlog]), and the shared monotonic clock. Metrics and
      Trace are no-ops until a sink is installed.
    - {!Server}, {!Server_client}, {!Server_protocol}: the long-lived
      concurrent-session database server ([tpdb_server]), its blocking
      client library ([tpdb_cli connect], [bench --server]) and the
      length-prefixed binary wire protocol. *)

module Interval = Tpdb_interval.Interval
module Timeline = Tpdb_interval.Timeline
module Var = Tpdb_lineage.Var
module Formula = Tpdb_lineage.Formula
module Bdd = Tpdb_lineage.Bdd
module Prob = Tpdb_lineage.Prob
module Value = Tpdb_relation.Value
module Fact = Tpdb_relation.Fact
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Relation = Tpdb_relation.Relation
module Csv = Tpdb_relation.Csv
module Grouping = Tpdb_engine.Grouping
module Hash_partition = Tpdb_engine.Hash_partition
module Heap = Tpdb_engine.Heap
module Sweep = Tpdb_engine.Sweep
module Pool = Tpdb_engine.Pool
module Parallel = Tpdb_engine.Parallel
module Theta = Tpdb_windows.Theta
module Window = Tpdb_windows.Window
module Overlap = Tpdb_windows.Overlap
module Spec = Tpdb_windows.Spec
module Render = Tpdb_windows.Render
module Concat = Tpdb_joins.Concat
module Nj = Tpdb_joins.Nj
module Oracle = Tpdb_oracle.Oracle
module Align = Tpdb_alignment.Align
module Ta = Tpdb_alignment.Ta
module Projection = Tpdb_setops.Projection
module Aggregate = Tpdb_setops.Aggregate
module Codec = Tpdb_storage.Codec
module Heap_file = Tpdb_storage.Heap_file
module Buffer_pool = Tpdb_storage.Buffer_pool
module Spill = Tpdb_storage.Spill
module Db = Tpdb_storage.Db
module Rng = Tpdb_workload.Rng
module Datasets = Tpdb_workload.Datasets
module Ast = Tpdb_query.Ast
module Lexer = Tpdb_query.Lexer
module Parser = Tpdb_query.Parser
module Catalog = Tpdb_query.Catalog
module Physical = Tpdb_query.Physical
module Planner = Tpdb_query.Planner
module Analyze = Tpdb_query.Analyze
module Stats = Tpdb_query.Stats
module Cost = Tpdb_query.Cost
module Invariant = Tpdb_windows.Invariant
module Hist = Tpdb_obs.Hist
module Metrics = Tpdb_obs.Metrics
module Trace = Tpdb_obs.Trace
module Qlog = Tpdb_obs.Qlog
module Obs_clock = Tpdb_obs.Clock
module Gc_events = Tpdb_obs.Gc_events
module Server = Tpdb_server_lib.Server
module Server_client = Tpdb_server_lib.Client
module Server_protocol = Tpdb_server_lib.Protocol
module Server_store = Tpdb_server_lib.Store
module Server_admission = Tpdb_server_lib.Admission
module Server_plan_cache = Tpdb_server_lib.Plan_cache
module Server_result_cache = Tpdb_server_lib.Result_cache

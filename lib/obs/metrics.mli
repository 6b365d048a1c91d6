(** Cheap runtime metrics for the sweeping-window pipeline.

    A {!t} is a fixed set of atomic counters and value distributions —
    each distribution a lock-free log-bucketed histogram ({!Hist}) with
    exact count/sum/min/max and p50/p90/p99 quantiles at ≤ ~6% relative
    error — that the instrumented code updates through the process-global
    {e sink}. With no sink installed every recording entry point is a
    single flat check ([Atomic.get] + pattern match) and touches nothing
    else, so instrumentation stays in the hot paths permanently at
    near-zero cost; installing a sink (the CLI's [--stats-json],
    [bench/main.exe --json], or [EXPLAIN ANALYZE]) turns the counters on
    for the extent of a run.

    Counter and histogram updates are atomic and therefore correct under
    the domain-parallel partitioned executor; a counter's value is exact
    once the run being measured has completed.

    Besides the fixed distributions there is a dynamic, labeled family
    ({!observe_labeled}): per-span allocation histograms
    ([alloc_minor_words]/[alloc_major_words] keyed by span name) that
    {!Tpdb_obs.Trace} feeds when GC accounting is on.

    Naming: the snapshot/JSON key of a counter or distribution is its
    constructor name lower-cased ([Windows_overlapping] →
    ["windows_overlapping"]). docs/INTERNALS.md carries the full
    operator → span → counter reference table. *)

type counter =
  | Tuples_in  (** input tuples entering a TP join (both sides) *)
  | Tuples_out  (** result tuples leaving a TP join *)
  | Windows_overlapping  (** WO windows created by the overlap stage *)
  | Windows_unmatched
      (** WU windows: spanning (matchless tuple, unmatched right side)
          plus the maximal gap windows LAWAU sweeps out *)
  | Windows_negating  (** WN windows created by LAWAN *)
  | Sweep_segments
      (** maximal constant-coverage segments emitted by the generic
          interval sweep (LAWAN, TP projection, sequenced aggregation) *)
  | Lineage_nodes
      (** formula nodes (connectives + variables) of output lineages *)
  | Prob_evals  (** probability computations ({!Tpdb_lineage.Prob}) *)
  | Partition_sweeps  (** per-partition sweeps run by the domain pool *)
  | Sanitizer_checks  (** TPSan group/output checks executed *)
  | Oracle_evals
      (** snapshot-semantics evaluations run by {!Tpdb_oracle.Oracle} *)
  | Oracle_comparisons
      (** (kind, configuration) diffs of [Nj.join] output against the
          oracle's ground truth *)
  | Oracle_mismatches
      (** individual tuple-level mismatches found by those diffs — 0 on
          a healthy pipeline *)
  | Minor_alloc_words
      (** words allocated on the recording domain's minor heap inside
          {!count_alloc} extents ([Gc.minor_words] deltas) —
          the bench harness wraps every sweep point, so the bench
          regression gate can bound allocation growth of the sweep
          pipeline. New counters must be appended at the end: snapshots
          and the [counter_index] layout are positional. *)
  | Analysis_deep_passes
      (** deep static-analysis runs ({!Tpdb_query.Analyze}'s
          [check_deep]) *)
  | Analysis_pruned_subplans
      (** provably-empty subplans replaced by empty scans at plan time *)
  | Analysis_folded_atoms
      (** duplicate/subsumed θ atoms folded away by [Theta.simplify] *)
  | Analysis_safe_joins
      (** TP join nodes statically classified read-once-safe and tagged
          so probability computation skips the runtime read-once check *)
  | Analysis_static_prob_evals
      (** probability evaluations through the unchecked factorized fast
          path ({!Tpdb_lineage.Prob.factorize}) on statically safe plans *)
  | Prob_readonce_checks
      (** runtime read-once checks performed ({!Tpdb_lineage.Prob.read_once}
          entries) — 0 on a statically safe plan *)
  | Prob_bdd_fallbacks
      (** probability computations that fell back to exact BDD weighted
          model counting (repeated-variable lineage) *)
  | Major_alloc_words
      (** words allocated directly on the major heap inside
          {!count_alloc} extents ([Gc.counters] major-word deltas;
          includes promoted words, per the [Gc] accounting) *)
  | Promoted_words
      (** minor-heap words that survived a minor collection inside
          {!count_alloc} extents — the share of [Major_alloc_words] that
          is promotion rather than direct major allocation *)
  | Spill_bytes
      (** bytes written to spill partition files by the out-of-core
          executor — 0 unless a join actually spilled, so the CI
          memory-ceiling gate can assert spilling happened *)
  | Spill_partitions
      (** spill partitions created (per side pair, not per file) *)
  | Pool_hits  (** buffer-pool page reads answered from the cache *)
  | Pool_misses  (** buffer-pool page reads that went to disk *)
  | Server_queries
      (** queries executed by {!Tpdb_server_lib.Server} (QUERY and
          EXECUTE commands that reached the engine, cached or not) *)
  | Server_rejections
      (** queries refused with [Server_overloaded] by admission control
          (queue full) — bounded-memory backpressure, not failures *)
  | Plan_cache_hits
      (** QUERY/EXECUTE answered by a cached still-valid physical plan
          (keyed on the normalized-AST fingerprint) *)
  | Plan_cache_misses
      (** plan-cache lookups that had to plan (first sight of the
          fingerprint, or base-relation versions moved) *)
  | Result_cache_hits
      (** queries answered entirely from the lineage-aware result cache
          (plan fingerprint × input digests unchanged) *)
  | Result_cache_misses  (** result-cache lookups that had to execute *)
  | Sessions_opened  (** client sessions accepted by the server *)
  | Sessions_closed  (** client sessions ended (disconnect or error) *)

type dist =
  | Partition_size  (** tuples (both sides) per parallel partition *)
  | Domain_busy_ns  (** wall time of each partition sweep, on its domain *)
  | Sanitizer_ns  (** wall time spent inside TPSan checks *)
  | Oracle_eval_ns
      (** wall time of each snapshot-semantics oracle evaluation *)
  | Analysis_ns
      (** wall time of each deep static-analysis pass over a plan *)
  | Spill_partition_bytes
      (** encoded on-disk bytes of each spill partition (both sides of
          one partition index together) *)
  | Pool_hit_rate
      (** buffer-pool hit rate over one spilled join, in permille
          (hits × 1000 / (hits + misses)) — one observation per spilled
          join *)
  | Server_query_ns
      (** wall time from dequeue to response for each server query
          (execution only; queueing time is {!Server_queue_ns}) *)
  | Server_queue_ns
      (** wall time each admitted query spent waiting in the admission
          queue before a worker picked it up *)

type t
(** A metrics registry. Create one per measured run; reuse reads
    accumulate. *)

type dist_stats = { count : int; sum : int; min : int; max : int }
(** Exact moments of a distribution; [min] is 0 when empty. Quantiles
    come from {!dist_snapshot}/{!quantile}. *)

type snapshot = {
  counters : (string * int) list;  (** every counter, declaration order *)
  dists : (string * Hist.snapshot) list;  (** every distribution *)
  labeled : (string * string * Hist.snapshot) list;
      (** (metric, label, histogram) of the dynamic labeled family,
          sorted by metric then label — e.g.
          [("alloc_minor_words", "nj-left-outer", …)] *)
}

val create : unit -> t

(** {2 The global sink} *)

val install : t -> unit
(** Make [t] the process-global sink. Replaces any previous sink. *)

val uninstall : unit -> unit

val with_sink : t -> (unit -> 'a) -> 'a
(** Installs [t], runs the thunk, restores the previously installed sink
    (even on exceptions). *)

val active : unit -> t option
val enabled : unit -> bool

(** {2 Recording (no-ops without a sink)} *)

val incr : counter -> unit
val add : counter -> int -> unit
val observe : dist -> int -> unit

val observe_labeled : metric:string -> label:string -> int -> unit
(** Record into the dynamic labeled histogram family — [metric] names
    the family (e.g. ["alloc_minor_words"]), [label] the member (e.g. a
    span name). Creation of a new member takes a mutex; recording into
    an existing one is the histogram's wait-free path plus the lookup.
    Intended for span-close-granularity events, not sweep hot loops. *)

val time : dist -> (unit -> 'a) -> 'a
(** Runs the thunk; with a sink installed, additionally observes its
    wall-clock duration in nanoseconds into [dist]. *)

val count_alloc : counter -> (unit -> 'a) -> 'a
(** Runs the thunk; with a sink installed, additionally adds the GC
    allocation deltas of the current domain: minor words (from
    [Gc.minor_words], exact without an intervening collection) into
    [counter], major-heap words into {!Major_alloc_words} and promoted
    words into {!Promoted_words} (both from [Gc.counters]). Allocations
    made by other domains — e.g. the partitioned sweep's workers — are
    not counted. *)

(** {2 Reading} *)

val get : t -> counter -> int

val dist_stats : t -> dist -> dist_stats

val dist_snapshot : t -> dist -> Hist.snapshot
(** The full histogram snapshot behind a distribution. *)

val quantile : t -> dist -> float -> int
(** [quantile t d q] = [Hist.quantile (dist_snapshot t d) q]. *)

val mean : dist_stats -> float
(** [sum/count], 0 when empty. *)

val counter_name : counter -> string
val dist_name : dist -> string
val snapshot : t -> snapshot
val reset : t -> unit

val to_json : t -> string
(** The machine-readable stats document behind [tpdb_cli query
    --stats-json] (embedded verbatim by the bench harness):
    [{"counters": {..}, "distributions": {"partition_size": {"count": n,
    "sum": n, "min": n, "max": n, "mean": x, "p50": n, "p90": n,
    "p99": n}, ..}, "span_distributions": {"alloc_minor_words":
    {"<span>": {..}}, ..}}]. *)

val save : t -> string -> unit
(** Writes {!to_json} (newline-terminated) to a file. *)

val to_openmetrics : t -> string
(** The OpenMetrics 1.0 text exposition of the registry, ready for a
    Prometheus scrape endpoint: every counter as a [counter] family
    ([tpdb_<name>_total]), every distribution as a [summary] family
    (quantiles 0.5/0.9/0.99 plus [_count]/[_sum]) with a [_max] gauge,
    and every labeled histogram as a summary family with a
    [span="<label>"] label. Terminated by [# EOF]. *)

val save_openmetrics : t -> string -> unit
(** Writes {!to_openmetrics} to a file ([--stats-openmetrics]). *)

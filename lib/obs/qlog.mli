(** Structured query log: one JSONL record per executed query.

    Each {!record} captures what the ROADMAP's prepared-plan cache and
    the future [tpdb_server] need per query: the normalized-plan
    {!record.fingerprint} (a stable hash of the optimized plan shape —
    two runs of the same query text share it, distinct plans differ),
    per-stage wall times summed from the trace spans, the window-class
    counts, row cardinalities, prob-cache traffic, sanitizer time, and
    the run's GC deltas. Records append to a JSONL file ({!append}),
    load back ({!load}), and aggregate into a fingerprint-grouped
    summary with quantile columns ({!summarize} — the [tpdb_cli qlog]
    subcommand).

    A query slower than the [--slow-ms] / [TPDB_SLOW_MS] threshold is
    marked {!record.slow} and the CLI dumps its full Chrome trace next
    to the log ({!record.trace_file} points at it). *)

type gc = {
  minor_words : int;
  major_words : int;
  promoted_words : int;
  major_collections : int;
  top_heap_words : int;  (** peak major heap over the process so far *)
}

type record = {
  ts : string;  (** UTC, ISO-8601 ([2026-08-08T12:00:00Z]) *)
  query : string;  (** the query text as given *)
  fingerprint : string;  (** normalized optimized-plan fingerprint *)
  total_ms : float;  (** end-to-end wall time: plan + run + probability *)
  rows_in : int;
  rows_out : int;
  wo : int;  (** overlapping windows *)
  wu : int;  (** unmatched windows *)
  wn : int;  (** negating windows *)
  spill_bytes : int;  (** bytes the out-of-core executor wrote; 0 = in RAM *)
  spill_partitions : int;  (** spill partition count across the query's joins *)
  sanitizer_ms : float;
  stages : (string * float) list;  (** span name → summed wall ms *)
  gc : gc;
  slow : bool;  (** total_ms exceeded the slow-query threshold *)
  trace_file : string option;  (** auto-dumped Chrome trace, if slow *)
}

val to_json : record -> string
(** One line, no embedded newlines — a JSONL row. *)

val append : string -> record -> unit
(** Appends [to_json record] plus a newline to the file, creating it if
    needed. One [open(O_APPEND)]/write/close per record: concurrent
    writers from different processes interleave at line granularity. *)

val load : string -> record list
(** Parses a JSONL file written by {!append}, in file order. Malformed
    or foreign lines are skipped; unknown fields are ignored, missing
    fields default to zero/empty (so the format can grow). *)

val summarize : ?top:int -> ?by:[ `Total | `Mean ] -> record list -> string
(** A human-readable table grouped by fingerprint: runs, total/mean
    wall ms, p50/p90/p99/max (log-bucketed, ≤ ~6% relative error), slow
    count, and a sample query per group; sorted by [by] (default
    [`Total]) descending, truncated to [top] (default 10) groups. *)

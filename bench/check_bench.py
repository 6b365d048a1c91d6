#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a freshly generated bench JSON report (bench/main.exe --json)
against the committed baseline (BENCH_9.json at the repo root). Timings
are machine-dependent and ignored; everything the pipeline counts
deterministically must match the baseline exactly:

  - every sweep point's (series, size, output cardinality)
  - window counts per class (overlapping / unmatched / negating)
  - the deterministic metrics counters (tuples in/out, sweep segments,
    lineage nodes, prob evals, BDD fallbacks, ...)
  - partition counts and sizes of the domain-parallel sweeps
  - the composed block's rows, probabilities and BDD fallbacks

On top of the exact checks, two machine-independent performance
invariants of the CURRENT report:

  - the flat sweep core must stay >= --sweep-ratio-floor (default 4.2x)
    faster than TA's conventional outer join (the "conventional" series)
    at the "Flat scale" sweep's ratio size — both sides are measured in
    the same process on the same machine, so the ratio is a property of
    the code. The floor is 5x the flat kernel's old speed-up over the
    deleted Seq-of-records chain, re-expressed against the conventional
    join, which took 0.83x the chain's time (median of 7 same-process
    runs);
  - minor-heap allocation (the minor_alloc_words counter, summed over
    every sweep point) may not grow more than --alloc-tolerance
    (default 15%) over the baseline. It is near-deterministic but not
    exactly so (domain scheduling moves worker allocations off the
    recording domain), hence a tolerance instead of an exact match.

Usage: check_bench.py BASELINE CURRENT
                      [--sweep-ratio-floor F] [--alloc-tolerance F]
                      [--require-counter NAME]... [--pool-hit-rate-floor F]
                      [--qps-floor F] [--p99-ceiling-ms F]
                      [--render-words-per-byte-ceiling F]
                      [--join-words-per-row-ceiling F]
                      [--intern-words-per-hit-ceiling F]
                      [--csv-words-per-byte-ceiling F]
                      [--spill-words-per-tuple-ceiling F]
                      [--forced-minor-ceiling N]
Exits non-zero on the first class of failure, printing every diff.

Result rendering: the current report's "render" block carries the
bytes of the four-operator Meteo output at a fixed seed and the minor
words spent rendering them, through Relation.pp and through
Relation.to_string. Both counts are deterministic, so words per byte
is a property of the code. --render-words-per-byte-ceiling F fails
when either path allocates more than F minor words per rendered byte,
or when the block is missing. The Format-based renderer spent about
4.9 words per byte; the buffer writers spend well under 1.

Join allocation: the "join" block carries the output rows of the
same four-operator Meteo round, planned through the query planner (so
the joins take the statically safe path), and the minor words spent
executing it. --join-words-per-row-ceiling F fails when executing
allocates more than F minor words per output row, or when the block is
missing.

Lineage interning: the "lineage" block carries the output-lineage
formations of the same four-operator Meteo round ([&&&] for an
overlapping window, [and_not] for a negating one), replayed twice in a
fresh domain, and the minor words of each pass: the first interns
every node, the second finds every node in the unique table.
--intern-words-per-hit-ceiling F fails when a formation that finds its
node allocates more than F minor words on average, or when the block
is missing. The Hashtbl-keyed table spent about 43 words per hit
(key lists, options and the junct list); the open-addressing table
probed by child ids spends none.

Composed queries: the "composed" block carries the output rows of full
outer and anti joins over a derived input (t = r full outer join s on
8-key uniform pairs of 200 and 400 tuples per side, then t with s), the
probabilities they computed (prob_evals), how many of those left the
read-once path for a BDD (prob_bdd_fallbacks), and the words they
allocated straight into the major heap (major minus promoted). Rows,
prob_evals and prob_bdd_fallbacks must match the baseline exactly: a
change there means output formation priced a different set of
lineages, or the read-once check classified them differently. Whenever
the current report has the block, its direct major words per BDD
fallback may not exceed COMPOSED_MAJOR_WORDS_PER_FALLBACK_CEILING (64).
A BDD manager with fixed 1024-slot tables spent about 3080 per
fallback; one sized from its formula keeps its tables in the minor
heap, and the joins' own large arrays come to 7.2 per fallback (the
same in every run: the count is deterministic). Any table of more than
256 words built per fallback lands in the major heap and costs at
least 257, so the ceiling sits between the two with room for the
joins' own arrays to grow ninefold.

CSV loading: the "csv" block carries the bytes of a Webkit pair's CSV
files at a fixed seed and the minor words Csv.load spends reading them.
--csv-words-per-byte-ceiling F fails when loading allocates more than F
minor words per input byte, or when the block is missing. The
line-list parser spent about 5.5 words per byte; the in-place parser
spends about 1.

Spilling: the "spill" block carries the tuples of the same Webkit pair
and the minor words spent partitioning it into a spill file at a
256 KiB budget, reading every partition back and finishing the spill.
--spill-words-per-tuple-ceiling F fails when that allocates more than F
minor words per tuple, or when the block is missing. The per-partition
files with a list-building reader spent about 180 words per tuple; the
single held-open file with the array decoder spends about 67.

Forced minor collections: the "gc" block carries, for each of the
join, csv and spill blocks' measured passes, the minor collections
the runtime's event ring recorded and how many of them caml_make_vect
forced (on OCaml 5, Array.make/init/map/of_list/of_seq of more than 256
elements from a value still in the minor heap runs a stop-the-world
minor collection first). --forced-minor-ceiling N fails when any of
the three passes was forced into more than N, when the ring lost
events (they could hide one), or when the block or one of its passes
is missing. Arrays grown by Array.make from the pushed value forced 19
minor collections in the join pass and 2 in the csv pass (the spill
pass, spill I/O alone, already forced none); the library now forces
none.

Server reports (bench/main.exe --server --json) carry a "server" block
with client-side latency and throughput plus the plan-/result-cache
counters. Two extra gates apply to the current report's server block:

  - --qps-floor F asserts server.qps >= F — a deliberately loose
    floor that catches the server serializing everything (e.g. cache
    lookups accidentally moved behind the admission queue) without
    being sensitive to CI machine speed;
  - --p99-ceiling-ms F asserts server.p99_ms <= F, same spirit.

Both also fail on any server-side errors or row mismatches recorded in
the block, and on a missing block when either flag is set.

Single-file mode: with only one report (check_bench.py CURRENT) every
baseline comparison is skipped and only the current-report invariants
run — used by the out-of-core CI job, whose --spill-only report has no
baseline and no flat-scale sweep. The flat sweep ratio floor, which
depends on a sweep absent from such a report, is skipped when its data
is missing instead of failing; --require-counter and
--pool-hit-rate-floor are the teeth:

  - --require-counter NAME (repeatable) asserts the counter is present
    and non-zero in the current report. The CI memory-ceiling job
    requires spill_bytes and spill_partitions, so a silent in-RAM
    fallback (which would pass the output checks while ignoring the
    budget) fails the gate.
  - --pool-hit-rate-floor F asserts pool_hits / (pool_hits +
    pool_misses) >= F: a hit-rate collapse means the buffer pool's
    eviction stopped earning hits on the sequential partition sweeps.
"""

import argparse
import json
import sys

# Monotonic-time distributions (and the derived mean of partition_size)
# vary run to run; everything else in the report is deterministic.
DETERMINISTIC_COUNTERS = [
    "tuples_in",
    "tuples_out",
    "windows_overlapping",
    "windows_unmatched",
    "windows_negating",
    "sweep_segments",
    "lineage_nodes",
    "prob_evals",
    "partition_sweeps",
    "sanitizer_checks",
    "prob_bdd_fallbacks",
]

# The composed block's deterministic fields, compared exactly, and its
# ceiling on words allocated straight into the major heap per BDD
# fallback (see the docstring).
COMPOSED_FIELDS = ("rows", "prob_evals", "prob_bdd_fallbacks")
COMPOSED_MAJOR_WORDS_PER_FALLBACK_CEILING = 64


def flat_sweep_ratio(doc):
    """conventional ms / flat-kernel ms at the smallest common size of
    the "Flat scale" sweep; None if the sweep or either series is
    absent."""
    for sweep in doc["sweeps"]:
        if not sweep["name"].startswith("Flat scale"):
            continue
        by_series = {}
        for point in sweep["points"]:
            by_series.setdefault(point["series"], {})[point["size"]] = point["ms"]
        common = sorted(
            set(by_series.get("conventional", {}))
            & set(by_series.get("flat-kernel", {}))
        )
        if common:
            size = common[0]
            return by_series["conventional"][size] / by_series["flat-kernel"][size]
    return None


def sweep_points(doc):
    return {
        (sweep["name"], point["series"], point["size"]): point["output"]
        for sweep in doc["sweeps"]
        for point in sweep["points"]
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline", help="baseline report (or the sole report)")
    parser.add_argument("current", nargs="?", default=None)
    parser.add_argument("--sweep-ratio-floor", type=float, default=4.2)
    parser.add_argument("--alloc-tolerance", type=float, default=0.15)
    parser.add_argument(
        "--require-counter",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless this metrics counter is present and non-zero "
        "in the current report (repeatable)",
    )
    parser.add_argument(
        "--pool-hit-rate-floor",
        type=float,
        default=None,
        metavar="F",
        help="fail unless pool_hits / (pool_hits + pool_misses) >= F",
    )
    parser.add_argument(
        "--qps-floor",
        type=float,
        default=None,
        metavar="F",
        help="fail unless the server block reports qps >= F",
    )
    parser.add_argument(
        "--p99-ceiling-ms",
        type=float,
        default=None,
        metavar="F",
        help="fail unless the server block reports p99_ms <= F",
    )
    parser.add_argument(
        "--render-words-per-byte-ceiling",
        type=float,
        default=None,
        metavar="F",
        help="fail unless rendering the render block's output allocates "
        "at most F minor words per byte, through pp and to_string",
    )
    parser.add_argument(
        "--join-words-per-row-ceiling",
        type=float,
        default=None,
        metavar="F",
        help="fail unless executing the join block's queries allocates at "
        "most F minor words per output row",
    )
    parser.add_argument(
        "--intern-words-per-hit-ceiling",
        type=float,
        default=None,
        metavar="F",
        help="fail unless forming the lineage block's output lineages "
        "allocates at most F minor words per call once every node is "
        "interned",
    )
    parser.add_argument(
        "--csv-words-per-byte-ceiling",
        type=float,
        default=None,
        metavar="F",
        help="fail unless loading the csv block's files allocates at most "
        "F minor words per input byte",
    )
    parser.add_argument(
        "--spill-words-per-tuple-ceiling",
        type=float,
        default=None,
        metavar="F",
        help="fail unless spilling the spill block's pair and reading it "
        "back allocates at most F minor words per tuple",
    )
    parser.add_argument(
        "--forced-minor-ceiling",
        type=int,
        default=None,
        metavar="N",
        help="fail unless each of the gc block's join, csv and spill "
        "passes was forced into at most N minor collections",
    )
    args = parser.parse_args()

    single_file = args.current is None
    with open(args.baseline) as f:
        first = json.load(f)
    if single_file:
        baseline, current = None, first
    else:
        baseline = first
        with open(args.current) as f:
            current = json.load(f)

    # The meta block (git commit, OCaml version, host, timestamp, jobs)
    # is provenance, not behavior: never part of the comparison.
    if baseline is not None:
        baseline.pop("meta", None)
    current.pop("meta", None)

    failures = []

    cur_points = sweep_points(current)
    cur_counters = current["metrics"]["counters"]

    if baseline is not None:
        base_points = sweep_points(baseline)
        for key in sorted(set(base_points) | set(cur_points)):
            b, c = base_points.get(key), cur_points.get(key)
            if b != c:
                failures.append(
                    f"sweep point {key}: baseline output {b}, current {c}"
                )

        for cls, b in baseline["windows"].items():
            c = current["windows"].get(cls)
            if b != c:
                failures.append(f"windows.{cls}: baseline {b}, current {c}")

        base_counters = baseline["metrics"]["counters"]
        for name in DETERMINISTIC_COUNTERS:
            b, c = base_counters.get(name), cur_counters.get(name)
            if b != c:
                failures.append(f"counter {name}: baseline {b}, current {c}")

        for field in ("sweeps", "max_size"):
            b = baseline["partition_skew"][field]
            c = current["partition_skew"][field]
            if b != c:
                failures.append(
                    f"partition_skew.{field}: baseline {b}, current {c}"
                )

        composed_base = baseline.get("composed", {})
        composed_cur = current.get("composed", {})
        for name in COMPOSED_FIELDS:
            b, c = composed_base.get(name), composed_cur.get(name)
            if b != c:
                failures.append(f"composed.{name}: baseline {b}, current {c}")

        alloc_base = base_counters.get("minor_alloc_words")
        alloc_cur = cur_counters.get("minor_alloc_words")
        if alloc_base and alloc_cur is not None:
            growth = alloc_cur / alloc_base - 1.0
            if growth > args.alloc_tolerance:
                failures.append(
                    f"minor_alloc_words grew {100 * growth:.1f}% "
                    f"(baseline {alloc_base}, current {alloc_cur}, "
                    f"tolerance {100 * args.alloc_tolerance:.0f}%)"
                )

    sweep_ratio = flat_sweep_ratio(current)
    if sweep_ratio is None:
        if not single_file:
            failures.append(
                'no "Flat scale" sweep with conventional + flat-kernel points'
            )
    elif sweep_ratio < args.sweep_ratio_floor:
        failures.append(
            f"flat sweep-throughput ratio {sweep_ratio:.2f}x below floor "
            f"{args.sweep_ratio_floor}x (conventional ms / flat-kernel ms)"
        )

    for name in args.require_counter:
        value = cur_counters.get(name)
        if value is None:
            failures.append(f"required counter {name} missing from report")
        elif value <= 0:
            failures.append(f"required counter {name} is {value}, expected > 0")

    pool_hits = cur_counters.get("pool_hits", 0)
    pool_misses = cur_counters.get("pool_misses", 0)
    pool_rate = (
        pool_hits / (pool_hits + pool_misses) if pool_hits + pool_misses else 0.0
    )
    if args.pool_hit_rate_floor is not None:
        if pool_hits + pool_misses == 0:
            failures.append(
                "pool hit-rate floor set but the report recorded no "
                "buffer-pool reads"
            )
        elif pool_rate < args.pool_hit_rate_floor:
            failures.append(
                f"buffer-pool hit rate {pool_rate:.3f} below floor "
                f"{args.pool_hit_rate_floor}"
            )

    server = current.get("server")
    if args.qps_floor is not None or args.p99_ceiling_ms is not None:
        if server is None:
            failures.append(
                "server gates set but the report has no server block"
            )
        else:
            if server.get("errors", 0) or server.get("row_mismatches", 0):
                failures.append(
                    f"server bench recorded {server.get('errors', 0)} errors "
                    f"and {server.get('row_mismatches', 0)} row mismatches"
                )
            if args.qps_floor is not None and server["qps"] < args.qps_floor:
                failures.append(
                    f"server qps {server['qps']:.0f} below floor "
                    f"{args.qps_floor:.0f}"
                )
            if (
                args.p99_ceiling_ms is not None
                and server["p99_ms"] > args.p99_ceiling_ms
            ):
                failures.append(
                    f"server p99 {server['p99_ms']:.2f} ms above ceiling "
                    f"{args.p99_ceiling_ms:.2f} ms"
                )

    render = current.get("render")
    if args.render_words_per_byte_ceiling is not None:
        if render is None:
            failures.append(
                "render ceiling set but the report has no render block"
            )
        else:
            for path in ("pp", "to_string"):
                ratio = render[f"{path}_words_per_byte"]
                if ratio > args.render_words_per_byte_ceiling:
                    failures.append(
                        f"rendering through {path} allocates {ratio:.3f} "
                        f"minor words per byte ({render[f'{path}_minor_words']} "
                        f"words for {render['bytes']} bytes), above ceiling "
                        f"{args.render_words_per_byte_ceiling}"
                    )

    join = current.get("join")
    if args.join_words_per_row_ceiling is not None:
        if join is None:
            failures.append("join ceiling set but the report has no join block")
        elif join["words_per_row"] > args.join_words_per_row_ceiling:
            failures.append(
                f"executing the join block allocates "
                f"{join['words_per_row']:.1f} minor words per row "
                f"({join['minor_words']} words for {join['rows']} rows), "
                f"above ceiling {args.join_words_per_row_ceiling}"
            )

    lineage = current.get("lineage")
    if args.intern_words_per_hit_ceiling is not None:
        if lineage is None:
            failures.append(
                "intern ceiling set but the report has no lineage block"
            )
        elif lineage["words_per_hit"] > args.intern_words_per_hit_ceiling:
            failures.append(
                f"forming the lineage block's output lineages allocates "
                f"{lineage['words_per_hit']:.2f} minor words per hit "
                f"({lineage['hit_minor_words']} words for "
                f"{lineage['calls']} calls), above ceiling "
                f"{args.intern_words_per_hit_ceiling}"
            )

    composed = current.get("composed")
    if (
        composed is not None
        and composed["major_words_per_fallback"]
        > COMPOSED_MAJOR_WORDS_PER_FALLBACK_CEILING
    ):
        failures.append(
            f"the composed block allocates "
            f"{composed['major_words_per_fallback']:.1f} direct major "
            f"words per BDD fallback ({composed['direct_major_words']} "
            f"words for {composed['prob_bdd_fallbacks']} fallbacks), "
            f"above ceiling {COMPOSED_MAJOR_WORDS_PER_FALLBACK_CEILING}"
        )

    csv = current.get("csv")
    if args.csv_words_per_byte_ceiling is not None:
        if csv is None:
            failures.append("csv ceiling set but the report has no csv block")
        elif csv["words_per_byte"] > args.csv_words_per_byte_ceiling:
            failures.append(
                f"loading the csv block allocates "
                f"{csv['words_per_byte']:.3f} minor words per byte "
                f"({csv['minor_words']} words for {csv['bytes']} bytes), "
                f"above ceiling {args.csv_words_per_byte_ceiling}"
            )

    spill = current.get("spill")
    if args.spill_words_per_tuple_ceiling is not None:
        if spill is None:
            failures.append("spill ceiling set but the report has no spill block")
        elif spill["words_per_tuple"] > args.spill_words_per_tuple_ceiling:
            failures.append(
                f"spilling the spill block allocates "
                f"{spill['words_per_tuple']:.1f} minor words per tuple "
                f"({spill['minor_words']} words for {spill['tuples']} tuples), "
                f"above ceiling {args.spill_words_per_tuple_ceiling}"
            )

    gc = current.get("gc")
    if args.forced_minor_ceiling is not None:
        if gc is None:
            failures.append("forced-minor ceiling set but the report has no gc block")
        else:
            for name in ("join", "csv", "spill"):
                block = gc.get(name)
                if block is None:
                    failures.append(f"the gc block has no {name} pass")
                elif block["lost_events"] > 0:
                    failures.append(
                        f"the {name} pass lost {block['lost_events']} runtime "
                        f"events, so its forced count is not reliable"
                    )
                elif block["forced_make_vect"] > args.forced_minor_ceiling:
                    failures.append(
                        f"the {name} pass forced {block['forced_make_vect']} of "
                        f"its {block['minor']} minor collections, above ceiling "
                        f"{args.forced_minor_ceiling}"
                    )
    if failures:
        print(f"bench regression check FAILED ({len(failures)} diffs):")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)

    summary = [f"{len(cur_points)} sweep points"]
    if sweep_ratio is not None:
        summary.append(f"flat sweep ratio {sweep_ratio:.2f}x")
    if args.require_counter:
        summary.append(
            "counters "
            + ", ".join(f"{n}={cur_counters.get(n)}" for n in args.require_counter)
        )
    if args.pool_hit_rate_floor is not None:
        summary.append(f"pool hit rate {pool_rate:.3f}")
    if render is not None:
        summary.append(
            f"render {render['pp_words_per_byte']:.3f} (pp) / "
            f"{render['to_string_words_per_byte']:.3f} (to_string) "
            f"words per byte of {render['bytes']}"
        )
    if join is not None:
        summary.append(f"join {join['words_per_row']:.1f} words per row")
    if lineage is not None:
        summary.append(f"lineage {lineage['words_per_hit']:.2f} words per hit")
    if composed is not None:
        summary.append(
            f"composed {composed['major_words_per_fallback']:.1f} major "
            f"words per fallback"
        )
    if csv is not None:
        summary.append(f"csv {csv['words_per_byte']:.3f} words per byte")
    if spill is not None:
        summary.append(f"spill {spill['words_per_tuple']:.1f} words per tuple")
    if gc is not None:
        summary.append(
            "forced minor collections "
            + ", ".join(f"{n} {b['forced_make_vect']}/{b['minor']}" for n, b in gc.items())
        )
    if server is not None:
        summary.append(
            f"server {server['qps']:.0f} q/s p99 {server['p99_ms']:.2f} ms "
            f"(plan cache {server.get('plan_cache_hits', 0)} hits, "
            f"result cache {server.get('result_cache_hits', 0)} hits)"
        )
    print("bench regression check passed: " + ", ".join(summary))


if __name__ == "__main__":
    main()

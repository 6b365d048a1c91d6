#!/usr/bin/env python3
"""Self-test of the benchmark: the per-layer counts repeat and the
correctness gate sees the seed.

    python3 perfbench/selftest.py [--seconds 4] [--workload NAME ...]

For each workload, runs the traced run (--trace 1) twice with one seed
and once with another, through perfbench/run.py, and checks that

  * every run is correct and no request failed;
  * the two same-seed runs report identical per-layer allocation (_mw),
    window, spill, render-byte and cache counts, and identical reference
    digests (the one exception, within 0.01%, is noted at NEAR);
  * the other seed changes the digests;
  * ledger.unattributed_pct stays within the ledger's slack.

Exits 1 if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("meteo-oneshot", "webkit-spill", "server-churn")
LEDGER_SLACK_PCT = 5.0  # tpdb_perf.ml's ledger_slack_pct
EXACT_PREFIXES = ("windows.", "storage.spill_", "storage.pool_hit_ratio",
                  "lineage.prob_cache_hit_ratio", "relation.render_bytes",
                  "server.plan_cache_hit_ratio",
                  "server.result_cache_hit_ratio")


# The spilled Planner.run names its spill directory after the process id,
# so its allocation moves by a word per path when the pid gains a digit.
NEAR = {("webkit-spill", "query.exec_mw"): 1e-4}


def exact(name):
    return (name.endswith("_mw") or name.startswith(EXACT_PREFIXES)) \
        and not name.endswith("_ms")


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    sidecar = os.path.join(ROOT, ".bench_out",
                           f"{workload}-seed{seed}-trace1.json")
    with open(sidecar) as f:
        result["digests"] = json.load(f)["digests"]
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=4)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    problems = []
    for w in args.workload or WORKLOADS:
        a = traced_run(w, 1, args.seconds)
        b = traced_run(w, 1, args.seconds)
        c = traced_run(w, 2, args.seconds)
        for tag, r in (("seed 1", a), ("seed 1 again", b), ("seed 2", c)):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w} {tag}: {r['failed']} of "
                                f"{r['attempted']} requests failed")
            slack = r["metrics"]["ledger.unattributed_pct"]["value"]
            if slack > LEDGER_SLACK_PCT:
                problems.append(f"{w} {tag}: ledger.unattributed_pct "
                                f"{slack:.2f} > {LEDGER_SLACK_PCT}")
        compared = [k for k in a["metrics"] if exact(k)]
        for k in compared:
            va, vb = a["metrics"][k]["value"], b["metrics"][k]["value"]
            tol = NEAR.get((w, k), 0.0)
            if abs(va - vb) > tol * max(abs(va), abs(vb)):
                problems.append(f"{w}: {k} differs between same-seed runs: "
                                f"{va!r} vs {vb!r}")
        if a["digests"] != b["digests"]:
            problems.append(f"{w}: digests differ between same-seed runs")
        if a["digests"] == c["digests"]:
            problems.append(f"{w}: seeds 1 and 2 give the same digests")
        print(f"{w}: compared {len(compared)} counts, "
              f"{len(a['digests'])} digests", file=sys.stderr)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

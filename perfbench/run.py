#!/usr/bin/env python3
"""Run one workload of the tpdb benchmark and print its result.

    python3 perfbench/run.py --workload meteo-oneshot --seed 1 --seconds 30 --trace 0

Builds perfbench/tpdb_perf.exe from the checkout's own sources with dune
(build directory .bench_build, shared dune cache off), runs the
workload in a process of its own from the checkout root, and prints that
process's JSON result as the last line of standard output. Inputs, spill
files, Chrome traces and a sidecar JSON per run (reference digests and the
workload's sizes) go to .bench_out/. Exits non-zero without printing a
result when the checkout does not build or the run fails.

perfbench/README.md describes the workloads and metrics.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("meteo-oneshot", "webkit-spill", "server-churn")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "tpdb_perf.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    """Runs cmd in a process group of its own and waits for it; on timeout
    kills the whole group and waits again."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(cmd[0])} timed out after {timeout} s")
    return proc.returncode, out


def dune(env):
    """The dune command. Without dune on PATH, falls back to an opam
    switch's bin directory, which then goes on PATH for the compilers."""
    found = shutil.which("dune", path=env.get("PATH"))
    if found:
        return [found]
    for bin_dir in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin"))):
        if os.path.isfile(os.path.join(bin_dir, "dune")):
            env["PATH"] = bin_dir + os.pathsep + env.get("PATH", "")
            return [os.path.join(bin_dir, "dune")]
    fail("dune is not on PATH and no opam switch has it")


def build(env):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail(f"{ROOT} is not a tpdb checkout: no dune-project or lib/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = dune(env) + [
        "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled", "--display", "quiet",
        "./perfbench/tpdb_perf.exe",
    ]
    code, _ = run(cmd, BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0 or not os.path.isfile(EXE):
        fail(f"build failed (exit {code})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The library reads these; a run must not depend on the caller's shell.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TPDB_")}
    env["DUNE_CACHE"] = "disabled"
    build(env)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    code, out = run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env,
                    stdout=subprocess.PIPE, text=True)
    if code != 0:
        fail(f"{args.workload} exited with {code}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("the workload printed no JSON result")
    if set(result) != RESULT_KEYS:
        fail(f"unexpected result keys {sorted(result)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

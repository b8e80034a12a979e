#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. It builds `perfbench/` against
the repository's crates in `$CARGO_TARGET_DIR` (default `.bench_build`);
with `--trace 1` it also builds a variant with the program's `trace`
feature switched on from the command line, in that directory's `traced/`
subdirectory. The first run of each kind pays for its build; later runs
find it up to date.

With `--trace 0` the plain build runs for S seconds and the end-to-end
metrics are printed. With `--trace 1` the plain build runs for S/2 seconds
(per-layer counts and times) and the traced build for S/2 seconds (span
self times); `trace.overhead_ratio` is the traced `wall_s` over the plain
one. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The benchmark binary itself refuses to run when a variable that changes
the program being measured is set, and reports 0 for the figures of
layers a workload does not pass through.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
TRACE_FEATURES = "parsweep-net/trace,parsweep-core/trace"
# A run must end within 180 s; builds are bounded separately.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir, features):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml"), "--bin", "perfbench"]
    if features:
        cmd += ["--features", features]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, args, seconds, trace, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--inputs", os.path.join(BENCH, "inputs"), "--work", os.path.join(BENCH, "work")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not os.path.isdir(os.path.join(REPO, "crates")):
        fail("the repository's crates are missing; run from a full checkout")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    plain = build(target, None)
    deadline = start + RUN_BUDGET_S

    if args.trace == 0:
        out = run(plain, args, args.seconds, False, deadline)
        names = [m["name"] for m in spec["end_to_end"]]
        got = out["metrics"]
    else:
        traced = build(os.path.join(target, "traced"), TRACE_FEATURES)
        base = run(plain, args, args.seconds / 2, False, deadline)
        tr = run(traced, args, args.seconds / 2, True, deadline)
        got = dict(base["metrics"])
        for name, m in tr["metrics"].items():
            if name.endswith("_self_s") or name == "trace.unattributed_s":
                got[name] = m
        got["trace.overhead_ratio"] = {
            "value": tr["metrics"]["wall_s"]["value"] / base["metrics"]["wall_s"]["value"],
            "unit": "ratio",
        }
        out = {
            "correct": base["correct"] and tr["correct"],
            "attempted": base["attempted"] + tr["attempted"],
            "failed": base["failed"] + tr["failed"],
        }
        names = [m["name"] for m in spec["per_layer"]]
    missing = [n for n in names if n not in got]
    if missing:
        fail(f"{args.workload} did not report {', '.join(missing)}")
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: got[n] for n in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

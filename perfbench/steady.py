#!/usr/bin/env python3
"""Runs workloads several times and prints each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--trace 0|1] [--json out.json]

Run it from the root of the repository. Each run goes through
`perfbench/run.py` with its own seed (first-seed, first-seed + 1, ...) and
the run length of BENCHMARK.json. For every metric it prints the median,
the first and third quartiles (Python's `statistics.quantiles(n=4)`) and
the quartile distance as a share of the median, next to the metric's
bound; it also prints the share of failed operations. Use it to set the
bounds and to check them again later.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--json", help="also write every run's result here")
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    everything = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                continue
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        everything[workload] = results
        print(f"== {workload}: {len(results)} runs")
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"   failed share {shares}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f"bound {bound:.2f}{'  WIDE' if spread > bound / 3 else ''}"
            print(f"   {name:26s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:6.3f}  {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads serve,grid] [--runs 10] [--first-seed 1]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
for each workload, untraced, at BENCHMARK.json's run_seconds, and prints
for every end-to-end metric its median and the distance between its first
and third quartiles as a share of the median, next to the metric's bound.
A spread at or above a third of the bound is flagged ("!"), and the exit
status is then 1.  Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                sys.exit(f"{workload} seed {seed}: exit status {out.returncode}")
            metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
            for name in values:
                values[name].append(metrics[name]["value"])
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
            flag = "!" if share >= m["bound"] / 3 else " "
            steady = steady and flag == " "
            print(f"{flag} {workload:10s} {m['name']:12s} median {median:12.6g} {m['unit']:4s}"
                  f"  spread {share:7.2%}  bound {m['bound']:.0%}", flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the repository's code).

    python3 perfbench/selftest.py

Run from the repository root; takes about two minutes.  It checks that:

1. every workload's untraced run prints exactly BENCHMARK.json's
   end_to_end metrics, with their units, all positive, and passes its
   correctness checks;
2. a traced run prints exactly the per_layer metrics;
3. with --fault (one checked answer corrupted) every workload reports
   "correct": false with a nonzero failed count and exits with status 1;
4. in a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits nonzero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

QUICK = ["--seconds", "1"]


def run(workload, *extra, trace=0, cwd="."):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--trace", str(trace), *QUICK, *extra],
        capture_output=True, text=True, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        code, result, err = run(w)
        expect(code == 0 and result is not None and result["correct"]
               and result["failed"] == 0 and result["attempted"] >= 1,
               f"{w}: untraced run is correct")
        if result:
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == e2e, f"{w}: end-to-end names and units match BENCHMARK.json")
            expect(all(v["value"] > 0 for v in result["metrics"].values()),
                   f"{w}: end-to-end values are positive")
        code, result, err = run(w, "--fault")
        expect(code == 1 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{w}: an injected fault is counted as failed")

    code, result, err = run("serve", trace=1)
    expect(code == 0 and result is not None and result["correct"], "traced run is correct")
    if result:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == per_layer, "per-layer names and units match BENCHMARK.json")

    bare = os.path.join("perfbench", "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work"))
    code, result, err = run("serve", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "a bare directory fails without a result")

    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload artifacts|serve|grid|replay \
        --seed N --seconds S --trace 0|1 [--jobs J] [--fault]

Run from the repository root.  The script builds perfbench/perfbench.exe
from source in the release profile, runs it once, and re-emits its result
as the last line of stdout, adding the process's peak RSS to an untraced
run.  The printed metric names and units must match BENCHMARK.json: the
end_to_end list for --trace 0, the per_layer list for --trace 1.

Exit status: 0 when every output passed its check, 1 when one failed
(the result is still printed, with "correct": false), 2 on bad arguments
or a directory that is not a repository checkout, 3 when the build
fails, 4 when the benchmark itself breaks.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["artifacts", "serve", "grid", "replay"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORK_DIR = os.path.join("perfbench", "_work")


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def command_output(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return ""


def source_digest():
    """SHA-256 over the sources the benchmark measures; identifies the
    code when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ["lib", "bin", "perfbench", "dune-project", "dune"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if "_work" not in d.split(os.sep)
            for f in files
        )
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(nproc, jobs):
    config = dict(
        line.split(": ", 1)
        for line in command_output(["ocamlfind", "ocamlopt", "-config"]).splitlines()
        if ": " in line
    )
    commit = command_output(["git", "rev-parse", "HEAD"]).strip() if os.path.isdir(".git") else ""
    return {
        "nproc": nproc,
        "jobs": jobs,
        "ocaml_version": config.get("version", "unknown"),
        "flambda": config.get("flambda", "unknown"),
        "build_profile": "release",
        "commit": commit or "unknown",
        "source_sha256": source_digest(),
    }


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--jobs", type=int, help="worker domains (default: the core count)")
    ap.add_argument("--fault", action="store_true",
                    help="corrupt one checked answer: the run must report a failure")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("BENCHMARK.json")):
        fail(2, "run from the root of a repository checkout")
    nproc = len(os.sched_getaffinity(0))
    jobs = args.jobs if args.jobs is not None else nproc
    if not 1 <= jobs <= nproc:
        fail(2, f"--jobs {jobs} refused: this machine has {nproc} cores")
    if args.seconds < 1:
        fail(2, "--seconds must be at least 1")

    # A cold build takes under a minute; an up-to-date one, a second or two.
    # The limit only stops a build that hangs (e.g. waiting on another dune
    # process's lock in the same checkout).
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr,
            timeout=120 if os.path.isfile(EXE) else 840)
    except subprocess.TimeoutExpired:
        fail(3, "build timed out")
    if build.returncode != 0:
        fail(3, "build failed")
    os.makedirs(WORK_DIR, exist_ok=True)

    env = environment(nproc, jobs)
    print("perfbench: env " + json.dumps(env), file=sys.stderr)
    argv = [EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--jobs", str(jobs), "--work-dir", WORK_DIR, "--env", json.dumps(env)]
    if args.fault:
        argv.append("--fault")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        # wait4, not wait: it returns this child's own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 1):
        fail(4, f"perfbench.exe exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(4, "perfbench.exe printed no result")

    if not args.trace:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024, "unit": "MB"}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(4, f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}, "
                f"or units differ")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

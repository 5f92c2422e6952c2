#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The build (library sources under src/
plus the ddsbench program under perfbench/src/) goes to
.bench_build/perfbench; build output goes to stderr.  ddsbench's stdout is
passed through unchanged: its last line is the JSON result.  This script
then checks that the result names exactly the metrics BENCHMARK.json
declares for the chosen mode.
Exits non-zero when the build, the run or a check fails; only a failed
check still prints a result (with "correct": false).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "ddsbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        # A failed check still prints its result (correct: false).
        sys.stdout.write(done.stdout)
        sys.exit("perfbench: ddsbench exited with %d" % done.returncode)

    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if sorted(result["metrics"]) != sorted(declared_metrics(args.trace)):
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: result metrics differ from BENCHMARK.json")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()

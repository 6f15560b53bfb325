#!/usr/bin/env python3
"""Builds and runs the verification-service benchmark.

usage: python3 servebench/run.py --workload explore|repair|compile
                                 --seed N --seconds S --trace 0|1

Configures and builds servebench/ (which compiles the repository's src/)
under $CARGO_TARGET_DIR/servebench, default .bench_build/servebench, then
runs one measurement. Build output goes to standard error; the last line of
standard output is the run's JSON result, which is also kept in
servebench/results/. Exits non-zero, without a result, when the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
# A run ends within 180 s; the measuring window is at most 60 s of that.
RUN_TIMEOUT_S = 170


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "servebench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("servebench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["explore", "repair", "compile"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    exe = build()
    os.makedirs(RESULTS, exist_ok=True)
    spawn_ns = time.monotonic_ns()  # CLOCK_MONOTONIC, as the binary reads it
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--spawn-ns", str(spawn_ns), "--out-dir", RESULTS]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("servebench: run failed with code %d" % run.returncode)
    result = json.loads(lines[-1])
    name = "result-%s-%d-trace%s.json" % (args.workload, args.seed,
                                          args.trace)
    with open(os.path.join(RESULTS, name), "w") as out:
        json.dump(result, out, indent=1)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()

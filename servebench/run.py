#!/usr/bin/env python3
"""Open-loop serving benchmark for lbsq (see serve_bench.cc).

Run from the repository root:

    python3 servebench/run.py --workload hotspot_hit --seed 1 --seconds 12 --trace 0
    python3 servebench/run.py --self-test

The first call configures and builds the benchmark (and the src/
libraries it links) under .bench_build/servebench; later calls rebuild
incrementally. Build output goes to stderr, so the last line on stdout
is the benchmark's JSON result. --self-test builds and runs the tests of
the benchmark's own arithmetic instead.

Workloads: hotspot_hit, scatter_miss, churn_sharded. LAYERS.md lists
which end-to-end metric each per-layer metric should move, and where.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RUN_TIMEOUT_S = 175


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("servebench: no lbsq sources next to the benchmark", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("servebench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        if not build("bench_math_test"):
            return 1
        return subprocess.call([os.path.join(BUILD, "bench_math_test")])
    if not args.workload:
        ap.error("--workload is required")
    if not build("serve_bench"):
        return 1

    workdir = os.path.join(ROOT, ".bench_build", "servebench-run", args.workload)
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "serve_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

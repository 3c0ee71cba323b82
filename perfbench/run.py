#!/usr/bin/env python3
"""Builds and runs the vecube repo benchmark.

usage (from the root of a checkout):
  python3 perfbench/run.py --workload {cube_cold|serve_hot}
                           --seed N --seconds S --trace {0|1}
                           [--smoke] [--inject-wrong-answer]

The first call configures and builds perfbench/ (the vecube libraries from
src/ plus main.cc, Release) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild only what changed. Durable
stores and the span dump go to $CARGO_TARGET_DIR/perfbench-run. Build
output goes to stderr, so the last line of stdout is the result object.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "vecube_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cube_cold", "serve_hot"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny 8^3 cube, one set-up; for the self-test")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt the first checked answer")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)
    cmd = [os.path.join(build_dir, "vecube_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--run-dir", os.path.join(target, "perfbench-run")]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

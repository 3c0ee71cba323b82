#!/usr/bin/env python3
"""Self-test of the repo benchmark, in smoke mode (8^3 cube, short runs).

usage (from the root of a checkout): python3 perfbench/selftest.py

For every workload it checks that
  * an untraced run prints exactly BENCHMARK.json's end_to_end metrics,
    and a traced run exactly its per_layer metrics, with their units;
  * the result object has exactly correct/attempted/failed/metrics, the
    run is correct and ok_share is 1;
  * the environment record is present and the build is Release;
  * traced ops are covered by layer spans to within 10%;
  * a run with an injected wrong answer reports correct=false and exits
    non-zero.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
ENV_KEYS = {"hardware_threads", "nproc", "lanes", "compiler", "build_type",
            "durable_dir", "durable_fs", "flush_policy"}


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("%s trace=%d %s printed no result; stderr:\n%s"
             % (workload, trace, " ".join(extra), done.stderr[-2000:]))
    details = json.loads(lines[-2])["details"]
    return done.returncode, details, json.loads(lines[-1])


def fail(message):
    sys.exit("selftest FAILED: " + message)


def check_result(workload, trace, details, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in got
                       if n in expected and got[n] != expected[n])
        fail("%s trace=%d metrics differ: missing %s extra %s wrong units %s"
             % (workload, trace, missing, extra, wrong))
    if (not result["correct"] or result["failed"] != 0
            or result["attempted"] < 1):
        fail("%s trace=%d not correct: %s"
             % (workload, trace, details["errors"]))
    if trace == 0 and result["metrics"]["ok_share"]["value"] != 1.0:
        fail("%s: ok_share below 1" % workload)
    env = details["environment"]
    if set(env) != ENV_KEYS or env["build_type"] != "Release":
        fail("%s: environment record %s" % (workload, env))


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # ingest_mixed has no timed region (README.md says why); its traced
    # phase is part of every traced run, so its per-layer metrics and
    # answer checks are covered by the traced runs below.
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, details, result = run(workload, trace)
            if code != 0:
                fail("%s trace=%d exited %d" % (workload, trace, code))
            check_result(workload, trace, details, result, expected)
            if trace == 1:
                for key, value in details.items():
                    if key.endswith(".coverage_p50") and value < 0.9:
                        fail("%s: %s = %.3f" % (workload, key, value))
        code, details, result = run(workload, 0, "--inject-wrong-answer")
        if code == 0 or result["correct"]:
            fail("%s: an injected wrong answer did not fail the run" % workload)
        print("ok  %s" % workload, flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()

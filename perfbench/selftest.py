#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: a short run of every workload.

    python3 perfbench/selftest.py [--seconds 3]

For every workload in BENCHMARK.json it runs perfbench/run.py untraced and
traced and fails if any check failed, if a metric named in BENCHMARK.json
is missing or has another unit, or if the traced run's spans cover less
than 90% of the timed wall. It also checks that run.py, copied without the
library sources, exits non-zero without printing a result.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_SPAN_COVERAGE = 0.9


def run(cwd, workload, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=600)


def check_result(proc, expected, what):
    problems = []
    if proc.returncode != 0:
        return [f"{what}: exit code {proc.returncode}"], {}
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{what}: {result['failed']} of {result['attempted']}"
                        " operations failed:\n" + proc.stderr.decode())
    if result["attempted"] < 1:
        problems.append(f"{what}: no operations attempted")
    metrics = result["metrics"]
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"{what}: missing metric {spec['name']}")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{what}: {spec['name']} unit {got['unit']}")
        elif not math.isfinite(got["value"]):
            problems.append(f"{what}: {spec['name']} is not finite")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        problems.append(f"{what}: metrics not in BENCHMARK.json: {extra}")
    return problems, metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            what = f"{workload} trace={trace}"
            found, metrics = check_result(
                run(ROOT, workload, args.seconds, trace), expected, what)
            problems += found
            if trace and not found:
                coverage = metrics["bench.span_coverage_frac"]["value"]
                if coverage < MIN_SPAN_COVERAGE:
                    problems.append(f"{what}: span coverage {coverage:.3f}")
            print(f"{what}: {'ok' if not found else 'FAILED'}", flush=True)

    # Without the library sources the benchmark must refuse, not report.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"], 1, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("bare copy: expected a non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)
    print(f"bare copy: {'ok' if proc.returncode else 'FAILED'}")

    for p in problems:
        print("FAIL:", p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

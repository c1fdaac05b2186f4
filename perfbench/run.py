#!/usr/bin/env python3
"""End-to-end benchmark of swsketch.

Builds the library and the benchmark binary from source into .bench_build/ at the
root of the checkout, then runs one workload:

    python3 perfbench/run.py --workload seq-ingest --seed 1 --seconds 10 --trace 0

The binary prints its result as one JSON object on the last line of
stdout. Workload descriptions and the per-workload error envelopes live in
perfbench/workloads.json; the envelopes are passed to the binary from
there. Build output and diagnostics go to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no swsketch sources next to perfbench/ (expected src/)")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(workloads)}")
    envelopes = ",".join(f"{algo}={bound['max_cova_err']}" for algo, bound
                         in workloads[args.workload]["envelopes"].items())

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--envelopes", envelopes]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace_out", os.path.join(traces, args.workload + ".csv")]
    result = subprocess.run(cmd, stdout=subprocess.PIPE)
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

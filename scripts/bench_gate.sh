#!/usr/bin/env bash
# Perf regression gate for the sketch-update and query-serving hot paths.
#
# Builds the release preset, runs the micro benches, converts the
# google-benchmark results to BENCH cells, and diffs every fresh BENCH
# file against its committed baseline as bench/baselines/gate.json
# declares (which cells gate, at what threshold, and why). Exits nonzero
# when any gated update_ns cell regresses by more than its threshold, so
# it can run as a pre-merge check:
#
#     scripts/bench_gate.sh [extra bench_diff.py args, e.g. --threshold 0.15]
#
# To refresh the baselines after an intentional perf change:
#
#     scripts/bench_gate.sh --update-baselines      (alias: --update-baseline)
set -euo pipefail
cd "$(dirname "$0")/.."

MANIFEST=bench/baselines/gate.json
FILTER='BM_FrequentDirectionsAppend|BM_RandomProjectionAppend|BM_HashSketchAppend|BM_DsFdAppend'
# Per-event metrics costs (counter add, histogram record, scoped timer).
# The contended-counter and registry-lookup cells depend on core count /
# scheduler mood, so only the single-thread cached-handle paths gate.
METRICS_FILTER='BM_CounterAdd$|BM_GaugeSet|BM_HistogramRecord|BM_ScopedTimer'
MIN_TIME=2

diff_args=()
for arg in "$@"; do
  if [[ "$arg" == "--update-baseline" ]]; then
    diff_args+=(--update-baselines)
  else
    diff_args+=("$arg")
  fi
done

cmake --preset release >/dev/null
cmake --build build-release -j"$(nproc)" \
  --target micro_sketch micro_query micro_metrics micro_shard \
           micro_tenant micro_amm >/dev/null

./build-release/bench/micro_sketch \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_format=json 2>/dev/null |
  python3 scripts/microbench_to_cells.py --figure micro_sketch \
    -o BENCH_micro_sketch.json

./build-release/bench/micro_metrics \
  --benchmark_filter="${METRICS_FILTER}" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_format=json 2>/dev/null |
  python3 scripts/microbench_to_cells.py --figure micro_metrics \
    -o BENCH_micro_metrics.json

# micro_query / micro_shard emit the cells format directly; run from the
# repo root so the BENCH_*.json artifacts land next to the others.
./build-release/bench/micro_query --iters=3000 --duration_ms=200 >/dev/null
./build-release/bench/micro_shard >/dev/null
./build-release/bench/micro_tenant >/dev/null
./build-release/bench/micro_amm >/dev/null

python3 scripts/bench_diff.py --manifest "$MANIFEST" \
  ${diff_args[@]+"${diff_args[@]}"}

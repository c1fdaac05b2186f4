#!/usr/bin/env bash
# Perf regression gate for the sketch-update and query-serving hot paths.
#
# Builds the release preset, runs the micro_sketch append benchmarks and
# the micro_query query-serving benchmark, converts the results to BENCH
# cells and diffs them against the committed baselines in bench/baselines/.
# Exits nonzero when any update_ns cell regresses by more than the
# bench_diff threshold (default 10%), so it can run as a pre-merge check:
#
#     scripts/bench_gate.sh [extra bench_diff.py args, e.g. --threshold 0.15]
#
# The micro_query baseline keeps only the warm-query latency cells: cold
# latency depends on the block structure the ingest happened to leave and
# multi-reader QPS depends on the host's core count, so neither gates.
#
# To refresh the baselines after an intentional perf change:
#
#     scripts/bench_gate.sh --update-baselines      (alias: --update-baseline)
set -euo pipefail
cd "$(dirname "$0")/.."

SKETCH_BASELINE=bench/baselines/BENCH_micro_sketch.json
QUERY_BASELINE=bench/baselines/BENCH_micro_query.json
METRICS_BASELINE=bench/baselines/BENCH_micro_metrics.json
SHARD_BASELINE=bench/baselines/BENCH_micro_shard.json
TENANT_BASELINE=bench/baselines/BENCH_micro_tenant.json
AMM_BASELINE=bench/baselines/BENCH_micro_amm.json
FILTER='BM_FrequentDirectionsAppend|BM_RandomProjectionAppend|BM_HashSketchAppend|BM_DsFdAppend'
# Per-event metrics costs (counter add, histogram record, scoped timer).
# The contended-counter and registry-lookup cells depend on core count /
# scheduler mood, so only the single-thread cached-handle paths gate.
METRICS_FILTER='BM_CounterAdd$|BM_GaugeSet|BM_HistogramRecord|BM_ScopedTimer'
MIN_TIME=2

update_baseline=0
diff_args=()
for arg in "$@"; do
  if [[ "$arg" == "--update-baseline" || "$arg" == "--update-baselines" ]]; then
    update_baseline=1
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

# filter_cells IN OUT REGEX: copies BENCH file IN to OUT keeping only the
# cells whose algorithm matches REGEX (Python re.search).
filter_cells() {
  python3 - "$1" "$2" "$3" <<'EOF'
import json, re, sys
doc = json.load(open(sys.argv[1]))
doc["cells"] = [c for c in doc["cells"]
                if re.search(sys.argv[3], c["algorithm"])]
with open(sys.argv[2], "w") as fh:
    json.dump(doc, fh, indent=2)
    fh.write("\n")
EOF
}

# Gated cell sets, one regex per micro bench.
#  - micro_query: warm-query latency only (see the header comment).
#  - micro_shard: the single-threaded cells, `-serial` (plain sketch) and
#    `-s1` (one-shard pipeline, i.e. the sharding overhead itself). The
#    S > 1 scaling cells are machine-shaped — a 1-core runner cannot speed
#    up — so micro_shard reports them but the baseline excludes them.
#  - micro_tenant: the steady-state single-thread cells, per-row keyed
#    ingest (`keyed-*`) and the warm lookup path (`lookup-warm`). Creation
#    bursts, eviction churn and the 100k budget fill are allocation-heavy
#    and shaped by the host allocator, and the resident-bytes-* cells are
#    capacity measurements (update_ns = bytes/tenant).
#  - micro_amm: the ingest cells, `update-<alg>` (per-pair) and
#    `update-<alg>-batch` (block fast path). The product-* query-latency
#    cells are eigensolve/allocation-shaped and too noisy at micro scale.
QUERY_CELLS='^warm-'
SHARD_CELLS='-(serial|s1)$'
TENANT_CELLS='^keyed-|^lookup-warm$'
AMM_CELLS='^update-'

if [[ "$update_baseline" == 1 ]]; then
  cp BENCH_micro_sketch.json "$SKETCH_BASELINE"
  cp BENCH_micro_metrics.json "$METRICS_BASELINE"
  filter_cells BENCH_micro_query.json "$QUERY_BASELINE" "$QUERY_CELLS"
  filter_cells BENCH_micro_shard.json "$SHARD_BASELINE" "$SHARD_CELLS"
  filter_cells BENCH_micro_tenant.json "$TENANT_BASELINE" "$TENANT_CELLS"
  filter_cells BENCH_micro_amm.json "$AMM_BASELINE" "$AMM_CELLS"
  echo "baselines refreshed: $SKETCH_BASELINE $METRICS_BASELINE" \
       "$QUERY_BASELINE $SHARD_BASELINE $TENANT_BASELINE $AMM_BASELINE"
  exit 0
fi

status=0
python3 scripts/bench_diff.py "$SKETCH_BASELINE" BENCH_micro_sketch.json \
  ${diff_args[@]+"${diff_args[@]}"} || status=1
python3 scripts/bench_diff.py "$QUERY_BASELINE" BENCH_micro_query.json \
  ${diff_args[@]+"${diff_args[@]}"} || status=1
# Metrics cells sit in the single-digit-ns range where timer granularity
# alone can swing a run several percent, so they gate at a looser 50%:
# still catches "someone put a lock on the counter path" regressions.
python3 scripts/bench_diff.py "$METRICS_BASELINE" BENCH_micro_metrics.json \
  --threshold 0.5 || status=1
# Restrict the fresh run to the gated (single-threaded) shard cells before
# diffing, mirroring what the committed baseline holds.
filter_cells BENCH_micro_shard.json BENCH_micro_shard.gated.json \
  "$SHARD_CELLS"
python3 scripts/bench_diff.py "$SHARD_BASELINE" BENCH_micro_shard.gated.json \
  ${diff_args[@]+"${diff_args[@]}"} || status=1
rm -f BENCH_micro_shard.gated.json
filter_cells BENCH_micro_tenant.json BENCH_micro_tenant.gated.json \
  "$TENANT_CELLS"
python3 scripts/bench_diff.py "$TENANT_BASELINE" BENCH_micro_tenant.gated.json \
  ${diff_args[@]+"${diff_args[@]}"} || status=1
rm -f BENCH_micro_tenant.gated.json
filter_cells BENCH_micro_amm.json BENCH_micro_amm.gated.json \
  "$AMM_CELLS"
python3 scripts/bench_diff.py "$AMM_BASELINE" BENCH_micro_amm.gated.json \
  ${diff_args[@]+"${diff_args[@]}"} || status=1
rm -f BENCH_micro_amm.gated.json
exit $status

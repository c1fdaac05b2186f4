// Google-benchmark microbenchmarks for the streaming sketch primitives:
// per-row append costs of FD / RP / HASH / samplers and the exponential
// histogram, matching the update-cost columns of Table 1.
#include <benchmark/benchmark.h>

#include "core/dump_snapshot.h"
#include "sketch/frequent_directions.h"
#include "sketch/hash_sketch.h"
#include "sketch/priority_sampler.h"
#include "sketch/random_projection.h"
#include "util/exponential_histogram.h"
#include "util/random.h"

namespace swsketch {
namespace {

constexpr size_t kDim = 256;

std::vector<std::vector<double>> MakeRows(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n, std::vector<double>(kDim));
  for (auto& r : rows) {
    for (auto& v : r) v = rng.Gaussian();
  }
  return rows;
}

void BM_FrequentDirectionsAppend(benchmark::State& state) {
  const size_t ell = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(1024, 1);
  FrequentDirections fd(kDim, ell);
  size_t i = 0;
  for (auto _ : state) {
    fd.Append(rows[i & 1023], i);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrequentDirectionsAppend)->Arg(16)->Arg(32)->Arg(64);

// Amortized buffering (buffer_factor = 2).
void BM_FrequentDirectionsAppendBuffered(benchmark::State& state) {
  const size_t ell = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(1024, 1);
  FrequentDirections fd(
      kDim, FrequentDirections::Options{.ell = ell, .buffer_factor = 2.0});
  size_t i = 0;
  for (auto _ : state) {
    fd.Append(rows[i & 1023], i);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrequentDirectionsAppendBuffered)->Arg(16)->Arg(32)->Arg(64);

void BM_RandomProjectionAppend(benchmark::State& state) {
  const size_t ell = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(1024, 2);
  RandomProjection rp(kDim, ell, 7);
  size_t i = 0;
  for (auto _ : state) {
    rp.Append(rows[i & 1023], i);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomProjectionAppend)->Arg(16)->Arg(64)->Arg(256);

void BM_HashSketchAppend(benchmark::State& state) {
  const size_t ell = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(1024, 3);
  HashSketch hs(kDim, ell, 7);
  size_t i = 0;
  for (auto _ : state) {
    hs.Append(rows[i & 1023], i);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashSketchAppend)->Arg(64)->Arg(1024);

// Full DS-FD sliding-window per-row ingest: one frame FD append plus the
// expiry / Frobenius-tracker / snapshot-ladder bookkeeping, on a window
// small enough that frames cut and snapshots churn during the run.
void BM_DsFdAppend(benchmark::State& state) {
  const size_t ell = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(1024, 8);
  DsFd sketch(kDim, WindowSpec::Sequence(4096), DsFd::Options{.ell = ell});
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(rows[i & 1023], static_cast<double>(i));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DsFdAppend)->Arg(16)->Arg(32)->Arg(64);

void BM_FrequentDirectionsMerge(benchmark::State& state) {
  // The LM framework's cascade and cold-merge cost at the time-query shape
  // (d = 200): one FD merge of two sketches fed 256 rows each.
  constexpr size_t kMergeDim = 200;
  const size_t ell = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<double> row(kMergeDim);
  FrequentDirections base(kMergeDim, ell), other(kMergeDim, ell);
  for (size_t i = 0; i < 512; ++i) {
    for (double& v : row) v = rng.Gaussian();
    (i % 2 ? base : other).Append(row, i);
  }
  for (auto _ : state) {
    FrequentDirections tmp = base;
    tmp.MergeWith(other);
    benchmark::DoNotOptimize(tmp);
  }
}
BENCHMARK(BM_FrequentDirectionsMerge)->Arg(16)->Arg(32)->Arg(64);

void BM_StreamingSworAppend(benchmark::State& state) {
  const size_t ell = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(1024, 5);
  StreamingSworSampler s(kDim, ell, 7);
  size_t i = 0;
  for (auto _ : state) {
    s.Append(rows[i & 1023], i);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamingSworAppend)->Arg(16)->Arg(64);

void BM_ExponentialHistogramAdd(benchmark::State& state) {
  const double eps = 1.0 / static_cast<double>(state.range(0));
  ExponentialHistogram eh(eps);
  Rng rng(6);
  double ts = 0.0;
  for (auto _ : state) {
    eh.Add(1.0 + rng.Uniform01() * 9.0, ts);
    ts += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExponentialHistogramAdd)->Arg(10)->Arg(20)->Arg(100);

}  // namespace
}  // namespace swsketch

BENCHMARK_MAIN();


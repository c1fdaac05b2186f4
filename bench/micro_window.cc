// Google-benchmark microbenchmarks for the sliding-window sketches' update
// path — the per-row costs behind Figures 5 and 9.
#include <benchmark/benchmark.h>

#include "core/dyadic_interval.h"
#include "core/logarithmic_method.h"
#include "core/window_sampler.h"
#include "util/random.h"

namespace swsketch {
namespace {

constexpr size_t kDim = 128;
constexpr uint64_t kWindow = 4096;

std::vector<std::vector<double>> MakeRows(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n, std::vector<double>(kDim));
  for (auto& r : rows) {
    for (auto& v : r) v = rng.Gaussian();
  }
  return rows;
}

void BM_SwrUpdate(benchmark::State& state) {
  const size_t ell = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(2048, 1);
  WindowSampler sketch(kDim, WindowSpec::Sequence(kWindow),
                       WindowSampler::Options{.ell = ell, .seed = 7});
  double ts = 0.0;
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(rows[i++ & 2047], ts);
    ts += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwrUpdate)->Arg(16)->Arg(64)->Arg(128);

void BM_SworUpdate(benchmark::State& state) {
  const size_t ell = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(2048, 2);
  WindowSampler sketch(
      kDim, WindowSpec::Sequence(kWindow),
      WindowSampler::Options{
          .ell = ell, .scheme = WindowSampler::Scheme::kSwor, .seed = 7});
  double ts = 0.0;
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(rows[i++ & 2047], ts);
    ts += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SworUpdate)->Arg(16)->Arg(64)->Arg(128);

void BM_LmFdUpdate(benchmark::State& state) {
  const size_t ell = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(2048, 3);
  LmFd sketch(kDim, WindowSpec::Sequence(kWindow),
              LmFd::Options{.ell = ell, .blocks_per_level = 8});
  double ts = 0.0;
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(rows[i++ & 2047], ts);
    ts += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LmFdUpdate)->Arg(16)->Arg(32)->Arg(64);

void BM_DiFdUpdate(benchmark::State& state) {
  const size_t ell = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(2048, 4);
  DiFd sketch(kDim, DiFd::Options{.levels = 6,
                                  .window_size = kWindow,
                                  .max_norm_sq = 4.0 * kDim,
                                  .ell_top = ell});
  double ts = 0.0;
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(rows[i++ & 2047], ts);
    ts += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiFdUpdate)->Arg(16)->Arg(32)->Arg(64);

void BM_LmFdQuery(benchmark::State& state) {
  const size_t ell = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(2048, 5);
  LmFd sketch(kDim, WindowSpec::Sequence(kWindow),
              LmFd::Options{.ell = ell, .blocks_per_level = 8});
  for (size_t i = 0; i < 8192; ++i) {
    sketch.Update(rows[i & 2047], static_cast<double>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Query());
  }
}
BENCHMARK(BM_LmFdQuery)->Arg(16)->Arg(32);

}  // namespace
}  // namespace swsketch

BENCHMARK_MAIN();

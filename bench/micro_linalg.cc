// Google-benchmark microbenchmarks for the linear-algebra substrate: the
// kernels whose cost dominates sketch updates (SVD, Gram accumulation) and
// evaluation (Lanczos spectral norm, subspace iteration).
#include <benchmark/benchmark.h>

#include "linalg/jacobi_eigen.h"
#include "linalg/power_iteration.h"
#include "linalg/subspace_iteration.h"
#include "linalg/svd.h"
#include "linalg/tridiag_eigen.h"
#include "util/random.h"

namespace swsketch {
namespace {

Matrix RandomMatrix(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Gaussian();
  }
  return m;
}

void BM_ThinSvdWide(benchmark::State& state) {
  // The FD shrink shape: ell x d with ell << d.
  const size_t ell = static_cast<size_t>(state.range(0));
  const size_t d = 256;
  Matrix a = RandomMatrix(ell, d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ThinSvd(a));
  }
  state.SetComplexityN(static_cast<int64_t>(ell));
}
BENCHMARK(BM_ThinSvdWide)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_JacobiEigen(benchmark::State& state) {
  // The reference solver (Tql2 fallback, power/subspace Ritz solves).
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(2 * n, n, 2).Gram();
  for (auto _ : state) {
    benchmark::DoNotOptimize(JacobiEigen(a));
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_TridiagEigen(benchmark::State& state) {
  // The one eigensolver of the FD shrink: tridiagonalization + QL. n = 4
  // and 8 are the Gram sizes of d = 8 keyed-tenant sketches; larger n are
  // the LM/DI buffers and DS-FD frames.
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(2 * n, n, 2).Gram();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TridiagEigen(a));
  }
}
BENCHMARK(BM_TridiagEigen)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256);

void BM_GramOuter(benchmark::State& state) {
  // The FD shrink's Gram B B^T at d = 200: n = 32 is an ingest shrink, 64
  // an LM merge, 200 a DS-FD compress stack.
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, 200, 3);
  Matrix g;
  for (auto _ : state) {
    a.GramOuterInto(&g);
    benchmark::DoNotOptimize(g.Data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GramOuter)->Arg(32)->Arg(64)->Arg(200);

void BM_Gram(benchmark::State& state) {
  // The tall-route Gram A^T A: 1024 stacked rows (32 LM blocks of 32) at
  // d = 64, 150 and 300, the d x d Gram FD's MergeAll sums. Time per
  // multiply-add (1024 d (d + 1) / 2 of them) over BM_TridiagEigen's
  // time per n^3 is MergeAll's eigensolve weight.
  const size_t d = static_cast<size_t>(state.range(0));
  const Matrix a = RandomMatrix(1024, d, 3);
  Matrix g;
  for (auto _ : state) {
    a.GramInto(&g);
    benchmark::DoNotOptimize(g.Data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Gram)->Arg(64)->Arg(150)->Arg(300);

void BM_SpectralNormSymmetric(benchmark::State& state) {
  // Evaluation hot path: spectral norm of a d x d Gram difference.
  const size_t d = static_cast<size_t>(state.range(0));
  Matrix g1 = RandomMatrix(200, d, 3).Gram();
  Matrix g2 = RandomMatrix(50, d, 4).Gram();
  Matrix diff = g1.Subtract(g2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpectralNormSymmetric(diff));
  }
}
BENCHMARK(BM_SpectralNormSymmetric)->Arg(64)->Arg(150)->Arg(300);

void BM_GramAccumulate(benchmark::State& state) {
  // Exact-window evaluation: rank-1 updates into a d x d Gram.
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> row(d);
  for (auto& v : row) v = rng.Gaussian();
  Matrix g(d, d);
  for (auto _ : state) {
    g.AddOuterProduct(row);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GramAccumulate)->Arg(35)->Arg(150)->Arg(300);

void BM_TopEigenpairs(benchmark::State& state) {
  // BEST(offline) per-checkpoint cost: top-(k+1) eigenpairs of a Gram.
  const size_t k = static_cast<size_t>(state.range(0));
  Matrix g = RandomMatrix(500, 150, 6).Gram();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopEigenpairsPsd(g, k + 1));
  }
}
BENCHMARK(BM_TopEigenpairs)->Arg(8)->Arg(32)->Arg(64);

}  // namespace
}  // namespace swsketch

BENCHMARK_MAIN();

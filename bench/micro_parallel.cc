// Microbenchmarks quantifying the PR-1/PR-2 performance work: cache-blocked
// Gram/Multiply kernels vs. the naive triple loop, amortized FD shrinking
// (buffer_factor) vs. shrink-per-fill, batched ingest (AppendBatch /
// UpdateBatch) across batch sizes, the CSR-style sparse window Gram, and
// ThreadPool/ParallelFor overhead and scaling. Run on the `release` or
// `bench` CMake preset (-O3); the default RelWithDebInfo build understates
// kernel wins.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "core/logarithmic_method.h"
#include "core/window_sampler.h"
#include "linalg/matrix.h"
#include "sketch/frequent_directions.h"
#include "sketch/hash_sketch.h"
#include "sketch/random_projection.h"
#include "stream/window_buffer.h"
#include "util/parallel.h"
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

// The pre-blocking Gram: one full rank-1 update (both triangles) per row.
Matrix NaiveGram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    auto v = a.Row(i);
    for (size_t r = 0; r < a.cols(); ++r) {
      const double vr = v[r];
      if (vr == 0.0) continue;
      double* grow = g.Row(r).data();
      for (size_t c = 0; c < a.cols(); ++c) grow[c] += vr * v[c];
    }
  }
  return g;
}

void BM_GramNaive(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(4 * d, d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveGram(a));
  }
  state.SetComplexityN(static_cast<int64_t>(d));
}
BENCHMARK(BM_GramNaive)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_GramBlocked(benchmark::State& state) {
  // The library kernel: upper-triangle tiles, 4-row fusion, one mirror.
  const size_t d = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(4 * d, d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Gram());
  }
  state.SetComplexityN(static_cast<int64_t>(d));
}
BENCHMARK(BM_GramBlocked)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_MultiplyBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(n, n, 2);
  Matrix b = RandomMatrix(n, n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Multiply(b));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_MultiplyBlocked)->Arg(64)->Arg(128)->Arg(256)->Complexity();

void BM_FdIngest(benchmark::State& state) {
  // Whole-stream ingest cost; buffer factor f shrinks every
  // (f*ell - rank + 1) rows instead of every (ell - rank + 1).
  const size_t ell = 64;
  const size_t d = 256;
  const double factor = static_cast<double>(state.range(0));
  Matrix rows = RandomMatrix(2048, d, 4);
  for (auto _ : state) {
    FrequentDirections fd(
        d, FrequentDirections::Options{.ell = ell, .buffer_factor = factor});
    for (size_t i = 0; i < rows.rows(); ++i) fd.Append(rows.Row(i));
    benchmark::DoNotOptimize(fd);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.rows()));
}
BENCHMARK(BM_FdIngest)->Arg(1)->Arg(2)->Arg(4);

// ---- Batched ingest sweep (the PR-2 tentpole): rows/sec as a function of
// batch size, per backend. items_per_second is the throughput to compare
// across the batch ∈ {1, 8, 64, 512} sweep.

constexpr size_t kIngestRows = 4096;

// Feeds `rows` to a MatrixSketch in blocks of `batch` via AppendBatch
// (batch = 1 degenerates to the per-row path inside every backend).
template <typename SketchT>
void IngestBatched(SketchT& sketch, const Matrix& rows, size_t batch) {
  uint64_t id = 0;
  for (size_t b = 0; b < rows.rows(); b += batch) {
    const size_t e = std::min(rows.rows(), b + batch);
    sketch.AppendBatch(rows, b, e, id);
    id += e - b;
  }
}

void BM_FdIngestBatch(benchmark::State& state) {
  // Tall regime (ell = d): one deferred shrink per block instead of one
  // per (ell - rank + 1) rows; the SVD is O(d^3) either way.
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t ell = 64, d = 64;
  Matrix rows = RandomMatrix(kIngestRows, d, 6);
  for (auto _ : state) {
    FrequentDirections fd(d, FrequentDirections::Options{.ell = ell});
    IngestBatched(fd, rows, batch);
    benchmark::DoNotOptimize(fd);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.rows()));
}
BENCHMARK(BM_FdIngestBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_RpIngestBatch(benchmark::State& state) {
  // Block path: one ell x batch sign block through the tiled MultiplyRows
  // kernel instead of ell rank-1 updates per row.
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t ell = 64, d = 256;
  Matrix rows = RandomMatrix(kIngestRows, d, 7);
  for (auto _ : state) {
    RandomProjection rp(d, ell, 1);
    IngestBatched(rp, rows, batch);
    benchmark::DoNotOptimize(rp);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.rows()));
}
BENCHMARK(BM_RpIngestBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_HashIngestBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t ell = 64, d = 256;
  Matrix rows = RandomMatrix(kIngestRows, d, 8);
  for (auto _ : state) {
    HashSketch hs(d, ell, 1);
    IngestBatched(hs, rows, batch);
    benchmark::DoNotOptimize(hs);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.rows()));
}
BENCHMARK(BM_HashIngestBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

// Feeds a SlidingWindowSketch in UpdateBatch blocks (ts = arrival index,
// pre-sliced outside the timed region).
void BM_SwrIngestBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t ell = 32, d = 64;
  Matrix rows = RandomMatrix(kIngestRows, d, 9);
  std::vector<Matrix> blocks;
  std::vector<std::vector<double>> ts;
  for (size_t b = 0; b < rows.rows(); b += batch) {
    const size_t e = std::min(rows.rows(), b + batch);
    Matrix blk(0, d);
    std::vector<double> bt;
    for (size_t i = b; i < e; ++i) {
      blk.AppendRow(rows.Row(i));
      bt.push_back(static_cast<double>(i + 1));
    }
    blocks.push_back(std::move(blk));
    ts.push_back(std::move(bt));
  }
  for (auto _ : state) {
    WindowSampler swr(d, WindowSpec::Sequence(1024),
                      WindowSampler::Options{.ell = ell});
    for (size_t b = 0; b < blocks.size(); ++b) {
      swr.UpdateBatch(blocks[b], ts[b]);
    }
    benchmark::DoNotOptimize(swr);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.rows()));
}
BENCHMARK(BM_SwrIngestBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_LmFdIngestBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t ell = 32, d = 64;
  Matrix rows = RandomMatrix(kIngestRows, d, 10);
  std::vector<Matrix> blocks;
  std::vector<std::vector<double>> ts;
  for (size_t b = 0; b < rows.rows(); b += batch) {
    const size_t e = std::min(rows.rows(), b + batch);
    Matrix blk(0, d);
    std::vector<double> bt;
    for (size_t i = b; i < e; ++i) {
      blk.AppendRow(rows.Row(i));
      bt.push_back(static_cast<double>(i + 1));
    }
    blocks.push_back(std::move(blk));
    ts.push_back(std::move(bt));
  }
  for (auto _ : state) {
    LmFd lm(d, WindowSpec::Sequence(1024), LmFd::Options{.ell = ell});
    for (size_t b = 0; b < blocks.size(); ++b) lm.UpdateBatch(blocks[b], ts[b]);
    benchmark::DoNotOptimize(lm);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.rows()));
}
BENCHMARK(BM_LmFdIngestBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

// ---- Sparse window Gram: CSR-style scatter vs. the dense blocked kernel
// at WIKI-like density (nnz/d = 0.05).

WindowBuffer MakeSparseWindow(size_t n, size_t d, size_t nnz) {
  WindowBuffer buffer(WindowSpec::Sequence(n));
  Rng rng(11);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> v(d, 0.0);
    for (size_t k = 0; k < nnz; ++k) {
      v[static_cast<size_t>(rng.Next() % d)] = rng.Gaussian();
    }
    buffer.Add(Row(std::move(v), static_cast<double>(i + 1)));
  }
  return buffer;
}

void BM_WindowGramDense(benchmark::State& state) {
  const size_t d = 400;
  const WindowBuffer buffer = MakeSparseWindow(1000, d, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer.ToMatrix().Gram());
  }
}
BENCHMARK(BM_WindowGramDense);

void BM_WindowGramSparse(benchmark::State& state) {
  const size_t d = 400;
  const WindowBuffer buffer = MakeSparseWindow(1000, d, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer.SparseGramMatrix(d));
  }
}
BENCHMARK(BM_WindowGramSparse);

void BM_ParallelForOverhead(benchmark::State& state) {
  // Dispatch cost for a trivial body; on a 1-core pool this measures the
  // inline fast path, on multi-core the submit/wait round trip.
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> out(n, 0.0);
  for (auto _ : state) {
    ParallelFor(n, [&](size_t i) { out[i] += 1.0; });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(64)->Arg(4096);

void BM_ParallelForGramScaling(benchmark::State& state) {
  // End-to-end pool scaling on a real kernel: Gram over column bands.
  // Thread count pinned per benchmark arg (0 = inline/serial baseline).
  const size_t threads = static_cast<size_t>(state.range(0));
  ThreadPool pool(threads == 0 ? 1 : threads);
  Matrix a = RandomMatrix(1200, 300, 5);
  for (auto _ : state) {
    std::atomic<size_t> done{0};
    ParallelForChunks(
        a.rows(),
        [&](size_t begin, size_t end) {
          double acc = 0.0;
          for (size_t i = begin; i < end; ++i) {
            auto row = a.Row(i);
            for (double v : row) acc += v * v;
          }
          benchmark::DoNotOptimize(acc);
          done.fetch_add(end - begin, std::memory_order_relaxed);
        },
        {.pool = &pool});
    if (done.load() != a.rows()) state.SkipWithError("lost iterations");
  }
}
BENCHMARK(BM_ParallelForGramScaling)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace swsketch

BENCHMARK_MAIN();

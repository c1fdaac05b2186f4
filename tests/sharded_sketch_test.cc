// Tests for sharded parallel ingest (DESIGN.md section 8): the
// sharded == serial bit-identity contract for deterministic backends,
// round-robin window alignment, tolerance parity for randomized backends,
// and concurrent ingest + query (run under the TSan preset).
#include "distributed/sharded_sketch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/concurrent_sketch.h"
#include "core/factory.h"
#include "core/merge_reduce.h"
#include "eval/cov_err.h"
#include "stream/window_buffer.h"
#include "util/random.h"

namespace swsketch {
namespace {

// Rows scaled to ~unit squared norm so DI's default max_norm_sq works.
Matrix GaussianRows(uint64_t seed, size_t n, size_t d) {
  Rng rng(seed);
  Matrix m(0, d);
  m.ReserveRows(n);
  std::vector<double> row(d);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : row) v = scale * rng.Gaussian();
    m.AppendRow(row);
  }
  return m;
}

std::vector<double> SequenceTs(size_t n) {
  std::vector<double> ts(n);
  for (size_t i = 0; i < n; ++i) ts[i] = static_cast<double>(i);
  return ts;
}

SketchConfig ConfigFor(const std::string& algorithm, size_t ell) {
  SketchConfig config;
  config.algorithm = algorithm;
  config.ell = ell;
  config.levels = 5;
  config.max_norm_sq = 2.0;
  config.seed = 11;
  return config;
}

std::unique_ptr<ShardedSketch> MakeSharded(const SketchConfig& config,
                                           size_t dim, WindowSpec window,
                                           size_t shards, bool parallel,
                                           size_t block_rows = 64) {
  ShardedSketch::Options options;
  options.shards = shards;
  options.parallel = parallel;
  options.block_rows = block_rows;
  auto r = ShardedSketch::Make(dim, window, config, options);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.ok() ? r.take() : nullptr;
}

// The core contract: the parallel writer pipeline answers byte-for-byte
// what the inline serial execution of the same sharded pipeline answers,
// at every interleaved query point, for every deterministic backend.
TEST(ShardedSketchTest, ParallelMatchesSerialBitExact_SequenceWindow) {
  const size_t d = 12, n = 1200;
  const Matrix rows = GaussianRows(21, n, d);
  const std::vector<double> ts = SequenceTs(n);
  for (const std::string algo : {"lm-fd", "di-fd", "lm-hash", "di-hash"}) {
    SCOPED_TRACE(algo);
    const SketchConfig config = ConfigFor(algo, 8);
    auto parallel =
        MakeSharded(config, d, WindowSpec::Sequence(300), 3, true);
    auto serial =
        MakeSharded(config, d, WindowSpec::Sequence(300), 3, false);
    ASSERT_TRUE(parallel && serial);
    const size_t chunk = 97;  // Deliberately misaligned with block_rows.
    for (size_t begin = 0; begin < n; begin += chunk) {
      const size_t end = std::min(n, begin + chunk);
      Matrix block(0, d);
      for (size_t i = begin; i < end; ++i) block.AppendRow(rows.Row(i));
      const std::span<const double> bts(ts.data() + begin, end - begin);
      parallel->UpdateBatch(block, bts);
      serial->UpdateBatch(block, bts);
      const Matrix bp = parallel->Query();
      const Matrix bs = serial->Query();
      ASSERT_EQ(bp.rows(), bs.rows());
      EXPECT_TRUE(bp.ApproxEquals(bs, 0.0));
    }
    parallel->Flush();
    serial->Flush();
    EXPECT_EQ(parallel->RowsStored(), serial->RowsStored());
  }
}

TEST(ShardedSketchTest, ParallelMatchesSerialBitExact_TimeWindow) {
  const size_t d = 10, n = 1000;
  const Matrix rows = GaussianRows(22, n, d);
  std::vector<double> ts(n);
  for (size_t i = 0; i < n; ++i) ts[i] = 0.1 * static_cast<double>(i);
  for (const std::string algo : {"lm-fd", "lm-hash"}) {
    SCOPED_TRACE(algo);
    const SketchConfig config = ConfigFor(algo, 8);
    const WindowSpec window = WindowSpec::Time(20.0);
    auto parallel = MakeSharded(config, d, window, 4, true);
    auto serial = MakeSharded(config, d, window, 4, false);
    ASSERT_TRUE(parallel && serial);
    for (size_t i = 0; i < n; ++i) {
      parallel->Update(rows.Row(i), ts[i]);
      serial->Update(rows.Row(i), ts[i]);
      if ((i + 1) % 250 == 0) {
        EXPECT_TRUE(parallel->Query().ApproxEquals(serial->Query(), 0.0));
      }
    }
    // Slide the window past every ingested row: expiry must stay aligned.
    const double far = ts.back() + 1000.0;
    parallel->AdvanceTo(far);
    serial->AdvanceTo(far);
    const Matrix bp = parallel->Query();
    EXPECT_EQ(bp.rows(), 0u);
    EXPECT_TRUE(bp.ApproxEquals(serial->Query(), 0.0));
    // Ingest resumes after total expiry.
    parallel->Update(rows.Row(0), far + 1.0);
    serial->Update(rows.Row(0), far + 1.0);
    EXPECT_TRUE(parallel->Query().ApproxEquals(serial->Query(), 0.0));
  }
}

// With one shard the pipeline degenerates to the plain sketch: shard 0
// keeps the base seed and the single-leaf reduce is the identity, so the
// bytes must match the unsharded factory sketch — randomized backends
// included.
TEST(ShardedSketchTest, SingleShardMatchesPlainSketch) {
  const size_t d = 9, n = 700;
  const Matrix rows = GaussianRows(23, n, d);
  const std::vector<double> ts = SequenceTs(n);
  for (const std::string algo :
       {"lm-fd", "ds-fd", "lm-hash", "lm-rp", "swr"}) {
    SCOPED_TRACE(algo);
    const SketchConfig config = ConfigFor(algo, 8);
    const WindowSpec window = WindowSpec::Sequence(250);
    auto sharded = MakeSharded(config, d, window, 1, true);
    auto plain = MakeSlidingWindowSketch(d, window, config);
    ASSERT_TRUE(sharded && plain.ok());
    for (size_t i = 0; i < n; ++i) {
      sharded->Update(rows.Row(i), ts[i]);
      plain.value()->Update(rows.Row(i), ts[i]);
      if ((i + 1) % 200 == 0) {
        EXPECT_TRUE(
            sharded->Query().ApproxEquals(plain.value()->Query(), 0.0));
      }
    }
    sharded->Flush();
    EXPECT_EQ(sharded->RowsStored(), plain.value()->RowsStored());
    EXPECT_TRUE(sharded->Query().ApproxEquals(plain.value()->Query(), 0.0));
  }
}

// Round-robin with global timestamps makes the union of shard windows the
// logical window *exactly*: an exact backend sharded three ways must have
// zero covariance error against the exact window, before and after slides.
TEST(ShardedSketchTest, RoundRobinWindowAlignmentIsExact) {
  const size_t d = 8, n = 900;
  const uint64_t w = 200;
  const Matrix rows = GaussianRows(24, n, d);
  auto sharded = MakeSharded(ConfigFor("exact", 8), d,
                             WindowSpec::Sequence(w), 3, true);
  ASSERT_TRUE(sharded);
  WindowBuffer truth(WindowSpec::Sequence(w));
  for (size_t i = 0; i < n; ++i) {
    const double ts = static_cast<double>(i);
    sharded->Update(rows.Row(i), ts);
    truth.Add(Row(std::vector<double>(rows.Row(i).begin(),
                                      rows.Row(i).end()),
                  ts));
    if ((i + 1) % 150 == 0) {
      const Matrix b = sharded->Query();
      EXPECT_EQ(b.rows(), truth.size());
      const double err =
          CovarianceError(truth.GramMatrix(d), truth.FrobeniusNormSq(), b);
      EXPECT_LE(err, 1e-12);
    }
  }
}

// Randomized backends cannot be bit-compared across shard counts (seeds
// differ per shard by design); they must still land in the same accuracy
// regime as their unsharded counterpart.
TEST(ShardedSketchTest, RandomizedBackendsToleranceParity) {
  const size_t d = 16, n = 1500;
  const uint64_t w = 400;
  const size_t ell = 48;
  const Matrix rows = GaussianRows(25, n, d);
  for (const std::string algo : {"lm-rp", "swr"}) {
    SCOPED_TRACE(algo);
    const SketchConfig config = ConfigFor(algo, ell);
    auto sharded =
        MakeSharded(config, d, WindowSpec::Sequence(w), 3, true);
    auto plain = MakeSlidingWindowSketch(d, WindowSpec::Sequence(w), config);
    ASSERT_TRUE(sharded && plain.ok());
    WindowBuffer truth(WindowSpec::Sequence(w));
    for (size_t i = 0; i < n; ++i) {
      const double ts = static_cast<double>(i);
      sharded->Update(rows.Row(i), ts);
      plain.value()->Update(rows.Row(i), ts);
      truth.Add(Row(std::vector<double>(rows.Row(i).begin(),
                                        rows.Row(i).end()),
                    ts));
    }
    const Matrix gram = truth.GramMatrix(d);
    const double frob = truth.FrobeniusNormSq();
    const double err_sharded =
        CovarianceError(gram, frob, sharded->Query());
    const double err_plain =
        CovarianceError(gram, frob, plain.value()->Query());
    EXPECT_LT(err_sharded, 0.75);
    EXPECT_LT(err_plain, 0.75);
    // The priority union answers with one sample per slot, like plain SWR,
    // not with the S * ell rows of stacked shard answers.
    if (algo == "swr") {
      EXPECT_LE(sharded->Query().rows(), ell);
    }
  }
}

TEST(ShardedSketchTest, ShardSeedScheme) {
  EXPECT_EQ(ShardedSketch::ShardSeed(42, 0), 42u);
  std::set<uint64_t> seeds;
  for (size_t s = 0; s < 16; ++s) seeds.insert(ShardedSketch::ShardSeed(42, s));
  EXPECT_EQ(seeds.size(), 16u);  // No collisions across shards.
}

TEST(ShardedSketchTest, MakeRejectsBadConfig) {
  SketchConfig config = ConfigFor("no-such-algorithm", 8);
  EXPECT_FALSE(
      ShardedSketch::Make(4, WindowSpec::Sequence(10), config, {}).ok());
  ShardedSketch::Options zero;
  zero.shards = 0;
  EXPECT_FALSE(ShardedSketch::Make(4, WindowSpec::Sequence(10),
                                   ConfigFor("lm-fd", 8), zero)
                   .ok());
}

TEST(ShardedSketchTest, StateVersionTracksMutationsNotQueries) {
  auto sharded = MakeSharded(ConfigFor("lm-fd", 8), 6,
                             WindowSpec::Sequence(100), 2, true);
  ASSERT_TRUE(sharded);
  const uint64_t v0 = sharded->StateVersion();
  const Matrix rows = GaussianRows(26, 10, 6);
  const std::vector<double> ts = SequenceTs(10);
  sharded->UpdateBatch(rows, ts);
  const uint64_t v1 = sharded->StateVersion();
  EXPECT_GT(v1, v0);
  (void)sharded->Query();
  sharded->Flush();
  EXPECT_EQ(sharded->StateVersion(), v1);  // Queries/flushes do not mutate.
  sharded->AdvanceTo(50.0);
  EXPECT_GT(sharded->StateVersion(), v1);
}

// LM/DI StateVersion plumbing backs the sharded query cache; pin the
// "moves on every mutation" contract on the frameworks themselves.
TEST(ShardedSketchTest, FrameworkStateVersionMovesPerMutation) {
  for (const std::string algo : {"lm-fd", "di-fd"}) {
    SCOPED_TRACE(algo);
    auto sketch = MakeSlidingWindowSketch(6, WindowSpec::Sequence(50),
                                          ConfigFor(algo, 8));
    ASSERT_TRUE(sketch.ok());
    const uint64_t v0 = sketch.value()->StateVersion();
    const Matrix rows = GaussianRows(27, 3, 6);
    sketch.value()->Update(rows.Row(0), 0.0);
    const uint64_t v1 = sketch.value()->StateVersion();
    EXPECT_GT(v1, v0);
    (void)sketch.value()->Query();
    EXPECT_EQ(sketch.value()->StateVersion(), v1);
    sketch.value()->AdvanceTo(10.0);
    EXPECT_GT(sketch.value()->StateVersion(), v1);
  }
}

// Interleaved ingest and queries from the coordinator thread while S
// writers run: the TSan preset validates the queue, quiesce and publish
// protocols.
TEST(ShardedSketchTest, ConcurrentIngestAndQuery) {
  const size_t d = 10, n = 6000;
  const Matrix rows = GaussianRows(28, n, d);
  auto sharded = MakeSharded(ConfigFor("lm-fd", 8), d,
                             WindowSpec::Sequence(500), 3, true,
                             /*block_rows=*/32);
  ASSERT_TRUE(sharded);
  size_t queries = 0;
  for (size_t i = 0; i < n; ++i) {
    sharded->Update(rows.Row(i), static_cast<double>(i));
    if ((i + 1) % 500 == 0) {
      const Matrix b = sharded->Query();
      EXPECT_LE(b.rows(), 8u);
      ++queries;
    }
  }
  EXPECT_EQ(queries, n / 500);
  sharded->Flush();
  EXPECT_GT(sharded->RowsStored(), 0u);
}

// Multi-threaded callers go through ConcurrentSketch: one writer ingests
// while readers query, on top of the sharded pipeline's own S writers.
TEST(ShardedSketchTest, ConcurrentSketchOverShardedPipeline) {
  const size_t d = 8, n = 3000;
  const Matrix rows = GaussianRows(29, n, d);
  ShardedSketch::Options options;
  options.shards = 2;
  options.block_rows = 32;
  auto inner = ShardedSketch::Make(d, WindowSpec::Sequence(400),
                                   ConfigFor("lm-fd", 8), options);
  ASSERT_TRUE(inner.ok());
  ConcurrentSketch sketch(inner.take(), ConcurrentSketch::Mode::kMutex);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t i = 0; i < n; ++i) {
      sketch.Update(rows.Row(i), static_cast<double>(i));
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const Matrix b = sketch.Query();
        EXPECT_LE(b.rows(), 8u);
        (void)sketch.RowsStored();
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  sketch.Flush();
  EXPECT_TRUE(sketch.Query().rows() <= 8u);
}

// merge_reduce unit coverage: spec mapping and pair combiners.
TEST(MergeReduceTest, SpecForAlgorithms) {
  EXPECT_EQ(ReduceSpecFor("lm-fd", 16).kind, QueryReduceKind::kFdMerge);
  EXPECT_EQ(ReduceSpecFor("lm-fd", 16).reduce_ell, 16u);
  EXPECT_EQ(ReduceSpecFor("di-fd", 16).reduce_ell, 32u);
  EXPECT_EQ(ReduceSpecFor("lm-hash", 16).kind, QueryReduceKind::kSum);
  EXPECT_EQ(ReduceSpecFor("lm-rp", 16).kind, QueryReduceKind::kSum);
  EXPECT_EQ(ReduceSpecFor("swr", 16).kind, QueryReduceKind::kPriorityUnion);
  EXPECT_EQ(ReduceSpecFor("di-hash", 16).kind, QueryReduceKind::kStack);
  EXPECT_EQ(ReduceSpecFor("exact", 16).kind, QueryReduceKind::kStack);
}

TEST(MergeReduceTest, CombinersAndEmptyOperands) {
  const size_t d = 3;
  Matrix a{{1.0, 2.0, 3.0}};
  Matrix b{{4.0, 5.0, 6.0}};
  const Matrix empty(0, d);

  const QueryReduceSpec stack{QueryReduceKind::kStack, 0};
  EXPECT_EQ(CombineQueryPair(stack, d, a, b).rows(), 2u);
  EXPECT_TRUE(CombineQueryPair(stack, d, empty, b).ApproxEquals(b, 0.0));
  EXPECT_TRUE(CombineQueryPair(stack, d, a, empty).ApproxEquals(a, 0.0));

  const QueryReduceSpec sum{QueryReduceKind::kSum, 0};
  const Matrix s = CombineQueryPair(sum, d, a, b);
  EXPECT_EQ(s.rows(), 1u);
  EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(s(0, 2), 9.0);

  const QueryReduceSpec fd{QueryReduceKind::kFdMerge, 4};
  const Matrix f = CombineQueryPair(fd, d, a, b);
  EXPECT_LE(f.rows(), 4u);
}

TEST(MergeReduceTest, TreeReduceMatchesSerialFold) {
  // Stacking: tree order must equal shard order (left-to-right identity).
  const size_t d = 2;
  std::vector<Matrix> parts;
  Matrix expected(0, d);
  for (size_t i = 0; i < 5; ++i) {
    Matrix m{{static_cast<double>(i), 1.0}};
    parts.push_back(m);
    expected = expected.VStack(m);
  }
  const QueryReduceSpec stack{QueryReduceKind::kStack, 0};
  const Matrix reduced = TreeReduceQueries(stack, d, parts, nullptr);
  EXPECT_TRUE(reduced.ApproxEquals(expected, 0.0));
  EXPECT_EQ(TreeReduceQueries(stack, d, {}, nullptr).rows(), 0u);
}

}  // namespace
}  // namespace swsketch

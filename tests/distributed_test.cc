// Tests for the distributed sketching extension (Section 9 future work):
// mergeable FD across workers, stacked window queries, and max-stable
// distributed SWR and SWOR served by ShardedSketch's priority-union
// reduce.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/merge_reduce.h"
#include "core/window_sampler.h"
#include "distributed/sharded_sketch.h"
#include "eval/cov_err.h"
#include "sketch/frequent_directions.h"
#include "stream/window_buffer.h"
#include "util/random.h"

namespace swsketch {
namespace {

std::vector<double> RandomRow(Rng* rng, size_t d) {
  std::vector<double> r(d);
  for (auto& v : r) v = rng->Gaussian();
  return r;
}

// A sharded sampler (swr unless `algorithm` says otherwise): S shards,
// round-robin routing, exact Frobenius trackers.
std::unique_ptr<ShardedSketch> MakeShardedSampler(
    size_t d, WindowSpec window, size_t ell, size_t shards, uint64_t seed,
    const char* algorithm = "swr") {
  SketchConfig config;
  config.algorithm = algorithm;
  config.ell = ell;
  config.exact_frobenius = true;
  config.seed = seed;
  ShardedSketch::Options options;
  options.shards = shards;
  auto r = ShardedSketch::Make(d, window, config, options);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.ok() ? r.take() : nullptr;
}

TEST(DistributedFdTest, MergedSketchCoversUnion) {
  const size_t d = 14, ell = 12, workers = 4;
  Rng rng(1);
  std::vector<FrequentDirections> fds;
  for (size_t w = 0; w < workers; ++w) fds.emplace_back(d, ell);
  Matrix all(0, d);
  for (int i = 0; i < 600; ++i) {
    auto row = RandomRow(&rng, d);
    fds[i % workers].Append(row, i);
    all.AppendRow(row);
  }
  FrequentDirections merged(d, ell);
  for (const FrequentDirections& f : fds) merged.MergeWith(f);
  EXPECT_LE(merged.RowsStored(), ell);
  // Error within the merged certificate and the paper-style bound.
  const double err = CovarianceErrorDense(all, merged.Approximation());
  EXPECT_LE(err * all.FrobeniusNormSq(), merged.shed_mass() * (1 + 1e-9));
  EXPECT_LE(err, 4.0 / static_cast<double>(ell) + 1e-9);
}

TEST(DistributedFdTest, SingleWorkerIsIdentity) {
  Rng rng(2);
  FrequentDirections fd(8, 6);
  for (int i = 0; i < 100; ++i) fd.Append(RandomRow(&rng, 8), i);
  FrequentDirections merged(8, 6);
  merged.MergeWith(fd);
  EXPECT_TRUE(merged.Approximation().ApproxEquals(fd.Approximation(), 1e-12));
}

TEST(StackedQueriesTest, StackedQueriesApproximateUnionWindow) {
  // Two workers, each with an LM-FD over its sub-stream; stacking their B's
  // approximates the union window by decomposability.
  const size_t d = 10;
  const uint64_t w = 300;
  SketchConfig config;
  config.algorithm = "lm-fd";
  config.ell = 16;
  auto s1 = MakeSlidingWindowSketch(d, WindowSpec::Sequence(w), config);
  auto s2 = MakeSlidingWindowSketch(d, WindowSpec::Sequence(w), config);
  ASSERT_TRUE(s1.ok() && s2.ok());
  WindowBuffer union_buffer(WindowSpec::Sequence(2 * w));
  Rng rng(3);
  for (int i = 0; i < 1500; ++i) {
    auto row = RandomRow(&rng, d);
    ((i % 2) ? *s1 : *s2)->Update(row, static_cast<double>(i / 2));
    union_buffer.Add(Row(row, i));
  }
  std::vector<Matrix> parts;
  parts.push_back(s1.value()->Query());
  parts.push_back(s2.value()->Query());
  const Matrix b = TreeReduceQueries({QueryReduceKind::kStack, 0}, d,
                                     std::move(parts), nullptr);
  const double err = CovarianceError(union_buffer.GramMatrix(d),
                                     union_buffer.FrobeniusNormSq(), b);
  EXPECT_LT(err, 0.4);
}

TEST(ShardedSwrTest, QueryMatchesStructure) {
  const size_t d = 6, ell = 8, workers = 3;
  auto sharded =
      MakeShardedSampler(d, WindowSpec::Sequence(600), ell, workers, 100);
  ASSERT_TRUE(sharded);
  Rng rng(4);
  for (int i = 0; i < 900; ++i) sharded->Update(RandomRow(&rng, d), i);
  Matrix b = sharded->Query();
  EXPECT_EQ(b.rows(), ell);  // One union sample per slot.
  EXPECT_GT(sharded->RowsStored(), ell);
  EXPECT_EQ(sharded->num_shards(), workers);
}

TEST(ShardedSwrTest, FrobeniusOfUnionPreserved) {
  // With exact trackers, sum over sampled ||b_i||^2 = union ||A||_F^2.
  const size_t d = 5, ell = 10;
  auto sharded = MakeShardedSampler(d, WindowSpec::Sequence(200), ell, 2, 7);
  ASSERT_TRUE(sharded);
  WindowBuffer truth(WindowSpec::Sequence(200));
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    auto row = RandomRow(&rng, d);
    sharded->Update(row, i);
    truth.Add(Row(row, i));
  }
  const double union_frob = truth.FrobeniusNormSq();
  EXPECT_NEAR(sharded->Query().FrobeniusNormSq(), union_frob,
              1e-9 * union_frob);
}

TEST(ShardedSwrTest, HeavyWorkerDominatesSampling) {
  // Round-robin over two shards sends every light row to shard 0 and every
  // heavy row to shard 1, so one shard's sub-stream carries almost all
  // mass: union samples should almost always come from it (coordinate
  // signature check).
  const size_t d = 4, ell = 16;
  auto sharded = MakeShardedSampler(d, WindowSpec::Sequence(200), ell, 2, 20);
  ASSERT_TRUE(sharded);
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> light{0.01 * rng.Gaussian(), 0, 0, 0};
    std::vector<double> heavy{0, 0, 0, 10.0 + rng.Gaussian()};
    if (NormSq(light) == 0.0) light[0] = 0.01;
    sharded->Update(light, 2 * i);
    sharded->Update(heavy, 2 * i + 1);
  }
  Matrix b = sharded->Query();
  size_t from_heavy = 0;
  for (size_t i = 0; i < b.rows(); ++i) {
    if (b(i, 3) != 0.0) ++from_heavy;
  }
  EXPECT_GE(from_heavy, b.rows() - 1);
}

TEST(ShardedSwrTest, TimestampFoldingServesCurrentWindow) {
  // Query() serves the *current* union window without an explicit
  // AdvanceTo heartbeat: rows a stale shard holds from before the window
  // slid past them must be expired at query time even though that shard
  // saw no further updates.
  const size_t d = 4, ell = 8;
  auto sharded = MakeShardedSampler(d, WindowSpec::Time(10.0), ell, 2, 40);
  ASSERT_TRUE(sharded);
  // Coordinate-0 rows at early timestamps, ten per shard.
  for (int i = 0; i < 20; ++i) {
    sharded->Update(std::vector<double>{1.0, 0, 0, 0}, 0.1 * i);
  }
  // One coordinate-3 row far past the early window: it lands on shard 0,
  // so shard 1 only ever sees early rows.
  sharded->Update(std::vector<double>{0, 0, 0, 1.0}, 100.0);
  const Matrix b = sharded->Query();
  ASSERT_GT(b.rows(), 0u);
  for (size_t i = 0; i < b.rows(); ++i) {
    EXPECT_EQ(b(i, 0), 0.0);  // No expired early row survives.
    EXPECT_NE(b(i, 3), 0.0);
  }
}

// Sharded SWOR reduces through the priority union: per union window the
// top-ell candidates across the shards, so it answers like one SWOR.
TEST(ShardedSworTest, ReducesByPriorityUnion) {
  EXPECT_EQ(ReduceSpecFor("swor", 8).kind, QueryReduceKind::kPriorityUnion);
  // SWOR-ALL answers with every candidate; the shards' candidates are a
  // superset of the union stream's, so it keeps stacking.
  EXPECT_EQ(ReduceSpecFor("swor-all", 8).kind, QueryReduceKind::kStack);
}

TEST(ShardedSworTest, OneShardIsPlainSwor) {
  const size_t d = 6, ell = 8;
  for (const bool time_window : {false, true}) {
    SCOPED_TRACE(time_window ? "time" : "sequence");
    const WindowSpec window =
        time_window ? WindowSpec::Time(90.0) : WindowSpec::Sequence(300);
    auto sharded = MakeShardedSampler(d, window, ell, 1, 11, "swor");
    SketchConfig config;
    config.algorithm = "swor";
    config.ell = ell;
    config.exact_frobenius = true;
    config.seed = 11;
    auto plain = MakeSlidingWindowSketch(d, window, config);
    ASSERT_TRUE(sharded && plain.ok());
    Rng rng(12);
    for (int i = 0; i < 900; ++i) {
      const auto row = RandomRow(&rng, d);
      const double ts = time_window ? 0.25 * i : i;
      sharded->Update(row, ts);
      (*plain)->Update(row, ts);
      if ((i + 1) % 150 == 0) {
        EXPECT_EQ(sharded->Query().MaxAbsDiff((*plain)->Query()), 0.0);
      }
    }
    sharded->Flush();
    EXPECT_EQ(sharded->RowsStored(), (*plain)->RowsStored());
  }
}

TEST(ShardedSworTest, UnionAnswersWithEllRowsAndTheUnionMass) {
  // With exact trackers every per-row scaled sample carries
  // ||A||_F^2 / k, so the answer's mass is the union window's.
  const size_t d = 5, ell = 10;
  for (const bool time_window : {false, true}) {
    for (size_t shards = 2; shards <= 4; ++shards) {
      SCOPED_TRACE(::testing::Message()
                   << (time_window ? "time" : "sequence") << " S=" << shards);
      const WindowSpec window =
          time_window ? WindowSpec::Time(50.0) : WindowSpec::Sequence(200);
      auto sharded = MakeShardedSampler(d, window, ell, shards, 13, "swor");
      ASSERT_TRUE(sharded);
      WindowBuffer truth(window);
      Rng rng(14);
      for (int i = 0; i < 600; ++i) {
        auto row = RandomRow(&rng, d);
        const double ts = time_window ? 0.25 * i : i;
        sharded->Update(row, ts);
        truth.Add(Row(row, ts));
        if ((i + 1) % 150 == 0) {
          const Matrix b = sharded->Query();
          EXPECT_EQ(b.rows(), ell);
          const double union_frob = truth.FrobeniusNormSq();
          EXPECT_NEAR(b.FrobeniusNormSq(), union_frob, 1e-9 * union_frob);
        }
      }
    }
  }
}

TEST(ShardedSwrTest, MismatchedWorkersRejected) {
  std::vector<std::unique_ptr<SlidingWindowSketch>> shards;
  shards.push_back(std::make_unique<WindowSampler>(
      4, WindowSpec::Sequence(10), WindowSampler::Options{.ell = 4}));
  shards.push_back(std::make_unique<WindowSampler>(
      4, WindowSpec::Sequence(10), WindowSampler::Options{.ell = 8}));
  EXPECT_DEATH(ShardedSketch(std::move(shards), ReduceSpecFor("swr", 4),
                             ShardedSketch::Options{}),
               "");
}

TEST(ShardedSworTest, MixedSchemesRejected) {
  std::vector<std::unique_ptr<SlidingWindowSketch>> shards;
  shards.push_back(std::make_unique<WindowSampler>(
      4, WindowSpec::Sequence(10), WindowSampler::Options{.ell = 4}));
  shards.push_back(std::make_unique<WindowSampler>(
      4, WindowSpec::Sequence(10),
      WindowSampler::Options{.ell = 4,
                             .scheme = WindowSampler::Scheme::kSwor}));
  EXPECT_DEATH(ShardedSketch(std::move(shards), ReduceSpecFor("swor", 4),
                             ShardedSketch::Options{}),
               "");
}

}  // namespace
}  // namespace swsketch

// Tests for the Logarithmic Method framework and LM-FD / LM-HASH
// (Section 6).
#include "core/logarithmic_method.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/cov_err.h"
#include "stream/window_buffer.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

std::vector<double> RandomRow(Rng* rng, size_t d, double scale = 1.0) {
  std::vector<double> r(d);
  for (auto& v : r) v = scale * rng->Gaussian();
  return r;
}

double WindowErr(SlidingWindowSketch* sketch, const WindowBuffer& buffer,
                 size_t d) {
  return CovarianceError(buffer.GramMatrix(d), buffer.FrobeniusNormSq(),
                         sketch->Query());
}

TEST(LmFdTest, ErrorSmallOnStationaryStream) {
  const size_t d = 10, w = 500;
  LmFd sketch(d, WindowSpec::Sequence(w),
              LmFd::Options{.ell = 24, .blocks_per_level = 8});
  WindowBuffer buffer(WindowSpec::Sequence(w));
  Rng rng(1);
  for (int i = 0; i < 3000; ++i) {
    auto row = RandomRow(&rng, d);
    sketch.Update(row, i);
    buffer.Add(Row(row, i));
  }
  EXPECT_LT(WindowErr(&sketch, buffer, d), 0.30);
}

TEST(LmFdTest, ErrorDecreasesWithBudget) {
  const size_t d = 8, w = 400;
  Rng rng(2);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 2500; ++i) rows.push_back(RandomRow(&rng, d));

  auto run = [&](size_t ell, size_t b) {
    LmFd sketch(d, WindowSpec::Sequence(w),
                LmFd::Options{.ell = ell, .blocks_per_level = b});
    WindowBuffer buffer(WindowSpec::Sequence(w));
    for (size_t i = 0; i < rows.size(); ++i) {
      sketch.Update(rows[i], static_cast<double>(i));
      buffer.Add(Row(rows[i], static_cast<double>(i)));
    }
    return WindowErr(&sketch, buffer, d);
  };
  const double coarse = run(8, 4);
  const double fine = run(48, 16);
  EXPECT_LT(fine, coarse);
}

TEST(LmFdTest, SpaceIsSublinearInWindow) {
  const size_t d = 6, w = 4000;
  LmFd sketch(d, WindowSpec::Sequence(w),
              LmFd::Options{.ell = 16, .blocks_per_level = 6});
  Rng rng(3);
  size_t max_rows = 0;
  for (int i = 0; i < 12000; ++i) {
    sketch.Update(RandomRow(&rng, d), i);
    max_rows = std::max(max_rows, sketch.RowsStored());
  }
  // LM-FD space ~ ell * b * L << window size.
  EXPECT_LT(max_rows, w / 2);
  EXPECT_GT(sketch.NumLevels(), 1u);
}

TEST(LmFdTest, InvariantsHoldThroughout) {
  const size_t d = 5;
  LmFd sketch(d, WindowSpec::Sequence(600),
              LmFd::Options{.ell = 12, .blocks_per_level = 4});
  Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    sketch.Update(RandomRow(&rng, d), i);
    if (i % 97 == 0) sketch.CheckInvariants();
  }
  sketch.CheckInvariants();
}

TEST(LmFdTest, TimeWindowWithGaps) {
  const size_t d = 4;
  LmFd sketch(d, WindowSpec::Time(50.0),
              LmFd::Options{.ell = 12, .blocks_per_level = 4});
  WindowBuffer buffer(WindowSpec::Time(50.0));
  Rng rng(5);
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.Exponential(2.0);
    auto row = RandomRow(&rng, d);
    sketch.Update(row, t);
    buffer.Add(Row(row, t));
  }
  EXPECT_LT(WindowErr(&sketch, buffer, d), 0.35);
  // Long silence: window empties.
  sketch.AdvanceTo(t + 1000.0);
  EXPECT_EQ(sketch.Query().rows(), 0u);
}

TEST(LmFdTest, OversizedRowHandled) {
  // A row with squared norm far above the block capacity must flow through
  // the unmergeable-block path without breaking invariants or accuracy.
  const size_t d = 4, w = 200;
  LmFd sketch(d, WindowSpec::Sequence(w),
              LmFd::Options{.ell = 8, .blocks_per_level = 4});
  WindowBuffer buffer(WindowSpec::Sequence(w));
  Rng rng(6);
  for (int i = 0; i < 1500; ++i) {
    std::vector<double> row = (i % 301 == 0)
                                  ? std::vector<double>{100.0, 0, 0, 0}
                                  : RandomRow(&rng, d);
    sketch.Update(row, i);
    buffer.Add(Row(row, i));
    if (i % 211 == 0) sketch.CheckInvariants();
  }
  sketch.CheckInvariants();
  // The huge rows dominate the spectrum; the sketch must capture them.
  EXPECT_LT(WindowErr(&sketch, buffer, d), 0.30);
}

TEST(LmFdTest, ActiveBlockFastPathStoresRawRows) {
  // Fewer rows than one block: stored rows == arrived rows (raw), and the
  // query must be exact.
  const size_t d = 5;
  LmFd sketch(d, WindowSpec::Sequence(100),
              LmFd::Options{.ell = 32, .blocks_per_level = 4});
  WindowBuffer buffer(WindowSpec::Sequence(100));
  Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    auto row = RandomRow(&rng, d);
    sketch.Update(row, i);
    buffer.Add(Row(row, i));
  }
  EXPECT_EQ(sketch.RowsStored(), 5u);
  EXPECT_NEAR(WindowErr(&sketch, buffer, d), 0.0, 1e-9);
}

TEST(LmHashTest, ErrorReasonable) {
  const size_t d = 6, w = 500;
  LmHash sketch(d, WindowSpec::Sequence(w),
                LmHash::Options{.ell = 256, .blocks_per_level = 8, .seed = 5});
  WindowBuffer buffer(WindowSpec::Sequence(w));
  Rng rng(8);
  for (int i = 0; i < 2500; ++i) {
    auto row = RandomRow(&rng, d);
    sketch.Update(row, i);
    buffer.Add(Row(row, i));
  }
  EXPECT_LT(WindowErr(&sketch, buffer, d), 0.4);
}

TEST(LmHashTest, NameAndWindow) {
  LmHash sketch(4, WindowSpec::Time(9.0), LmHash::Options{});
  EXPECT_EQ(sketch.name(), "LM-HASH");
  EXPECT_EQ(sketch.window().type(), WindowType::kTime);
}

TEST(LogarithmicMethodTest, ExpiredBlocksAreDropped) {
  const size_t d = 3;
  LmFd sketch(d, WindowSpec::Sequence(100),
              LmFd::Options{.ell = 8, .blocks_per_level = 4});
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) sketch.Update(RandomRow(&rng, d), i);
  const size_t blocks_mid = sketch.NumBlocks();
  for (int i = 1000; i < 2000; ++i) sketch.Update(RandomRow(&rng, d), i);
  // Steady state: block count stays bounded rather than growing linearly.
  EXPECT_LT(sketch.NumBlocks(), blocks_mid + 20);
}

// The live closed blocks of `lm` in its merge order (highest level
// first, oldest block first within a level) and its active rows, read back
// from its checkpoint (LmFd::Serialize, then SerializeCore's layout).
struct LiveParts {
  std::vector<FrequentDirections> blocks;
  Matrix active;
};

LiveParts ReadLiveParts(const LmFd& lm) {
  ByteWriter w;
  lm.Serialize(&w);
  const std::vector<uint8_t> bytes = w.bytes();
  ByteReader r(bytes);
  uint32_t tag = 0, version = 0;
  uint64_t u = 0, raw = 0, levels = 0;
  double x = 0.0, now = 0.0;
  EXPECT_TRUE(r.Get(&tag) && r.Get(&version) && r.Get(&u));
  const WindowSpec window = WindowSpec::Deserialize(&r).take();
  // ell, blocks per level, block capacity, FD buffer factor; then the
  // clock, the next row id and the active block's start, end and mass.
  EXPECT_TRUE(r.Get(&u) && r.Get(&u) && r.Get(&x) && r.Get(&x));
  EXPECT_TRUE(r.Get(&now) && r.Get(&u) && r.Get(&x) && r.Get(&x) &&
              r.Get(&x) && r.Get(&raw));
  LiveParts out{{}, Matrix(0, lm.dim())};
  for (uint64_t i = 0; i < raw; ++i) {
    double ts = 0.0;
    std::vector<double> values;
    EXPECT_TRUE(r.Get(&ts) && r.Get(&u) && r.GetVector(&values));
    out.active.AppendRow(values);
  }
  EXPECT_TRUE(r.Get(&levels));
  std::vector<std::vector<FrequentDirections>> live(levels);
  for (auto& level : live) {
    uint64_t blocks = 0;
    EXPECT_TRUE(r.Get(&blocks));
    for (uint64_t i = 0; i < blocks; ++i) {
      double start = 0.0;
      EXPECT_TRUE(r.Get(&start) && r.Get(&x) && r.Get(&x));
      FrequentDirections fd = FrequentDirections::Deserialize(&r).take();
      if (start >= window.Start(now)) level.push_back(std::move(fd));
    }
  }
  for (auto level = live.rbegin(); level != live.rend(); ++level) {
    for (FrequentDirections& fd : *level) out.blocks.push_back(std::move(fd));
  }
  return out;
}

TEST(LmFdTest, ColdQueryIsTheMergeOfItsLiveBlocks) {
  // A cold LM-FD query is FD's MergeAll of the live blocks plus the active
  // rows. In the tree regime (d large next to ell) that is byte-identical
  // to the pairwise MergeWith tree, spelled out here with
  // PairwiseTreeReduce; in the tall regime it is MergeAll's one shrink.
  const struct {
    size_t d;
    bool tall;
  } kCases[] = {{120, false}, {10, true}};
  const size_t ell = 8;
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.tall ? "tall" : "tree");
    LmFd lm(c.d, WindowSpec::Sequence(600),
            LmFd::Options{.ell = ell,
                          .block_capacity = static_cast<double>(ell * c.d)});
    Rng rng(21);
    size_t checked = 0;
    for (int i = 0; i < 1500; ++i) {
      lm.Update(RandomRow(&rng, c.d), i);
      if (i % 250 != 249) continue;
      const std::string route = c.tall ? "tall" : "tree";
      Counter* taken =
          MetricsRegistry::Global().GetCounter("fd.merge_route_" + route);
      const uint64_t before = taken->Value();
      lm.InvalidateQueryCache();
      const Matrix got = lm.Query();
      EXPECT_EQ(taken->Value() - before, 1u);

      const LiveParts parts = ReadLiveParts(lm);
      ASSERT_GE(parts.blocks.size(), 2u);
      const size_t m = parts.blocks.size();
      std::vector<const FrequentDirections*> ptrs;
      for (const FrequentDirections& fd : parts.blocks) ptrs.push_back(&fd);
      FrequentDirections want =
          c.tall ? FrequentDirections::MergeAll(ptrs)
                 : PairwiseTreeReduce<FrequentDirections>(
                       m,
                       [&](size_t p) {
                         FrequentDirections acc = parts.blocks[2 * p];
                         if (2 * p + 1 < m) {
                           acc.MergeWith(parts.blocks[2 * p + 1]);
                         }
                         return acc;
                       },
                       [](FrequentDirections& left,
                          const FrequentDirections& right) {
                         left.MergeWith(right);
                       });
      for (size_t j = 0; j < parts.active.rows(); ++j) {
        want.Append(parts.active.Row(j));
      }
      EXPECT_EQ(got.MaxAbsDiff(want.Approximation()), 0.0);
      ++checked;
    }
    EXPECT_EQ(checked, 6u);
  }
}

}  // namespace
}  // namespace swsketch

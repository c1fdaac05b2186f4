// Query-cache correctness (DESIGN.md §8 "Query path"): after every
// structural event in a randomized LM/DI run — block close, level merge,
// expiry, deserialize — a cached Query() must be byte-identical to a
// freshly-constructed sketch replaying the same rows, and a repeated
// (warm) Query() must be byte-identical to the first. The structure
// version counter is the cache key; these tests also pin that it only
// moves at structural events. DS-FD and ShardedSketch key on their state
// version instead and are checked at a fixed row interval.
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/dump_snapshot.h"
#include "core/dyadic_interval.h"
#include "core/factory.h"
#include "core/logarithmic_method.h"
#include "distributed/sharded_sketch.h"
#include "linalg/matrix.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

// Gaussian rows with ts = i + 1; every 17th row zero to exercise the
// zero-row skip paths (same shape as batch_update_test's stream).
struct TestStream {
  Matrix rows;
  std::vector<double> ts;
};

TestStream MakeStream(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  TestStream s;
  s.rows = Matrix(n, d);
  for (size_t i = 0; i < n; ++i) {
    if (i % 17 != 13) {
      for (size_t j = 0; j < d; ++j) s.rows(i, j) = rng.Gaussian();
    }
    s.ts.push_back(static_cast<double>(i + 1));
  }
  return s;
}

// LM/DI structure version; 0 for sketches that expose none (DS-FD), which
// the replay check then visits at its periodic trigger only.
template <typename SketchT>
uint64_t StructureVersion(const SketchT& sketch) {
  if constexpr (requires { sketch.structure_version(); }) {
    return sketch.structure_version();
  } else {
    return 0;
  }
}

// Feeds the stream row by row into a live sketch; whenever the structure
// version moves (a block closed, merged up, or expired) — and at a coarse
// row interval as a control — asserts that (a) the possibly-cached Query()
// matches a fresh sketch replaying the same prefix bitwise, and (b) an
// immediately repeated Query() (guaranteed warm) returns the same bytes.
template <typename SketchT>
void CheckCacheAgainstReplay(const TestStream& s,
                             const std::function<SketchT()>& make) {
  SketchT live = make();
  uint64_t last_version = StructureVersion(live);
  size_t checks = 0;
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    live.Update(s.rows.Row(i), s.ts[i]);
    const bool structural = StructureVersion(live) != last_version;
    const bool periodic = (i + 1) % 97 == 0;
    if (!structural && !periodic) continue;
    last_version = StructureVersion(live);
    ++checks;

    const Matrix q1 = live.Query();
    const Matrix q2 = live.Query();  // Warm: same version, same live set.
    ASSERT_EQ(q1.rows(), q2.rows()) << "row " << i;
    EXPECT_EQ(q1.MaxAbsDiff(q2), 0.0) << "row " << i;

    SketchT fresh = make();
    for (size_t j = 0; j <= i; ++j) fresh.Update(s.rows.Row(j), s.ts[j]);
    const Matrix qf = fresh.Query();
    ASSERT_EQ(q1.rows(), qf.rows()) << "row " << i;
    EXPECT_EQ(q1.MaxAbsDiff(qf), 0.0) << "row " << i;
  }
  EXPECT_GT(checks, 10u) << "stream produced too few structural events";
}

TEST(QueryCacheTest, LmFdMatchesFreshReplayAtEveryEvent) {
  const size_t d = 16;
  const TestStream s = MakeStream(400, d, 3);
  CheckCacheAgainstReplay<LmFd>(s, [d] {
    LmFd::Options opt;
    opt.ell = 8;
    opt.blocks_per_level = 3;  // Small levels force frequent merges.
    opt.block_capacity = 8.0 * static_cast<double>(d);
    return LmFd(d, WindowSpec::Sequence(150), opt);
  });
}

TEST(QueryCacheTest, LmHashMatchesFreshReplayAtEveryEvent) {
  const size_t d = 16;
  const TestStream s = MakeStream(400, d, 4);
  CheckCacheAgainstReplay<LmHash>(s, [d] {
    LmHash::Options opt;
    opt.ell = 8;
    opt.blocks_per_level = 3;
    opt.block_capacity = 8.0 * static_cast<double>(d);
    opt.seed = 11;
    return LmHash(d, WindowSpec::Sequence(150), opt);
  });
}

TEST(QueryCacheTest, LmFdTimeWindowExpiryInvalidates) {
  // Time window sliding between arrivals: blocks and raw rows expire
  // without any block closing, exercising the live-set shrink keying.
  const size_t d = 12;
  TestStream s = MakeStream(300, d, 5);
  Rng rng(6);
  double t = 0.0;
  for (auto& ts : s.ts) {
    t += rng.Uniform(0.1, 2.0);
    ts = t;
  }
  CheckCacheAgainstReplay<LmFd>(s, [d] {
    LmFd::Options opt;
    opt.ell = 8;
    opt.blocks_per_level = 3;
    opt.block_capacity = 8.0 * static_cast<double>(d);
    return LmFd(d, WindowSpec::Time(40.0), opt);
  });
}

TEST(QueryCacheTest, DiFdMatchesFreshReplayAtEveryEvent) {
  const size_t d = 16;
  const TestStream s = MakeStream(400, d, 7);
  double max_norm_sq = 1.0;
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    double nn = 0.0;
    for (size_t j = 0; j < d; ++j) nn += s.rows(i, j) * s.rows(i, j);
    max_norm_sq = std::max(max_norm_sq, nn);
  }
  CheckCacheAgainstReplay<DiFd>(s, [d, max_norm_sq] {
    DiFd::Options opt;
    opt.levels = 4;
    opt.window_size = 150;
    opt.max_norm_sq = max_norm_sq;
    opt.ell_top = 16;
    return DiFd(d, opt);
  });
}

TEST(QueryCacheTest, DiHashMatchesFreshReplayAtEveryEvent) {
  const size_t d = 16;
  const TestStream s = MakeStream(400, d, 8);
  CheckCacheAgainstReplay<DiHash>(s, [d] {
    DiHash::Options opt;
    opt.levels = 4;
    opt.window_size = 150;
    opt.max_norm_sq = 64.0;
    opt.ell_top = 16;
    opt.seed = 13;
    return DiHash(d, opt);
  });
}

TEST(QueryCacheTest, DsFdMatchesFreshReplayPeriodically) {
  // DS-FD exposes no structure version, so only the periodic trigger
  // fires; the stream is long enough for frame cuts, snapshot dumps and
  // expiries to fall between checks.
  const size_t d = 16;
  const TestStream s = MakeStream(1200, d, 12);
  CheckCacheAgainstReplay<DsFd>(s, [d] {
    DsFd::Options opt;
    opt.ell = 8;
    return DsFd(d, WindowSpec::Sequence(150), opt);
  });
}

TEST(QueryCacheTest, InvalidateForcesByteIdenticalColdPath) {
  const size_t d = 16;
  const TestStream s = MakeStream(500, d, 9);
  LmFd::Options lopt;
  lopt.ell = 8;
  lopt.block_capacity = 8.0 * static_cast<double>(d);
  LmFd lm(d, WindowSpec::Sequence(200), lopt);
  DiFd::Options dopt;
  dopt.levels = 4;
  dopt.window_size = 200;
  dopt.max_norm_sq = 50.0;
  dopt.ell_top = 16;
  DiFd di(d, dopt);
  for (size_t i = 0; i < s.rows.rows(); ++i) {
    lm.Update(s.rows.Row(i), s.ts[i]);
    di.Update(s.rows.Row(i), s.ts[i]);
  }
  const Matrix lm_warm = lm.Query();
  lm.InvalidateQueryCache();
  EXPECT_EQ(lm_warm.MaxAbsDiff(lm.Query()), 0.0);
  const Matrix di_warm = di.Query();
  di.InvalidateQueryCache();
  EXPECT_EQ(di_warm.MaxAbsDiff(di.Query()), 0.0);
}

TEST(QueryCacheTest, ShardedInvalidateForcesByteIdenticalColdPath) {
  const size_t d = 16;
  const TestStream s = MakeStream(500, d, 13);
  SketchConfig config;
  config.algorithm = "lm-fd";
  config.ell = 8;
  ShardedSketch::Options options;
  options.shards = 3;
  options.block_rows = 64;
  auto sharded = ShardedSketch::Make(d, WindowSpec::Sequence(200), config,
                                     options);
  ASSERT_TRUE(sharded.ok());
  ShardedSketch& sk = *sharded.value();
  sk.UpdateBatch(s.rows, s.ts);
  const Matrix cold = sk.Query();
  const Matrix warm = sk.Query();
  EXPECT_EQ(cold.MaxAbsDiff(warm), 0.0);
  sk.InvalidateQueryCache();
  EXPECT_EQ(warm.MaxAbsDiff(sk.Query()), 0.0);
}

TEST(QueryCacheTest, VersionMovesOnlyOnStructuralEvents) {
  const size_t d = 8;
  LmFd::Options opt;
  opt.ell = 4;
  opt.block_capacity = 4.0 * static_cast<double>(d);
  LmFd lm(d, WindowSpec::Sequence(100), opt);
  Rng rng(10);
  uint64_t version = lm.structure_version();
  size_t bumps = 0;
  for (size_t i = 0; i < 200; ++i) {
    std::vector<double> row(d);
    for (auto& v : row) v = rng.Gaussian();
    const size_t blocks_before = lm.NumBlocks();
    lm.Update(row, static_cast<double>(i + 1));
    if (lm.structure_version() != version) {
      ++bumps;
      version = lm.structure_version();
    } else {
      // No version change => the closed-block structure is unchanged.
      EXPECT_EQ(lm.NumBlocks(), blocks_before);
    }
    // Queries never move the version.
    (void)lm.Query();
    EXPECT_EQ(lm.structure_version(), version);
  }
  EXPECT_GT(bumps, 5u);
}

TEST(QueryCacheTest, DeserializeResetsCacheAndStaysIdentical) {
  const size_t d = 12;
  const TestStream s = MakeStream(350, d, 11);
  LmFd::Options lopt;
  lopt.ell = 8;
  lopt.block_capacity = 8.0 * static_cast<double>(d);
  LmFd lm(d, WindowSpec::Sequence(120), lopt);
  DiFd::Options dopt;
  dopt.levels = 4;
  dopt.window_size = 120;
  dopt.max_norm_sq = 40.0;
  dopt.ell_top = 8;
  DiFd di(d, dopt);
  const size_t half = s.rows.rows() / 2;
  for (size_t i = 0; i < half; ++i) {
    lm.Update(s.rows.Row(i), s.ts[i]);
    di.Update(s.rows.Row(i), s.ts[i]);
  }
  // Warm the caches, then round-trip.
  const Matrix lm_q = lm.Query();
  const Matrix di_q = di.Query();

  ByteWriter lw, dw;
  lm.Serialize(&lw);
  di.Serialize(&dw);
  ByteReader lr(lw.bytes()), dr(dw.bytes());
  auto lm_loaded = DeserializeSlidingWindowSketch(&lr);
  auto di_loaded = DeserializeSlidingWindowSketch(&dr);
  ASSERT_TRUE(lm_loaded.ok());
  ASSERT_TRUE(di_loaded.ok());
  SlidingWindowSketch* lm2 = lm_loaded->get();
  SlidingWindowSketch* di2 = di_loaded->get();

  // The reloaded sketch starts cold (version reset on load) but must
  // produce the same bytes immediately and after further ingest.
  EXPECT_EQ(lm_q.MaxAbsDiff(lm2->Query()), 0.0);
  EXPECT_EQ(di_q.MaxAbsDiff(di2->Query()), 0.0);
  for (size_t i = half; i < s.rows.rows(); ++i) {
    lm.Update(s.rows.Row(i), s.ts[i]);
    lm2->Update(s.rows.Row(i), s.ts[i]);
    di.Update(s.rows.Row(i), s.ts[i]);
    di2->Update(s.rows.Row(i), s.ts[i]);
  }
  EXPECT_EQ(lm.Query().MaxAbsDiff(lm2->Query()), 0.0);
  EXPECT_EQ(di.Query().MaxAbsDiff(di2->Query()), 0.0);
}

}  // namespace
}  // namespace swsketch

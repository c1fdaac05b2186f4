// Randomized differential testing: many seeds drive random operation
// sequences (bursty updates, silent advances, interleaved queries,
// mid-stream checkpoint/restore) against every algorithm, checking
// invariants, error sanity against the exact window, and that a restored
// sketch stays in lockstep with the original. This is the fuzz-style
// harness that catches interaction bugs the per-feature tests miss.
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/dyadic_interval.h"
#include "core/factory.h"
#include "core/logarithmic_method.h"
#include "service/tenant_manager.h"
#include "eval/cov_err.h"
#include "linalg/matrix.h"
#include "stream/window_buffer.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

uint64_t MC(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name)->Value();
}
int64_t MG(const std::string& name) {
  return MetricsRegistry::Global().GetGauge(name)->Value();
}

class DifferentialFuzz
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(DifferentialFuzz, RandomOpSequences) {
  const auto [algo, seed] = GetParam();
  Rng rng(seed);

  const size_t d = 4 + rng.UniformInt(8);                  // 4..11.
  const bool time_window = algo != "di-fd" && rng.Bernoulli(0.4);
  const double extent =
      time_window ? 20.0 + rng.Uniform01() * 80.0
                  : static_cast<double>(32 + rng.UniformInt(200));
  const WindowSpec window =
      time_window ? WindowSpec::Time(extent)
                  : WindowSpec::Sequence(static_cast<uint64_t>(extent));

  SketchConfig config;
  config.algorithm = algo;
  config.ell = 4 + rng.UniformInt(24);
  config.levels = 3 + rng.UniformInt(3);
  config.max_norm_sq = 16.0 * static_cast<double>(d);
  config.seed = seed;
  auto made = MakeSlidingWindowSketch(d, window, config);
  ASSERT_TRUE(made.ok()) << algo << ": " << made.status().ToString();
  auto& sketch = *made;

  std::unique_ptr<SlidingWindowSketch> twin;  // Restored copy, if any.
  WindowBuffer buffer(window);
  double t = 0.0;
  const size_t ops = 600;
  for (size_t op = 0; op < ops; ++op) {
    const double dice = rng.Uniform01();
    if (dice < 0.75) {
      // Update (occasionally a burst).
      const size_t burst = rng.Bernoulli(0.1) ? 1 + rng.UniformInt(30) : 1;
      for (size_t b = 0; b < burst; ++b) {
        std::vector<double> row(d);
        const double scale = rng.Bernoulli(0.05) ? 12.0 : 1.0;
        for (auto& v : row) v = scale * rng.Gaussian();
        t += time_window ? rng.Exponential(2.0) : 1.0;
        sketch->Update(row, t);
        if (twin) twin->Update(row, t);
        buffer.Add(Row(row, t));
      }
    } else if (dice < 0.85 && time_window) {
      // Silent advance (sometimes past the whole window).
      t += rng.Bernoulli(0.2) ? extent * 1.5 : rng.Uniform01() * extent;
      sketch->AdvanceTo(t);
      if (twin) twin->AdvanceTo(t);
      buffer.AdvanceTo(t);
    } else if (dice < 0.95) {
      // Query + sanity.
      Matrix b = sketch->Query();
      EXPECT_TRUE(b.rows() == 0 || b.cols() == d);
      if (buffer.empty()) {
        EXPECT_NEAR(b.FrobeniusNormSq(), 0.0, 1e-9) << algo;
      } else {
        const double err = CovarianceError(buffer.GramMatrix(d),
                                           buffer.FrobeniusNormSq(), b);
        EXPECT_LT(err, 1.5) << algo << " seed=" << seed << " op=" << op;
      }
      if (twin) {
        EXPECT_TRUE(twin->Query().ApproxEquals(b, 1e-9))
            << algo << " twin diverged at op " << op;
      }
    } else if (!twin) {
      // Checkpoint: spawn the restored twin mid-stream.
      ByteWriter w;
      if (sketch->SerializeTo(&w).ok()) {
        ByteReader r(w.bytes());
        auto loaded = DeserializeSlidingWindowSketch(&r);
        ASSERT_TRUE(loaded.ok()) << algo;
        twin = std::move(*loaded);
      }
    }
  }
  EXPECT_GT(sketch->RowsStored() + 1, 0u);  // Alive at the end.
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, DifferentialFuzz,
    ::testing::Combine(::testing::Values("swr", "swor", "swor-all", "lm-fd",
                                         "ds-fd", "lm-hash", "di-fd"),
                       ::testing::Values(11u, 22u, 33u, 44u)));

// Randomized op-sequence driver checking the metrics conservation laws
// (see tests/metrics_invariants_test.cc for the single-path versions)
// after EVERY operation: ingest (single and batched), query, silent
// advance / expiry, and checkpoint/restore — where the restored sketch
// replaces the original, so the block ledger must absorb a load and a
// discard in the same op.
void RunLmMetricsFuzz(const WindowSpec& window, uint64_t seed) {
  const size_t d = 6;
  Rng rng(seed);
  const bool time_window = window.type() == WindowType::kTime;

  const uint64_t q0 = MC("lm_fd.queries");
  const uint64_t h0 = MC("lm_fd.query_cache_hits");
  const uint64_t m0 = MC("lm_fd.query_cache_misses");
  const uint64_t mh0 = MC("lm_fd.merge_cache_hits");
  const uint64_t mm0 = MC("lm_fd.merge_cache_misses");
  const uint64_t closed0 = MC("lm_fd.blocks_closed");
  const uint64_t loaded0 = MC("lm_fd.blocks_loaded");
  const uint64_t merges0 = MC("lm_fd.level_merges");
  const uint64_t expired0 = MC("lm_fd.blocks_expired");
  const uint64_t discarded0 = MC("lm_fd.blocks_discarded");
  const int64_t live0 = MG("lm_fd.live_blocks");
  uint64_t empty_results = 0;  // Queries that returned an empty matrix.

  const auto check = [&](size_t op) {
    const uint64_t dq = MC("lm_fd.queries") - q0;
    const uint64_t dh = MC("lm_fd.query_cache_hits") - h0;
    const uint64_t dm = MC("lm_fd.query_cache_misses") - m0;
    ASSERT_EQ(dh + dm, dq) << "op " << op;
    // Every nonempty-window miss consults the merge cache exactly once;
    // empty-window queries short-circuit as misses.
    ASSERT_EQ((MC("lm_fd.merge_cache_hits") - mh0) +
                  (MC("lm_fd.merge_cache_misses") - mm0) + empty_results,
              dm)
        << "op " << op;
    const int64_t sources =
        static_cast<int64_t>(MC("lm_fd.blocks_closed") - closed0) +
        static_cast<int64_t>(MC("lm_fd.blocks_loaded") - loaded0);
    const int64_t sinks =
        static_cast<int64_t>(MC("lm_fd.level_merges") - merges0) +
        static_cast<int64_t>(MC("lm_fd.blocks_expired") - expired0) +
        static_cast<int64_t>(MC("lm_fd.blocks_discarded") - discarded0) +
        (MG("lm_fd.live_blocks") - live0);
    ASSERT_EQ(sources, sinks) << "op " << op;
  };

  LmFd::Options opt;
  opt.ell = 6;
  opt.blocks_per_level = 2;
  opt.block_capacity = 6.0 * d;
  auto sketch = std::make_unique<LmFd>(d, window, opt);
  double t = 0.0;
  for (size_t op = 0; op < 400; ++op) {
    const double dice = rng.Uniform01();
    if (dice < 0.55) {
      std::vector<double> row(d);
      for (auto& v : row) v = rng.Gaussian();
      t += time_window ? rng.Exponential(2.0) : 1.0;
      sketch->Update(row, t);
    } else if (dice < 0.70) {
      const size_t burst = 1 + rng.UniformInt(20);
      Matrix block(burst, d);
      std::vector<double> ts(burst);
      for (size_t b = 0; b < burst; ++b) {
        for (size_t j = 0; j < d; ++j) block(b, j) = rng.Gaussian();
        t += time_window ? rng.Exponential(2.0) : 1.0;
        ts[b] = t;
      }
      sketch->UpdateBatch(block, ts);
    } else if (dice < 0.80) {
      // Expiry without arrivals (a sequence window only slides on
      // arrivals, so AdvanceTo(t) is then a no-op — still an op).
      t += time_window ? rng.Uniform01() * 60.0 : 0.0;
      sketch->AdvanceTo(t);
    } else if (dice < 0.95) {
      const Matrix b = sketch->Query();
      if (b.rows() == 0) ++empty_results;
    } else {
      ByteWriter w;
      sketch->Serialize(&w);
      ByteReader r(w.bytes());
      auto loaded = DeserializeSlidingWindowSketch(&r);
      ASSERT_TRUE(loaded.ok()) << "op " << op;
      ASSERT_NE(dynamic_cast<LmFd*>(loaded->get()), nullptr) << "op " << op;
      sketch.reset(static_cast<LmFd*>(loaded->release()));
    }
    check(op);
  }
  sketch.reset();
  check(400);
  EXPECT_EQ(MG("lm_fd.live_blocks"), live0);
}

TEST(DifferentialFuzzExtra, LmMetricsInvariantsUnderRandomOpsSequence) {
  RunLmMetricsFuzz(WindowSpec::Sequence(90), 2024);
}

TEST(DifferentialFuzzExtra, LmMetricsInvariantsUnderRandomOpsTime) {
  RunLmMetricsFuzz(WindowSpec::Time(45.0), 2025);
}

TEST(DifferentialFuzzExtra, DiMetricsInvariantsUnderRandomOps) {
  const size_t d = 6;
  Rng rng(77);

  const uint64_t q0 = MC("di_fd.queries");
  const uint64_t h0 = MC("di_fd.query_cache_hits");
  const uint64_t m0 = MC("di_fd.query_cache_misses");
  const uint64_t ch0 = MC("di_fd.cover_cache_hits");
  const uint64_t cm0 = MC("di_fd.cover_cache_misses");
  const uint64_t closed0 = MC("di_fd.blocks_closed");
  const uint64_t loaded0 = MC("di_fd.blocks_loaded");
  const uint64_t expired0 = MC("di_fd.blocks_expired");
  const uint64_t discarded0 = MC("di_fd.blocks_discarded");
  const int64_t live0 = MG("di_fd.live_blocks");

  const auto check = [&](size_t op) {
    const uint64_t dm = MC("di_fd.query_cache_misses") - m0;
    ASSERT_EQ((MC("di_fd.query_cache_hits") - h0) + dm,
              MC("di_fd.queries") - q0)
        << "op " << op;
    ASSERT_EQ((MC("di_fd.cover_cache_hits") - ch0) +
                  (MC("di_fd.cover_cache_misses") - cm0),
              dm)
        << "op " << op;
    const int64_t sources =
        static_cast<int64_t>(MC("di_fd.blocks_closed") - closed0) +
        static_cast<int64_t>(MC("di_fd.blocks_loaded") - loaded0);
    const int64_t sinks =
        static_cast<int64_t>(MC("di_fd.blocks_expired") - expired0) +
        static_cast<int64_t>(MC("di_fd.blocks_discarded") - discarded0) +
        (MG("di_fd.live_blocks") - live0);
    ASSERT_EQ(sources, sinks) << "op " << op;
  };

  DiFd::Options opt;
  opt.levels = 4;
  opt.window_size = 90;
  opt.max_norm_sq = 16.0 * d;
  opt.ell_top = 8;
  auto sketch = std::make_unique<DiFd>(d, opt);
  double t = 0.0;
  for (size_t op = 0; op < 400; ++op) {
    const double dice = rng.Uniform01();
    if (dice < 0.60) {
      std::vector<double> row(d);
      for (auto& v : row) v = rng.Gaussian();
      t += 1.0;
      sketch->Update(row, t);
    } else if (dice < 0.75) {
      const size_t burst = 1 + rng.UniformInt(20);
      Matrix block(burst, d);
      std::vector<double> ts(burst);
      for (size_t b = 0; b < burst; ++b) {
        for (size_t j = 0; j < d; ++j) block(b, j) = rng.Gaussian();
        t += 1.0;
        ts[b] = t;
      }
      sketch->UpdateBatch(block, ts);
    } else if (dice < 0.92) {
      (void)sketch->Query();
    } else {
      ByteWriter w;
      sketch->Serialize(&w);
      ByteReader r(w.bytes());
      auto loaded = DeserializeSlidingWindowSketch(&r);
      ASSERT_TRUE(loaded.ok()) << "op " << op;
      ASSERT_NE(dynamic_cast<DiFd*>(loaded->get()), nullptr) << "op " << op;
      sketch.reset(static_cast<DiFd*>(loaded->release()));
    }
    check(op);
  }
  sketch.reset();
  check(400);
  EXPECT_EQ(MG("di_fd.live_blocks"), live0);
}

TEST(DifferentialFuzzExtra, LmInvariantsUnderRandomOps) {
  // White-box invariant checking through a random op mix.
  Rng rng(99);
  LmFd sketch(5, WindowSpec::Time(40.0),
              LmFd::Options{.ell = 8, .blocks_per_level = 4});
  double t = 0.0;
  for (int op = 0; op < 3000; ++op) {
    if (rng.Bernoulli(0.9)) {
      std::vector<double> row(5);
      for (auto& v : row) v = rng.Gaussian() * (rng.Bernoulli(0.02) ? 20 : 1);
      t += rng.Exponential(1.0);
      sketch.Update(row, t);
    } else {
      t += rng.Uniform01() * 60.0;
      sketch.AdvanceTo(t);
    }
    if (op % 101 == 0) sketch.CheckInvariants();
  }
  sketch.CheckInvariants();
}

TEST(DifferentialFuzzExtra, DiInvariantsUnderRandomOps) {
  Rng rng(101);
  DiFd sketch(5, DiFd::Options{.levels = 4, .window_size = 100,
                               .max_norm_sq = 80.0, .ell_top = 8});
  double t = 0.0;
  for (int op = 0; op < 3000; ++op) {
    std::vector<double> row(5);
    for (auto& v : row) v = rng.Gaussian() * (rng.Bernoulli(0.02) ? 4 : 1);
    t += 1.0;
    sketch.Update(row, t);
    if (op % 97 == 0) {
      sketch.CheckInvariants();
      (void)sketch.Query();
    }
  }
  sketch.CheckInvariants();
}

// Differential fuzz over the multi-tenant manager: random interleavings
// of single-row updates, keyed batches, forced evictions, queries and
// silent advances against a per-key map of standalone sketches. With a
// deterministic backend (LM-FD) and a budget tight enough to spill
// organically, every queried tenant must stay in byte lockstep with its
// reference — eviction, reload and keyed grouping must all be invisible.
TEST(DifferentialFuzzExtra, TenantManagerLockstepUnderRandomOps) {
  for (const uint64_t seed : {51u, 52u, 53u}) {
    Rng rng(seed);
    const size_t d = 5;
    const size_t num_keys = 10;
    SketchConfig config;
    config.algorithm = "lm-fd";
    config.ell = 5;
    config.seed = seed;
    const WindowSpec window = WindowSpec::Sequence(48);
    TenantManager::Options options;
    options.metrics_prefix = "tm_fuzz";
    options.memory_budget_bytes = 48 << 10;
    options.min_resident_tenants = 2;
    auto made = TenantManager::Make(d, window, config, options);
    ASSERT_TRUE(made.ok());
    auto& manager = *made.value();

    std::vector<std::unique_ptr<SlidingWindowSketch>> reference;
    for (size_t k = 0; k < num_keys; ++k) {
      auto r = MakeSlidingWindowSketch(d, window, config);
      ASSERT_TRUE(r.ok());
      reference.push_back(r.take());
    }

    double t = 0.0;
    Matrix scratch(64, d);
    for (size_t op = 0; op < 400; ++op) {
      const double dice = rng.Uniform01();
      if (dice < 0.35) {
        // Single-row update on a random key.
        const uint64_t key = rng.Next() % num_keys;
        std::vector<double> row(d);
        for (auto& v : row) v = rng.Gaussian();
        t += 1.0;
        ASSERT_TRUE(manager.Update(key, row, t).ok()) << "op " << op;
        reference[key]->Update(row, t);
      } else if (dice < 0.65) {
        // Keyed batch with random interleaving.
        const size_t batch = 1 + rng.UniformInt(30);
        scratch.ResetShape(batch, d);
        std::vector<KeyedRow> keyed(batch);
        for (size_t j = 0; j < batch; ++j) {
          const uint64_t key = rng.Next() % num_keys;
          for (size_t c = 0; c < d; ++c) scratch(j, c) = rng.Gaussian();
          t += 1.0;
          keyed[j] = KeyedRow{key, t, scratch.Row(j)};
          reference[key]->Update(scratch.Row(j), t);
        }
        ASSERT_TRUE(manager.UpdateKeyed(keyed).ok()) << "op " << op;
      } else if (dice < 0.75) {
        // Forced eviction of a random key (NotFound is fine pre-touch).
        (void)manager.EvictTenant(rng.Next() % num_keys);
      } else if (dice < 0.85) {
        // Silent advance on a random key (no-op for sequence windows but
        // still exercises the reload-on-touch path).
        const uint64_t key = rng.Next() % num_keys;
        ASSERT_TRUE(manager.AdvanceTo(key, t).ok()) << "op " << op;
        reference[key]->AdvanceTo(t);
      } else {
        const uint64_t key = rng.Next() % num_keys;
        auto got = manager.Query(key);
        ASSERT_TRUE(got.ok()) << "op " << op;
        // An untouched key yields an empty result AND no tenant in the
        // reference-lockstep sense: reference holds an empty sketch.
        const Matrix want = reference[key]->Query();
        if (got.value().rows() == 0) {
          ASSERT_EQ(want.FrobeniusNormSq(), 0.0) << "op " << op;
        } else {
          ASSERT_EQ(got.value().rows(), want.rows()) << "op " << op;
          ASSERT_EQ(got.value().MaxAbsDiff(want), 0.0)
              << "seed " << seed << " op " << op << " key " << key;
        }
      }
    }
    // Final sweep: every key must be in lockstep after the churn.
    for (size_t k = 0; k < num_keys; ++k) {
      auto got = manager.Query(k);
      ASSERT_TRUE(got.ok());
      const Matrix want = reference[k]->Query();
      if (got.value().rows() == 0) {
        EXPECT_EQ(want.FrobeniusNormSq(), 0.0) << "key " << k;
      } else {
        EXPECT_EQ(got.value().MaxAbsDiff(want), 0.0)
            << "seed " << seed << " key " << k;
      }
    }
  }
}

}  // namespace
}  // namespace swsketch

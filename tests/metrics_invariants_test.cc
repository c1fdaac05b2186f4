// Cross-cutting invariants over the metrics every sketch reports
// (ISSUE 5): the counters are not decorative — each family obeys a
// conservation law the implementation must maintain, checked here with
// before/after deltas against the global registry.
//
//   - query caches: hits + misses == queries (LM, DI, DS-FD, AMM and
//     ShardedSketch), and the nested merge/cover caches account exactly
//     for the miss path;
//   - block ledgers: closed + loaded == merges + expired + discarded +
//     live (LM), without the merge term for DI, where `live` is the
//     live_blocks gauge — and destruction settles the ledger to zero;
//   - FD shrinks: the amortized schedule is analytic — with full-rank
//     Gaussian input, shrinks(n) = 1 + floor((n - cap) / (cap - r + 1)),
//     and the route counters attribute every shrink; inverse-iteration
//     eigenvectors <= tridiagonal eigensolves, pinned to the shape rule;
//   - ConcurrentSketch: snapshots_published == mutations + snapshot_ctors
//     while only snapshot-mode instances mutate;
//   - samplers: every priority draw is conserved as a live candidate, a
//     replacement eviction, or a front expiry;
//   - window buffer gauges mirror the buffer's actual footprint.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "amm/amm_sketch.h"
#include "core/concurrent_sketch.h"
#include "core/dump_snapshot.h"
#include "core/dyadic_interval.h"
#include "core/factory.h"
#include "core/logarithmic_method.h"
#include "core/window_sampler.h"
#include "distributed/sharded_sketch.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "service/tenant_manager.h"
#include "sketch/frequent_directions.h"
#include "stream/window_buffer.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

uint64_t C(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name)->Value();
}
int64_t G(const std::string& name) {
  return MetricsRegistry::Global().GetGauge(name)->Value();
}

Matrix GaussianRows(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Gaussian();
  }
  return m;
}

TEST(MetricsInvariantsTest, LmQueryCacheAccountsForEveryQuery) {
  const size_t d = 12;
  const Matrix rows = GaussianRows(300, d, 1);
  const uint64_t q0 = C("lm_fd.queries");
  const uint64_t h0 = C("lm_fd.query_cache_hits");
  const uint64_t m0 = C("lm_fd.query_cache_misses");
  const uint64_t mh0 = C("lm_fd.merge_cache_hits");
  const uint64_t mm0 = C("lm_fd.merge_cache_misses");
  {
    LmFd::Options opt;
    opt.ell = 8;
    opt.blocks_per_level = 3;
    opt.block_capacity = 8.0 * static_cast<double>(d);
    LmFd lm(d, WindowSpec::Sequence(120), opt);
    uint64_t issued = 0;
    for (size_t i = 0; i < rows.rows(); ++i) {
      lm.Update(rows.Row(i), static_cast<double>(i + 1));
      if (i % 3 == 0) {
        (void)lm.Query();
        (void)lm.Query();  // Guaranteed-warm repeat.
        issued += 2;
      }
    }
    EXPECT_EQ(C("lm_fd.queries") - q0, issued);
  }
  const uint64_t dq = C("lm_fd.queries") - q0;
  const uint64_t dh = C("lm_fd.query_cache_hits") - h0;
  const uint64_t dm = C("lm_fd.query_cache_misses") - m0;
  EXPECT_EQ(dh + dm, dq);
  EXPECT_GT(dh, 0u);  // The warm repeats must hit.
  EXPECT_GT(dm, 0u);  // Structural churn must miss.
  // Every miss on a nonempty window consults the merged-prefix cache
  // (all queries here happen after the first ingested row).
  const uint64_t dmh = C("lm_fd.merge_cache_hits") - mh0;
  const uint64_t dmm = C("lm_fd.merge_cache_misses") - mm0;
  EXPECT_EQ(dmh + dmm, dm);
}

TEST(MetricsInvariantsTest, LmBlockLedgerBalancesAndSettlesOnDestruction) {
  const size_t d = 10;
  const Matrix rows = GaussianRows(400, d, 2);
  const uint64_t closed0 = C("lm_fd.blocks_closed");
  const uint64_t loaded0 = C("lm_fd.blocks_loaded");
  const uint64_t merges0 = C("lm_fd.level_merges");
  const uint64_t expired0 = C("lm_fd.blocks_expired");
  const uint64_t discarded0 = C("lm_fd.blocks_discarded");
  const int64_t live0 = G("lm_fd.live_blocks");

  const auto ledger_gap = [&]() -> int64_t {
    const int64_t sources =
        static_cast<int64_t>(C("lm_fd.blocks_closed") - closed0) +
        static_cast<int64_t>(C("lm_fd.blocks_loaded") - loaded0);
    const int64_t sinks =
        static_cast<int64_t>(C("lm_fd.level_merges") - merges0) +
        static_cast<int64_t>(C("lm_fd.blocks_expired") - expired0) +
        static_cast<int64_t>(C("lm_fd.blocks_discarded") - discarded0) +
        (G("lm_fd.live_blocks") - live0);
    return sources - sinks;
  };

  {
    LmFd::Options opt;
    opt.ell = 6;
    opt.blocks_per_level = 2;  // Small levels force merges.
    opt.block_capacity = 6.0 * static_cast<double>(d);
    LmFd lm(d, WindowSpec::Sequence(100), opt);
    for (size_t i = 0; i < rows.rows(); ++i) {
      lm.Update(rows.Row(i), static_cast<double>(i + 1));
      if (i % 7 == 0) {
        EXPECT_EQ(ledger_gap(), 0) << "row " << i;
      }
    }
    EXPECT_EQ(ledger_gap(), 0);
    EXPECT_GT(C("lm_fd.blocks_closed") - closed0, 0u);
    EXPECT_GT(C("lm_fd.level_merges") - merges0, 0u);
    EXPECT_GT(C("lm_fd.blocks_expired") - expired0, 0u);
    EXPECT_GT(G("lm_fd.live_blocks"), live0);
  }
  // Destruction discards the held blocks; the ledger stays balanced and
  // the live gauge returns to its starting level.
  EXPECT_EQ(ledger_gap(), 0);
  EXPECT_EQ(G("lm_fd.live_blocks"), live0);
}

TEST(MetricsInvariantsTest, LmDeserializeLoadsBlocksIntoTheLedger) {
  const size_t d = 8;
  const Matrix rows = GaussianRows(200, d, 3);
  const uint64_t loaded0 = C("lm_fd.blocks_loaded");
  const uint64_t reloads0 = C("lm_fd.reloads");
  const int64_t live0 = G("lm_fd.live_blocks");
  {
    LmFd::Options opt;
    opt.ell = 6;
    opt.block_capacity = 6.0 * static_cast<double>(d);
    LmFd lm(d, WindowSpec::Sequence(80), opt);
    for (size_t i = 0; i < rows.rows(); ++i) {
      lm.Update(rows.Row(i), static_cast<double>(i + 1));
    }
    const size_t held = lm.NumBlocks();
    ASSERT_GT(held, 0u);
    ByteWriter w;
    lm.Serialize(&w);
    ByteReader r(w.bytes());
    auto lm2 = DeserializeSlidingWindowSketch(&r);
    ASSERT_TRUE(lm2.ok());
    EXPECT_EQ(C("lm_fd.reloads") - reloads0, 1u);
    EXPECT_EQ(C("lm_fd.blocks_loaded") - loaded0, held);
    // Two instances hold `held` blocks each.
    EXPECT_EQ(G("lm_fd.live_blocks") - live0,
              static_cast<int64_t>(2 * held));
  }
  EXPECT_EQ(G("lm_fd.live_blocks"), live0);
}

TEST(MetricsInvariantsTest, DiQueryAndCoverCacheAccounting) {
  const size_t d = 12;
  const Matrix rows = GaussianRows(300, d, 4);
  double max_norm_sq = 1.0;
  for (size_t i = 0; i < rows.rows(); ++i) {
    double nn = 0.0;
    for (size_t j = 0; j < d; ++j) nn += rows(i, j) * rows(i, j);
    max_norm_sq = std::max(max_norm_sq, nn);
  }
  const uint64_t q0 = C("di_fd.queries");
  const uint64_t h0 = C("di_fd.query_cache_hits");
  const uint64_t m0 = C("di_fd.query_cache_misses");
  const uint64_t ch0 = C("di_fd.cover_cache_hits");
  const uint64_t cm0 = C("di_fd.cover_cache_misses");
  {
    DiFd::Options opt;
    opt.levels = 4;
    opt.window_size = 120;
    opt.max_norm_sq = max_norm_sq;
    opt.ell_top = 16;
    DiFd di(d, opt);
    for (size_t i = 0; i < rows.rows(); ++i) {
      di.Update(rows.Row(i), static_cast<double>(i + 1));
      if (i % 3 == 0) {
        (void)di.Query();
        (void)di.Query();
      }
    }
  }
  const uint64_t dq = C("di_fd.queries") - q0;
  const uint64_t dh = C("di_fd.query_cache_hits") - h0;
  const uint64_t dm = C("di_fd.query_cache_misses") - m0;
  EXPECT_EQ(dh + dm, dq);
  EXPECT_GT(dh, 0u);
  EXPECT_GT(dm, 0u);
  // Every result-cache miss consults the cover cache exactly once.
  EXPECT_EQ((C("di_fd.cover_cache_hits") - ch0) +
                (C("di_fd.cover_cache_misses") - cm0),
            dm);
}

TEST(MetricsInvariantsTest, DiBlockLedgerBalancesAndSettlesOnDestruction) {
  const size_t d = 10;
  const Matrix rows = GaussianRows(350, d, 5);
  const uint64_t closed0 = C("di_fd.blocks_closed");
  const uint64_t loaded0 = C("di_fd.blocks_loaded");
  const uint64_t expired0 = C("di_fd.blocks_expired");
  const uint64_t discarded0 = C("di_fd.blocks_discarded");
  const int64_t live0 = G("di_fd.live_blocks");

  const auto ledger_gap = [&]() -> int64_t {
    const int64_t sources =
        static_cast<int64_t>(C("di_fd.blocks_closed") - closed0) +
        static_cast<int64_t>(C("di_fd.blocks_loaded") - loaded0);
    const int64_t sinks =
        static_cast<int64_t>(C("di_fd.blocks_expired") - expired0) +
        static_cast<int64_t>(C("di_fd.blocks_discarded") - discarded0) +
        (G("di_fd.live_blocks") - live0);
    return sources - sinks;
  };

  {
    DiFd::Options opt;
    opt.levels = 4;
    opt.window_size = 100;
    opt.max_norm_sq = 40.0;
    opt.ell_top = 8;
    DiFd di(d, opt);
    for (size_t i = 0; i < rows.rows(); ++i) {
      di.Update(rows.Row(i), static_cast<double>(i + 1));
      if (i % 7 == 0) {
        EXPECT_EQ(ledger_gap(), 0) << "row " << i;
      }
    }
    EXPECT_EQ(ledger_gap(), 0);
    EXPECT_GT(C("di_fd.blocks_closed") - closed0, 0u);
    EXPECT_GT(C("di_fd.blocks_expired") - expired0, 0u);
  }
  EXPECT_EQ(ledger_gap(), 0);
  EXPECT_EQ(G("di_fd.live_blocks"), live0);
}

TEST(MetricsInvariantsTest, FdShrinksFollowTheAmortizedSchedule) {
  // Gaussian rows are full rank, so each shrink leaves exactly
  // shrink_rank - 1 rows and the shrink count is an exact function of n.
  // Two inputs cover both shrink routes, and every shrink of either one
  // is a tridiagonal-QL eigensolve:
  //  - tall: capacity (= ell, buffer_factor 1) exceeds dim, so every
  //    shrink takes the gram_tall route on a d x d Gram;
  //  - wide: capacity <= dim, so every shrink takes the gram_wide route on
  //    a capacity x capacity Gram.
  const struct {
    size_t d, ell;
    bool wide;
  } kInputs[] = {{16, 32, false}, {64, 40, true}};
  const size_t n = 200;
  for (const auto& in : kInputs) {
    SCOPED_TRACE(in.wide ? "wide" : "tall");
    const Matrix rows = GaussianRows(n, in.d, 6);
    const uint64_t appends0 = C("fd.appends");
    const uint64_t shrinks0 = C("fd.shrinks");
    const uint64_t wide0 = C("fd.shrink_route_gram_wide");
    const uint64_t tall0 = C("fd.shrink_route_gram_tall");
    const uint64_t tridiag0 = C("fd.eigen_route_tridiag");

    FrequentDirections fd(in.d, in.ell);
    ASSERT_EQ(fd.buffer_capacity() <= in.d, in.wide);
    for (size_t i = 0; i < n; ++i) fd.Append(rows.Row(i), i);

    const size_t cap = fd.buffer_capacity();
    const size_t cycle = cap - fd.shrink_rank() + 1;
    const size_t expected = n < cap ? 0 : 1 + (n - cap) / cycle;
    EXPECT_EQ(fd.shrink_count(), expected);
    EXPECT_EQ(C("fd.appends") - appends0, n);
    EXPECT_EQ(C("fd.shrinks") - shrinks0, fd.shrink_count());
    const uint64_t tridiag = C("fd.eigen_route_tridiag") - tridiag0;
    EXPECT_EQ(tridiag, C("fd.shrinks") - shrinks0);
    EXPECT_EQ(tridiag, fd.shrink_count());
    if (in.wide) {
      EXPECT_EQ(C("fd.shrink_route_gram_wide") - wide0, fd.shrink_count());
    } else {
      EXPECT_EQ(C("fd.shrink_route_gram_tall") - tall0, fd.shrink_count());
    }
  }
}

TEST(MetricsInvariantsTest, FdInverseVectorsAreTridiagShrinksByTheRule) {
  // fd.eigen_vectors_inverse counts the shrinks whose kept eigenvectors
  // came from inverse iteration; each is also a tridiagonal eigensolve.
  // A shrink of an n-row buffer asks for min(ell, shrink_rank - 1)
  // vectors, so the stage is a function of the shape:
  //  - n = 128, 15 vectors (ell 32, capacity 128): kept vectors;
  //  - n = 16, 7 vectors (ell 16, buffer factor 1): accumulated.
  const struct {
    size_t d, ell;
    double buffer_factor;
    bool inverse;
  } kInputs[] = {{200, 32, 4.0, true}, {64, 16, 1.0, false}};
  for (const auto& in : kInputs) {
    SCOPED_TRACE(in.inverse ? "kept vectors" : "accumulated");
    FrequentDirections fd(in.d,
                          FrequentDirections::Options{
                              .ell = in.ell, .buffer_factor = in.buffer_factor});
    const size_t n = fd.buffer_capacity();
    const size_t count = std::min(in.ell, fd.shrink_rank() - 1);
    ASSERT_EQ(simd::InverseIterationIsCheaper(n, count), in.inverse)
        << "n=" << n << " count=" << count;
    const uint64_t tridiag0 = C("fd.eigen_route_tridiag");
    const uint64_t inverse0 = C("fd.eigen_vectors_inverse");
    const Matrix rows = GaussianRows(3 * n, in.d, 8);
    for (size_t i = 0; i < rows.rows(); ++i) fd.Append(rows.Row(i), i);
    ASSERT_GT(fd.shrink_count(), 0u);
    const uint64_t tridiag = C("fd.eigen_route_tridiag") - tridiag0;
    const uint64_t inverse = C("fd.eigen_vectors_inverse") - inverse0;
    EXPECT_EQ(tridiag, fd.shrink_count());
    EXPECT_LE(inverse, tridiag);
    EXPECT_EQ(inverse, in.inverse ? tridiag : 0u);
  }
}

TEST(MetricsInvariantsTest, ConcurrentSnapshotPerMutation) {
  // In snapshot mode every mutation republishes, plus the one publish the
  // constructor issues; no other ConcurrentSketch instance may mutate
  // while this measurement runs (they share the process-wide counters).
  const uint64_t pub0 = C("concurrent.snapshots_published");
  const uint64_t mut0 = C("concurrent.mutations");
  const uint64_t ctor0 = C("concurrent.snapshot_ctors");
  const uint64_t readers0 = C("concurrent.reader_copies");

  SketchConfig config;
  config.algorithm = "lm-fd";
  config.ell = 8;
  auto inner = MakeSlidingWindowSketch(8, WindowSpec::Sequence(100), config);
  ASSERT_TRUE(inner.ok());
  ConcurrentSketch sketch(inner.take());
  Rng rng(7);
  for (int i = 0; i < 150; ++i) {
    std::vector<double> row(8);
    for (auto& v : row) v = rng.Gaussian();
    sketch.Update(row, static_cast<double>(i + 1));
  }
  sketch.AdvanceTo(200.0);
  (void)sketch.Query();

  EXPECT_EQ(C("concurrent.snapshots_published") - pub0,
            (C("concurrent.mutations") - mut0) +
                (C("concurrent.snapshot_ctors") - ctor0));
  EXPECT_EQ(C("concurrent.mutations") - mut0, 151u);  // 150 updates + advance.
  EXPECT_GT(C("concurrent.reader_copies") - readers0, 0u);
}

TEST(MetricsInvariantsTest, SworDrawsAreConserved) {
  // Every priority draw ends up exactly one of: still a live candidate,
  // evicted by a dominating arrival (replacement), or expired out the
  // window front.
  const size_t d = 6;
  const Matrix rows = GaussianRows(500, d, 8);
  const uint64_t draws0 = C("swor.priority_draws");
  const uint64_t repl0 = C("swor.replacements");
  const uint64_t exp0 = C("swor.front_expiries");
  const uint64_t rows0 = C("swor.rows_ingested");

  WindowSampler::Options opt;
  opt.ell = 8;
  opt.scheme = WindowSampler::Scheme::kSwor;
  opt.seed = 9;
  WindowSampler swor(d, WindowSpec::Sequence(64), opt);
  for (size_t i = 0; i < rows.rows(); ++i) {
    swor.Update(rows.Row(i), static_cast<double>(i + 1));
    const uint64_t draws = C("swor.priority_draws") - draws0;
    const uint64_t gone = (C("swor.replacements") - repl0) +
                          (C("swor.front_expiries") - exp0);
    ASSERT_EQ(draws, gone + swor.RowsStored()) << "row " << i;
  }
  EXPECT_EQ(C("swor.rows_ingested") - rows0, rows.rows());
  EXPECT_GT(C("swor.replacements") - repl0, 0u);
  EXPECT_GT(C("swor.front_expiries") - exp0, 0u);
}

TEST(MetricsInvariantsTest, TenantLedgerBalancesAndSettlesOnDestruction) {
  // Tenant conservation laws (service/tenant_manager.h), checked as
  // deltas against a dedicated prefix so other tests cannot interfere:
  //   (1) tenants_created == tenants + resident_discarded
  //                          + spilled_discarded
  //   (2) tenants_created + reloads == spills + resident_discarded
  //                                    + resident_tenants
  //   (3) spills == reloads + spilled_discarded + spilled_tenants
  // and destruction settles every gauge back to its baseline.
  const std::string p = "tm_ledger";
  const uint64_t created0 = C(p + ".tenants_created");
  const uint64_t spills0 = C(p + ".spills");
  const uint64_t reloads0 = C(p + ".reloads");
  const uint64_t rdisc0 = C(p + ".resident_discarded");
  const uint64_t sdisc0 = C(p + ".spilled_discarded");
  const int64_t tenants0 = G(p + ".tenants");
  const int64_t resident0 = G(p + ".resident_tenants");
  const int64_t spilled0 = G(p + ".spilled_tenants");
  const int64_t rbytes0 = G(p + ".resident_bytes");
  const int64_t sbytes0 = G(p + ".spill_bytes");
  const int64_t abytes0 = G(p + ".arena_reserved_bytes");

  const auto check_laws = [&](const char* where) {
    const int64_t created =
        static_cast<int64_t>(C(p + ".tenants_created") - created0);
    const int64_t spills = static_cast<int64_t>(C(p + ".spills") - spills0);
    const int64_t reloads = static_cast<int64_t>(C(p + ".reloads") - reloads0);
    const int64_t rdisc =
        static_cast<int64_t>(C(p + ".resident_discarded") - rdisc0);
    const int64_t sdisc =
        static_cast<int64_t>(C(p + ".spilled_discarded") - sdisc0);
    const int64_t tenants = G(p + ".tenants") - tenants0;
    const int64_t resident = G(p + ".resident_tenants") - resident0;
    const int64_t spilled = G(p + ".spilled_tenants") - spilled0;
    EXPECT_EQ(created, tenants + rdisc + sdisc) << where;
    EXPECT_EQ(created + reloads, spills + rdisc + resident) << where;
    EXPECT_EQ(spills, reloads + sdisc + spilled) << where;
  };

  const size_t d = 6;
  const Matrix rows = GaussianRows(500, d, 11);
  {
    SketchConfig config;
    config.algorithm = "lm-fd";
    config.ell = 6;
    TenantManager::Options options;
    options.metrics_prefix = p;
    options.memory_budget_bytes = 8 << 10;  // Tight: forces spill churn.
    options.min_resident_tenants = 2;
    auto made =
        TenantManager::Make(d, WindowSpec::Sequence(40), config, options);
    ASSERT_TRUE(made.ok());
    auto& manager = *made.value();
    Rng rng(12);
    for (size_t i = 0; i < rows.rows(); ++i) {
      const uint64_t key = rng.Next() % 24;
      ASSERT_TRUE(
          manager.Update(key, rows.Row(i), static_cast<double>(i + 1)).ok());
      if (i % 31 == 7) (void)manager.Query(rng.Next() % 24);
      if (i % 53 == 13) check_laws("mid-stream");
    }
    check_laws("end of stream");
    EXPECT_GT(C(p + ".spills") - spills0, 0u);
    EXPECT_GT(C(p + ".reloads") - reloads0, 0u);
    // Live gauges mirror the accessors while the manager exists.
    EXPECT_EQ(G(p + ".tenants") - tenants0,
              static_cast<int64_t>(manager.num_tenants()));
    EXPECT_EQ(G(p + ".resident_bytes") - rbytes0,
              static_cast<int64_t>(manager.resident_bytes()));
    EXPECT_EQ(G(p + ".spill_bytes") - sbytes0,
              static_cast<int64_t>(manager.spill_bytes()));
    EXPECT_EQ(G(p + ".arena_reserved_bytes") - abytes0,
              static_cast<int64_t>(manager.arena_reserved_bytes()));
  }
  // Destruction discards every tenant; laws still hold and all gauges
  // settle to baseline.
  check_laws("after destruction");
  EXPECT_EQ(G(p + ".tenants"), tenants0);
  EXPECT_EQ(G(p + ".resident_tenants"), resident0);
  EXPECT_EQ(G(p + ".spilled_tenants"), spilled0);
  EXPECT_EQ(G(p + ".resident_bytes"), rbytes0);
  EXPECT_EQ(G(p + ".spill_bytes"), sbytes0);
  EXPECT_EQ(G(p + ".arena_reserved_bytes"), abytes0);
}

// DS-FD conservation laws under a 400-op random mix (single rows, batches,
// silent advances, queries, checkpoint/restore), checked after EVERY op:
//   frames_opened + frames_loaded
//     == frames_expired + frames_discarded + live_frames
//   snapshots_taken + snapshots_loaded
//     == snapshots_evicted + snapshots_discarded + live_snapshots
//   queries == query_cache_hits + query_cache_misses
// and destruction settles both live gauges back to their starting level.
TEST(MetricsInvariantsTest, DsFdLedgersBalanceAndSettleOnDestruction) {
  const size_t d = 6;
  Rng rng(4242);

  const uint64_t q0 = C("ds_fd.queries");
  const uint64_t h0 = C("ds_fd.query_cache_hits");
  const uint64_t m0 = C("ds_fd.query_cache_misses");
  const uint64_t fopen0 = C("ds_fd.frames_opened");
  const uint64_t fload0 = C("ds_fd.frames_loaded");
  const uint64_t fexp0 = C("ds_fd.frames_expired");
  const uint64_t fdis0 = C("ds_fd.frames_discarded");
  const uint64_t stake0 = C("ds_fd.snapshots_taken");
  const uint64_t sload0 = C("ds_fd.snapshots_loaded");
  const uint64_t sevic0 = C("ds_fd.snapshots_evicted");
  const uint64_t sdis0 = C("ds_fd.snapshots_discarded");
  const uint64_t reloads0 = C("ds_fd.reloads");
  const int64_t flive0 = G("ds_fd.live_frames");
  const int64_t slive0 = G("ds_fd.live_snapshots");

  const auto check = [&](size_t op) {
    ASSERT_EQ((C("ds_fd.query_cache_hits") - h0) +
                  (C("ds_fd.query_cache_misses") - m0),
              C("ds_fd.queries") - q0)
        << "op " << op;
    const int64_t frame_sources =
        static_cast<int64_t>(C("ds_fd.frames_opened") - fopen0) +
        static_cast<int64_t>(C("ds_fd.frames_loaded") - fload0);
    const int64_t frame_sinks =
        static_cast<int64_t>(C("ds_fd.frames_expired") - fexp0) +
        static_cast<int64_t>(C("ds_fd.frames_discarded") - fdis0) +
        (G("ds_fd.live_frames") - flive0);
    ASSERT_EQ(frame_sources, frame_sinks) << "op " << op;
    const int64_t snap_sources =
        static_cast<int64_t>(C("ds_fd.snapshots_taken") - stake0) +
        static_cast<int64_t>(C("ds_fd.snapshots_loaded") - sload0);
    const int64_t snap_sinks =
        static_cast<int64_t>(C("ds_fd.snapshots_evicted") - sevic0) +
        static_cast<int64_t>(C("ds_fd.snapshots_discarded") - sdis0) +
        (G("ds_fd.live_snapshots") - slive0);
    ASSERT_EQ(snap_sources, snap_sinks) << "op " << op;
  };

  auto sketch = std::make_unique<DsFd>(
      d, WindowSpec::Time(45.0),
      DsFd::Options{.ell = 6, .snapshots_per_window = 4});
  double t = 0.0;
  for (size_t op = 0; op < 400; ++op) {
    const double dice = rng.Uniform01();
    if (dice < 0.55) {
      std::vector<double> row(d);
      for (auto& v : row) v = rng.Gaussian();
      t += rng.Exponential(2.0);
      sketch->Update(row, t);
    } else if (dice < 0.70) {
      const size_t burst = 1 + rng.UniformInt(20);
      Matrix block(burst, d);
      std::vector<double> ts(burst);
      for (size_t b = 0; b < burst; ++b) {
        for (size_t j = 0; j < d; ++j) block(b, j) = rng.Gaussian();
        t += rng.Exponential(2.0);
        ts[b] = t;
      }
      sketch->UpdateBatch(block, ts);
    } else if (dice < 0.80) {
      // Silent advance, sometimes past the whole window (total expiry).
      t += rng.Uniform01() * 60.0;
      sketch->AdvanceTo(t);
    } else if (dice < 0.95) {
      (void)sketch->Query();
    } else {
      // Checkpoint/restore: the reload books frames_loaded /
      // snapshots_loaded while the replaced sketch's destructor books the
      // matching discards, all inside one op.
      ByteWriter w;
      sketch->Serialize(&w);
      ByteReader r(w.bytes());
      auto loaded = DeserializeSlidingWindowSketch(&r);
      ASSERT_TRUE(loaded.ok()) << "op " << op;
      ASSERT_NE(dynamic_cast<DsFd*>(loaded->get()), nullptr) << "op " << op;
      sketch.reset(static_cast<DsFd*>(loaded->release()));
    }
    check(op);
  }
  EXPECT_GT(C("ds_fd.frames_opened") - fopen0, 0u);
  EXPECT_GT(C("ds_fd.snapshots_taken") - stake0, 0u);
  EXPECT_GT(C("ds_fd.reloads") - reloads0, 0u);
  sketch.reset();
  check(400);
  EXPECT_EQ(G("ds_fd.live_frames"), flive0);
  EXPECT_EQ(G("ds_fd.live_snapshots"), slive0);
}

TEST(MetricsInvariantsTest, WindowBufferGaugesTrackFootprint) {
  const size_t d = 8;
  const Matrix rows = GaussianRows(120, d, 10);
  WindowBuffer buffer(WindowSpec::Sequence(50));
  for (size_t i = 0; i < rows.rows(); ++i) {
    const auto row = rows.Row(i);
    buffer.Add(Row(std::vector<double>(row.begin(), row.end()),
                   static_cast<double>(i + 1)));
    EXPECT_EQ(G("window_buffer.rows"),
              static_cast<int64_t>(buffer.size()));
    EXPECT_EQ(G("window_buffer.resident_bytes"),
              static_cast<int64_t>(buffer.size() * d * sizeof(double)));
  }
  EXPECT_EQ(buffer.size(), 50u);

  // Gram route counters move with the density dispatch: Gaussian windows
  // are dense.
  const uint64_t dense0 = C("window_buffer.gram_dense");
  (void)buffer.GramMatrix(d);
  EXPECT_EQ(C("window_buffer.gram_dense") - dense0, 1u);
}

TEST(MetricsInvariantsTest, AmmProductCacheAccountsForEveryQuery) {
  // The amm.* conservation law, for every AMM backend:
  //   product_queries == product_cache_hits + product_cache_misses
  // with hits only between mutations, and pairs_ingested counting every
  // (row_a, row_b) pair exactly once across single and batched ingest.
  const size_t da = 3, db = 4, d = da + db;
  const Matrix rows = GaussianRows(90, d, 21);
  for (const std::string algo :
       {"amm-exact", "amm-co-fd", "amm-lm-fd", "amm-di-fd"}) {
    SCOPED_TRACE(algo);
    SketchConfig config;
    config.algorithm = algo;
    config.ell = 8;
    config.amm_dim_a = da;
    config.max_norm_sq = 16.0 * static_cast<double>(d);
    auto made = MakeSlidingWindowSketch(d, WindowSpec::Sequence(40), config);
    ASSERT_TRUE(made.ok());
    auto* amm = dynamic_cast<AmmSketch*>(made->get());
    ASSERT_NE(amm, nullptr);

    const uint64_t pairs0 = C("amm.pairs_ingested");
    const uint64_t q0 = C("amm.product_queries");
    const uint64_t h0 = C("amm.product_cache_hits");
    const uint64_t m0 = C("amm.product_cache_misses");
    const auto check = [&] {
      ASSERT_EQ((C("amm.product_cache_hits") - h0) +
                    (C("amm.product_cache_misses") - m0),
                C("amm.product_queries") - q0);
    };

    double t = 0.0;
    for (size_t i = 0; i < 30; ++i) {
      t += 1.0;
      amm->Update(rows.Row(i), t);
    }
    EXPECT_EQ(C("amm.pairs_ingested") - pairs0, 30u);

    // Cold query, then a warm repeat: exactly one miss, one hit.
    (void)amm->QueryProduct();
    check();
    const uint64_t m_after_cold = C("amm.product_cache_misses");
    (void)amm->QueryProduct();
    check();
    EXPECT_EQ(C("amm.product_cache_misses"), m_after_cold)
        << "repeat query with no mutation must hit the cache";
    EXPECT_EQ(C("amm.product_cache_hits") - h0, 1u);

    // A mutation invalidates: the next product query is cold again.
    Matrix batch(20, d);
    std::vector<double> ts(20);
    for (size_t i = 0; i < 20; ++i) {
      const auto src = rows.Row(30 + i);
      for (size_t j = 0; j < d; ++j) batch(i, j) = src[j];
      t += 1.0;
      ts[i] = t;
    }
    amm->UpdateBatch(batch, ts);
    EXPECT_EQ(C("amm.pairs_ingested") - pairs0, 50u);
    (void)amm->QueryProduct();
    check();
    EXPECT_EQ(C("amm.product_cache_misses") - m0, 2u);

    // Reload: visible as amm.reloads, and the restored cache starts cold.
    ByteWriter w;
    ASSERT_TRUE(amm->SerializeTo(&w).ok());
    const uint64_t reloads0 = C("amm.reloads");
    ByteReader r(w.bytes());
    auto loaded = DeserializeSlidingWindowSketch(&r);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(C("amm.reloads") - reloads0, 1u);
    auto* loaded_amm = dynamic_cast<AmmSketch*>(loaded->get());
    ASSERT_NE(loaded_amm, nullptr);
    const uint64_t m_before = C("amm.product_cache_misses");
    (void)loaded_amm->QueryProduct();
    EXPECT_EQ(C("amm.product_cache_misses") - m_before, 1u)
        << "first post-load product query must be cold";
    check();
  }
}

TEST(MetricsInvariantsTest, ShardedQueryCacheAccountsForEveryQuery) {
  // sharded_*.queries == query_cache_hits + query_cache_misses, with hits
  // only while mutation_seq_ is unchanged.
  const size_t d = 6;
  const Matrix rows = GaussianRows(200, d, 31);
  std::vector<double> ts(rows.rows());
  for (size_t i = 0; i < ts.size(); ++i) ts[i] = static_cast<double>(i);
  for (const std::string algo : {"lm-fd", "di-fd"}) {
    SCOPED_TRACE(algo);
    SketchConfig config;
    config.algorithm = algo;
    config.ell = 4;
    config.max_norm_sq = 16.0 * static_cast<double>(d);
    ShardedSketch::Options options;
    options.shards = 2;
    options.block_rows = 32;
    auto made =
        ShardedSketch::Make(d, WindowSpec::Sequence(80), config, options);
    ASSERT_TRUE(made.ok());
    ShardedSketch& sharded = *made.value();
    const std::string p = MetricScope::Slug(sharded.name()) + ".";
    const uint64_t q0 = C(p + "queries");
    const uint64_t h0 = C(p + "query_cache_hits");
    const uint64_t m0 = C(p + "query_cache_misses");
    const auto check = [&](uint64_t hits, uint64_t misses) {
      EXPECT_EQ(C(p + "query_cache_hits") - h0, hits);
      EXPECT_EQ(C(p + "query_cache_misses") - m0, misses);
      ASSERT_EQ((C(p + "query_cache_hits") - h0) +
                    (C(p + "query_cache_misses") - m0),
                C(p + "queries") - q0);
    };

    sharded.UpdateBatch(rows, ts);
    (void)sharded.Query();
    check(0, 1);
    (void)sharded.Query();  // No mutation in between: warm.
    check(1, 1);
    sharded.AdvanceTo(250.0);
    (void)sharded.Query();
    check(1, 2);
    sharded.InvalidateQueryCache();
    (void)sharded.Query();
    check(1, 3);
    (void)sharded.Query();
    check(2, 3);
  }
}

}  // namespace
}  // namespace swsketch

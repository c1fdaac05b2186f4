// Tests for the name-based sketch factory.
#include "core/factory.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "distributed/sharded_sketch.h"
#include "service/tenant_manager.h"
#include "util/random.h"

namespace swsketch {
namespace {

TEST(FactoryTest, BuildsEveryKnownAlgorithmOnSequenceWindows) {
  for (const std::string& algo : KnownAlgorithms()) {
    SketchConfig config;
    config.algorithm = algo;
    config.ell = 8;
    auto r = MakeSlidingWindowSketch(6, WindowSpec::Sequence(100), config);
    ASSERT_TRUE(r.ok()) << algo << ": " << r.status().ToString();
    EXPECT_EQ((*r)->dim(), 6u) << algo;
  }
}

TEST(FactoryTest, DiRequiresSequenceWindow) {
  for (const char* algo : {"di-fd", "di-rp", "di-hash"}) {
    SketchConfig config;
    config.algorithm = algo;
    auto r = MakeSlidingWindowSketch(4, WindowSpec::Time(5.0), config);
    EXPECT_FALSE(r.ok()) << algo;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FactoryTest, TimeWindowAlgorithmsBuild) {
  for (const char* algo :
       {"swr", "swor", "swor-all", "lm-fd", "ds-fd", "lm-hash", "exact",
        "best"}) {
    SketchConfig config;
    config.algorithm = algo;
    auto r = MakeSlidingWindowSketch(4, WindowSpec::Time(5.0), config);
    ASSERT_TRUE(r.ok()) << algo;
  }
}

TEST(FactoryTest, UnknownAlgorithmRejected) {
  SketchConfig config;
  config.algorithm = "magic";
  auto r = MakeSlidingWindowSketch(4, WindowSpec::Sequence(10), config);
  EXPECT_FALSE(r.ok());
}

TEST(FactoryTest, InvalidDimOrEllRejected) {
  SketchConfig config;
  auto r0 = MakeSlidingWindowSketch(0, WindowSpec::Sequence(10), config);
  EXPECT_FALSE(r0.ok());
  config.ell = 0;
  auto r1 = MakeSlidingWindowSketch(4, WindowSpec::Sequence(10), config);
  EXPECT_FALSE(r1.ok());
}

TEST(FactoryTest, BuiltSketchesAreFunctional) {
  Rng rng(1);
  for (const std::string& algo : KnownAlgorithms()) {
    SketchConfig config;
    config.algorithm = algo;
    config.ell = 8;
    config.max_norm_sq = 16.0;
    auto r = MakeSlidingWindowSketch(5, WindowSpec::Sequence(64), config);
    ASSERT_TRUE(r.ok()) << algo;
    auto& sketch = *r;
    for (int i = 0; i < 300; ++i) {
      std::vector<double> row(5);
      for (auto& v : row) v = rng.Gaussian();
      sketch->Update(row, i);
    }
    Matrix b = sketch->Query();
    EXPECT_EQ(b.cols(), 5u) << algo;
    EXPECT_GT(sketch->RowsStored(), 0u) << algo;
    EXPECT_FALSE(sketch->name().empty()) << algo;
  }
}

TEST(FactoryTest, SworAllNameDistinct) {
  SketchConfig config;
  config.algorithm = "swor-all";
  auto r = MakeSlidingWindowSketch(3, WindowSpec::Sequence(10), config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->name(), "SWOR-ALL");
}

// One out-of-range SketchConfig field for one algorithm. Each row reaches a
// constructor CHECK (or a CHECK at the first block close) unless the
// factory rejects it up front.
struct BadConfigRow {
  const char* algorithm;
  const char* field;
  void (*set)(SketchConfig&);
};

const BadConfigRow kBadConfigs[] = {
    {"lm-fd", "ell=1", [](SketchConfig& c) { c.ell = 1; }},
    {"amm-lm-fd", "ell=1", [](SketchConfig& c) { c.ell = 1; }},
    {"ds-fd", "ell=1", [](SketchConfig& c) { c.ell = 1; }},
    {"amm-co-fd", "ell=1", [](SketchConfig& c) { c.ell = 1; }},
    {"lm-fd", "fd_buffer_factor=0.5",
     [](SketchConfig& c) { c.fd_buffer_factor = 0.5; }},
    {"lm-fd", "fd_buffer_factor=nan",
     [](SketchConfig& c) {
       c.fd_buffer_factor = std::numeric_limits<double>::quiet_NaN();
     }},
    {"lm-fd", "fd_buffer_factor=inf",
     [](SketchConfig& c) {
       c.fd_buffer_factor = std::numeric_limits<double>::infinity();
     }},
    {"lm-fd", "fd_buffer_factor=1e300",
     [](SketchConfig& c) { c.fd_buffer_factor = 1e300; }},
    {"di-fd", "fd_buffer_factor=0.5",
     [](SketchConfig& c) { c.fd_buffer_factor = 0.5; }},
    {"di-fd", "fd_buffer_factor=inf",
     [](SketchConfig& c) {
       c.fd_buffer_factor = std::numeric_limits<double>::infinity();
     }},
    {"di-fd", "fd_buffer_factor=1e300",
     [](SketchConfig& c) { c.fd_buffer_factor = 1e300; }},
    {"amm-di-fd", "fd_buffer_factor=0.5",
     [](SketchConfig& c) { c.fd_buffer_factor = 0.5; }},
    {"lm-fd", "blocks_per_level=1",
     [](SketchConfig& c) { c.blocks_per_level = 1; }},
    {"lm-hash", "blocks_per_level=1",
     [](SketchConfig& c) { c.blocks_per_level = 1; }},
    {"lm-rp", "blocks_per_level=0",
     [](SketchConfig& c) { c.blocks_per_level = 0; }},
    {"amm-lm-fd", "blocks_per_level=1",
     [](SketchConfig& c) { c.blocks_per_level = 1; }},
    {"di-fd", "levels=0", [](SketchConfig& c) { c.levels = 0; }},
    {"di-fd", "levels=64", [](SketchConfig& c) { c.levels = 64; }},
    {"di-rp", "levels=0", [](SketchConfig& c) { c.levels = 0; }},
    {"di-hash", "levels=100", [](SketchConfig& c) { c.levels = 100; }},
    {"amm-di-fd", "levels=0", [](SketchConfig& c) { c.levels = 0; }},
    {"di-fd", "max_norm_sq=0", [](SketchConfig& c) { c.max_norm_sq = 0.0; }},
    {"di-rp", "max_norm_sq=-1",
     [](SketchConfig& c) { c.max_norm_sq = -1.0; }},
    {"di-hash", "max_norm_sq=nan",
     [](SketchConfig& c) {
       c.max_norm_sq = std::numeric_limits<double>::quiet_NaN();
     }},
    {"swr", "frobenius_eps=0", [](SketchConfig& c) { c.frobenius_eps = 0.0; }},
    {"swor", "frobenius_eps=1", [](SketchConfig& c) { c.frobenius_eps = 1.0; }},
    {"swor-all", "frobenius_eps=-0.1",
     [](SketchConfig& c) { c.frobenius_eps = -0.1; }},
    {"ds-fd", "frobenius_eps=1.5",
     [](SketchConfig& c) { c.frobenius_eps = 1.5; }},
    {"ds-fd", "ds_frame_ell_factor=0.5",
     [](SketchConfig& c) { c.ds_frame_ell_factor = 0.5; }},
    {"ds-fd", "ds_fd_buffer_factor=0.5",
     [](SketchConfig& c) { c.ds_fd_buffer_factor = 0.5; }},
    {"ds-fd", "ds_fd_buffer_factor=inf",
     [](SketchConfig& c) {
       c.ds_fd_buffer_factor = std::numeric_limits<double>::infinity();
     }},
    {"ds-fd", "ds_fd_buffer_factor=1e300",
     [](SketchConfig& c) { c.ds_fd_buffer_factor = 1e300; }},
    {"ds-fd", "ds_snapshot_trunc=-0.1",
     [](SketchConfig& c) { c.ds_snapshot_trunc = -0.1; }},
    {"amm-co-fd", "ds_fd_buffer_factor=0.5",
     [](SketchConfig& c) { c.ds_fd_buffer_factor = 0.5; }},
    // In range field by field, but an instance would reserve more than
    // 1 GiB before its first query (FD buffers, SWR chains).
    {"di-fd", "ell=2^40", [](SketchConfig& c) { c.ell = 1ULL << 40; }},
    {"swr", "ell=2^40", [](SketchConfig& c) { c.ell = 1ULL << 40; }},
    {"ds-fd", "ell=2^40", [](SketchConfig& c) { c.ell = 1ULL << 40; }},
    {"ds-fd", "ell=2^64-1", [](SketchConfig& c) { c.ell = ~0ULL; }},
    {"lm-fd", "ell=32 fd_buffer_factor=1e6",
     [](SketchConfig& c) {
       c.ell = 32;
       c.fd_buffer_factor = 1e6;
     }},
    {"amm-co-fd", "ell=2^40", [](SketchConfig& c) { c.ell = 1ULL << 40; }},
};

ShardedSketch::Options TwoSerialShards() {
  ShardedSketch::Options options;
  options.shards = 2;
  options.parallel = false;
  return options;
}

TEST(FactoryTest, OutOfRangeConfigRejectedByEveryEntryPoint) {
  const size_t d = 6;
  const WindowSpec window = WindowSpec::Sequence(64);
  for (const BadConfigRow& row : kBadConfigs) {
    SCOPED_TRACE(std::string(row.algorithm) + " " + row.field);
    SketchConfig config;
    config.algorithm = row.algorithm;
    config.ell = 8;
    row.set(config);

    auto heap = MakeSlidingWindowSketch(d, window, config);
    ASSERT_FALSE(heap.ok());
    EXPECT_EQ(heap.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(SketchPrototype::Make(d, window, config).ok());
    EXPECT_FALSE(TenantManager::Make(d, window, config).ok());
    EXPECT_FALSE(
        ShardedSketch::Make(d, window, config, TwoSerialShards()).ok());
  }
}

// DI indexes its window with the row count as a double: a size past 2^53
// has no exact representation (and 2^64 - 1 rounds out of uint64_t).
TEST(FactoryTest, DiWindowBeyondDoublePrecisionRejected) {
  SketchConfig config;
  config.algorithm = "di-fd";
  for (uint64_t n : {(1ULL << 53) + 2, ~0ULL}) {
    SCOPED_TRACE(n);
    EXPECT_FALSE(
        SketchPrototype::Make(6, WindowSpec::Sequence(n), config).ok());
  }
  EXPECT_TRUE(
      SketchPrototype::Make(6, WindowSpec::Sequence(1ULL << 53), config).ok());
}

// Defined behaviour that validation must keep accepting: DI-FD clamps
// every level to >= 2 rows, and a non-positive LM block capacity means
// C = ell.
TEST(FactoryTest, ClampedConfigsStayAccepted) {
  const size_t d = 6;
  const WindowSpec window = WindowSpec::Sequence(64);
  const BadConfigRow accepted[] = {
      {"di-fd", "ell=1", [](SketchConfig& c) { c.ell = 1; }},
      {"lm-fd", "lm_block_capacity=0",
       [](SketchConfig& c) { c.lm_block_capacity = 0.0; }},
      {"lm-hash", "lm_block_capacity=-1",
       [](SketchConfig& c) { c.lm_block_capacity = -1.0; }},
  };
  Rng rng(3);
  for (const BadConfigRow& row : accepted) {
    SCOPED_TRACE(std::string(row.algorithm) + " " + row.field);
    SketchConfig config;
    config.algorithm = row.algorithm;
    config.ell = 8;
    config.max_norm_sq = 16.0;
    row.set(config);
    auto heap = MakeSlidingWindowSketch(d, window, config);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    auto manager = TenantManager::Make(d, window, config);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    auto sharded = ShardedSketch::Make(d, window, config, TwoSerialShards());
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    std::vector<double> r(d);
    for (int i = 0; i < 200; ++i) {
      for (auto& v : r) v = rng.Gaussian();
      (*heap)->Update(r, i);
      ASSERT_TRUE((*manager)->Update(7, r, i).ok());
      (*sharded)->Update(r, i);
    }
    EXPECT_GT((*heap)->Query().rows(), 0u);
    EXPECT_GT((*sharded)->Query().rows(), 0u);
  }
}

}  // namespace
}  // namespace swsketch

// Golden serialization fixtures: committed byte blobs of serialized
// LM-FD / LM-HASH / DI-FD / DS-FD / SWR / SWOR / SWOR-ALL / AMM sketches
// (the v2 payload formats) plus the exact bytes their post-load Query() must
// produce. Unlike the round-trip tests (serialization_test.cc), these pin
// the on-disk format ACROSS PRs: any change that reorders a field, bumps
// a version, or perturbs a double fails here, so format breaks become a
// deliberate fixture regeneration instead of a silent incompatibility.
//
// To regenerate after an intentional format change:
//
//     SWSKETCH_REGEN_GOLDEN=1 ./build/tests/serialization_golden_test
//
// which rewrites tests/fixtures/golden_*.bin in the source tree (the
// fixture dir is baked in via SWSKETCH_FIXTURES_DIR). The generating
// streams are seeded Rng draws, so fixtures are reproducible wherever
// libm produces identical doubles (the CI container does).
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "amm/amm_exact.h"
#include "amm/amm_stacked.h"
#include "core/dump_snapshot.h"
#include "core/factory.h"
#include "core/dyadic_interval.h"
#include "core/logarithmic_method.h"
#include "core/window_sampler.h"
#include "linalg/matrix.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/serialize.h"

#ifndef SWSKETCH_FIXTURES_DIR
#error "SWSKETCH_FIXTURES_DIR must be defined by the build"
#endif

namespace swsketch {
namespace {

bool RegenMode() {
  const char* env = std::getenv("SWSKETCH_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string FixturePath(const std::string& file) {
  return std::string(SWSKETCH_FIXTURES_DIR) + "/" + file;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path
                         << " (regenerate with SWSKETCH_REGEN_GOLDEN=1)";
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Encodes a query result as little-endian (rows, cols, row-major doubles)
// so "deserialize-then-query is byte-stable" is literal: any ULP drift in
// the reconstruction pipeline flips fixture bytes.
std::vector<uint8_t> EncodeMatrix(const Matrix& m) {
  ByteWriter w;
  w.Put<uint64_t>(m.rows());
  w.Put<uint64_t>(m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) w.Put(m(i, j));
  }
  return w.bytes();
}

// Deterministic Gaussian ingest shared by every fixture builder.
template <typename SketchT>
void Ingest(SketchT* sketch, size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> row(d);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : row) v = rng.Gaussian();
    sketch->Update(row, static_cast<double>(i + 1));
  }
}

// Shared harness: build the live sketch, serialize it, and either (regen)
// rewrite the fixtures or (normal) assert the blob and the post-load
// query both match the committed bytes exactly. The committed blob is
// reloaded through DeserializeSlidingWindowSketch, the one entry point a
// checkpoint is read back with; *regenerated is set if fixtures were
// rewritten (caller should skip).
template <typename SketchT>
void CheckGolden(SketchT* live, const std::string& stem, bool* regenerated) {
  *regenerated = false;
  ByteWriter w;
  live->Serialize(&w);
  const std::vector<uint8_t> blob = w.bytes();

  const std::string blob_path = FixturePath(stem + ".sketch.bin");
  const std::string query_path = FixturePath(stem + ".query.bin");

  if (RegenMode()) {
    WriteFile(blob_path, blob);
    ByteReader r(blob);
    auto loaded = DeserializeSlidingWindowSketch(&r);
    ASSERT_TRUE(loaded.ok());
    WriteFile(query_path, EncodeMatrix((*loaded)->Query()));
    *regenerated = true;
    return;
  }

  const std::vector<uint8_t> want_blob = ReadFile(blob_path);
  ASSERT_EQ(blob.size(), want_blob.size())
      << stem << ": serialized size changed — format drift";
  EXPECT_EQ(std::memcmp(blob.data(), want_blob.data(), blob.size()), 0)
      << stem << ": serialized bytes changed — format drift";

  // Load the COMMITTED blob (not the fresh one): this is what a sketch
  // checkpointed by an older build looks like to the current code.
  ByteReader r(want_blob);
  auto loaded = DeserializeSlidingWindowSketch(&r);
  ASSERT_TRUE(loaded.ok()) << stem << ": committed blob no longer loads";
  const std::vector<uint8_t> got_query = EncodeMatrix((*loaded)->Query());
  const std::vector<uint8_t> want_query = ReadFile(query_path);
  ASSERT_EQ(got_query.size(), want_query.size()) << stem;
  EXPECT_EQ(
      std::memcmp(got_query.data(), want_query.data(), got_query.size()), 0)
      << stem << ": deserialize-then-query is no longer byte-stable";
}

TEST(SerializationGoldenTest, LmFdBlobAndQueryAreByteStable) {
  const size_t d = 8;
  LmFd::Options opt;
  opt.ell = 6;
  opt.blocks_per_level = 3;
  opt.block_capacity = 6.0 * static_cast<double>(d);
  LmFd lm(d, WindowSpec::Sequence(100), opt);
  Ingest(&lm, 250, d, 41);
  bool regenerated = false;
  CheckGolden(&lm, "golden_lm_fd", &regenerated);
  if (regenerated) GTEST_SKIP() << "fixtures regenerated";
}

TEST(SerializationGoldenTest, DiFdBlobAndQueryAreByteStable) {
  const size_t d = 8;
  DiFd::Options opt;
  opt.levels = 4;
  opt.window_size = 100;
  opt.max_norm_sq = 16.0 * static_cast<double>(d);
  opt.ell_top = 12;
  DiFd di(d, opt);
  Ingest(&di, 250, d, 42);
  bool regenerated = false;
  CheckGolden(&di, "golden_di_fd", &regenerated);
  if (regenerated) GTEST_SKIP() << "fixtures regenerated";
}

TEST(SerializationGoldenTest, DsFdBlobAndQueryAreByteStable) {
  const size_t d = 8;
  DsFd::Options opt;
  opt.ell = 6;
  opt.snapshots_per_window = 4;
  DsFd ds(d, WindowSpec::Sequence(100), opt);
  Ingest(&ds, 250, d, 44);
  bool regenerated = false;
  CheckGolden(&ds, "golden_ds_fd", &regenerated);
  if (regenerated) GTEST_SKIP() << "fixtures regenerated";
}

TEST(SerializationGoldenTest, LmHashBlobAndQueryAreByteStable) {
  const size_t d = 8;
  LmHash::Options opt;
  opt.ell = 6;
  opt.blocks_per_level = 3;
  opt.block_capacity = 6.0 * static_cast<double>(d);
  opt.seed = 48;
  LmHash lm(d, WindowSpec::Sequence(100), opt);
  Ingest(&lm, 250, d, 48);
  bool regenerated = false;
  CheckGolden(&lm, "golden_lm_hash", &regenerated);
  if (regenerated) GTEST_SKIP() << "fixtures regenerated";
}

TEST(SerializationGoldenTest, SwrBlobAndQueryAreByteStable) {
  const size_t d = 8;
  WindowSampler::Options opt;
  opt.ell = 10;
  opt.seed = 49;
  WindowSampler swr(d, WindowSpec::Sequence(100), opt);
  Ingest(&swr, 250, d, 49);
  bool regenerated = false;
  CheckGolden(&swr, "golden_swr", &regenerated);
  if (regenerated) GTEST_SKIP() << "fixtures regenerated";
}

TEST(SerializationGoldenTest, SworBlobAndQueryAreByteStable) {
  const size_t d = 8;
  WindowSampler::Options opt;
  opt.ell = 10;
  opt.scheme = WindowSampler::Scheme::kSwor;
  opt.seed = 43;
  WindowSampler swor(d, WindowSpec::Sequence(100), opt);
  Ingest(&swor, 250, d, 43);
  bool regenerated = false;
  CheckGolden(&swor, "golden_swor", &regenerated);
  if (regenerated) GTEST_SKIP() << "fixtures regenerated";
}

TEST(SerializationGoldenTest, SworAllBlobAndQueryAreByteStable) {
  const size_t d = 8;
  WindowSampler::Options opt;
  opt.ell = 10;
  opt.scheme = WindowSampler::Scheme::kSworAll;
  opt.seed = 50;
  WindowSampler swor(d, WindowSpec::Sequence(100), opt);
  Ingest(&swor, 250, d, 50);
  bool regenerated = false;
  CheckGolden(&swor, "golden_swor_all", &regenerated);
  if (regenerated) GTEST_SKIP() << "fixtures regenerated";
}

// A time window with three rows per timestamp, exact Frobenius tracking
// and the UpdateBatch path: the per-row goldens above cover none of them.
TEST(SerializationGoldenTest, SwrTimeBatchBlobAndQueryAreByteStable) {
  const size_t d = 8, n = 250, block = 16;
  WindowSampler::Options opt;
  opt.ell = 10;
  opt.exact_frobenius = true;
  opt.seed = 51;
  WindowSampler swr(d, WindowSpec::Time(30.0), opt);
  Rng rng(51);
  for (size_t begin = 0; begin < n; begin += block) {
    const size_t rows = std::min(block, n - begin);
    Matrix m(rows, d);
    std::vector<double> ts(rows);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < d; ++j) m(i, j) = rng.Gaussian();
      ts[i] = static_cast<double>((begin + i) / 3 + 1);
    }
    swr.UpdateBatch(m, ts);
  }
  bool regenerated = false;
  CheckGolden(&swr, "golden_swr_time", &regenerated);
  if (regenerated) GTEST_SKIP() << "fixtures regenerated";
}

// The AMM v2 wire tags (AME1 for the exact dual-buffer backend, AMS1 for
// the stacked wrappers — whose payload nests the underlying backend's own
// tagged blob) are pinned the same way: the committed bytes are what a
// checkpoint written by this PR looks like forever.
TEST(SerializationGoldenTest, AmmExactBlobAndQueryAreByteStable) {
  const size_t da = 3, db = 5;
  AmmExact amm(da, db, WindowSpec::Sequence(40));
  Ingest(&amm, 120, da + db, 45);
  bool regenerated = false;
  CheckGolden(&amm, "golden_amm_exact", &regenerated);
  if (regenerated) GTEST_SKIP() << "fixtures regenerated";
}

TEST(SerializationGoldenTest, AmmCoFdBlobAndQueryAreByteStable) {
  const size_t da = 3, db = 5, d = da + db;
  SketchConfig config;
  config.algorithm = "amm-co-fd";
  config.ell = 6;
  config.ds_snapshots_per_window = 4;
  config.amm_dim_a = da;
  auto made = MakeSlidingWindowSketch(d, WindowSpec::Sequence(100), config);
  ASSERT_TRUE(made.ok());
  auto* amm = dynamic_cast<AmmStacked*>(made->get());
  ASSERT_NE(amm, nullptr);
  Ingest(amm, 250, d, 46);
  bool regenerated = false;
  CheckGolden(amm, "golden_amm_co_fd", &regenerated);
  if (regenerated) GTEST_SKIP() << "fixtures regenerated";
}

TEST(SerializationGoldenTest, AmmLmFdBlobAndQueryAreByteStable) {
  const size_t da = 4, db = 4, d = da + db;
  SketchConfig config;
  config.algorithm = "amm-lm-fd";
  config.ell = 6;
  config.blocks_per_level = 3;
  config.lm_block_capacity = 6.0 * static_cast<double>(d);
  config.amm_dim_a = da;
  auto made = MakeSlidingWindowSketch(d, WindowSpec::Sequence(100), config);
  ASSERT_TRUE(made.ok());
  auto* amm = dynamic_cast<AmmStacked*>(made->get());
  ASSERT_NE(amm, nullptr);
  Ingest(amm, 250, d, 47);
  bool regenerated = false;
  CheckGolden(amm, "golden_amm_lm_fd", &regenerated);
  if (regenerated) GTEST_SKIP() << "fixtures regenerated";
}

TEST(SerializationGoldenTest, LoadStartsWithColdCachesAndCountsReload) {
  // The query/merge caches are runtime state and must not ride along in
  // the payload: the first Query() on a loaded sketch takes the cold path
  // (a query_cache_miss), and the load itself is visible as a reload in
  // the metrics. The bytes it produces still match the warm pre-serialize
  // result (pinned bitwise by the fixtures above).
  if (RegenMode()) GTEST_SKIP() << "regen run";
  const size_t d = 8;
  LmFd::Options opt;
  opt.ell = 6;
  opt.blocks_per_level = 3;
  opt.block_capacity = 6.0 * static_cast<double>(d);
  LmFd lm(d, WindowSpec::Sequence(100), opt);
  Ingest(&lm, 250, d, 41);
  (void)lm.Query();  // Warm the live sketch's cache.

  auto& reg = MetricsRegistry::Global();
  const uint64_t reloads0 = reg.GetCounter("lm_fd.reloads")->Value();
  ByteWriter w;
  lm.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = DeserializeSlidingWindowSketch(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(reg.GetCounter("lm_fd.reloads")->Value(), reloads0 + 1);

  const uint64_t misses0 = reg.GetCounter("lm_fd.query_cache_misses")->Value();
  const uint64_t hits0 = reg.GetCounter("lm_fd.query_cache_hits")->Value();
  const Matrix q = (*loaded)->Query();
  EXPECT_EQ(reg.GetCounter("lm_fd.query_cache_misses")->Value(), misses0 + 1)
      << "first post-load query must be cold";
  EXPECT_EQ(reg.GetCounter("lm_fd.query_cache_hits")->Value(), hits0);
  EXPECT_EQ(q.MaxAbsDiff(lm.Query()), 0.0);
}

}  // namespace
}  // namespace swsketch

// Deterministic mutation fuzzer for the one sketch load path
// (DeserializeSlidingWindowSketch). Every golden sketch fixture is mutated
// three ways:
//
//   * a u64 overwrite with each of kPatterns at every offset of the first
//     128 bytes (where the wire headers live) and at every 8-aligned
//     offset after that;
//   * every single-bit flip in the first 160 bytes;
//   * truncation to every shorter length.
//
// Each mutant must come back as a Status. A mutant that loads must then
// take 200 updates at timestamp DBL_MAX (which passes ts >= now for any
// finite clock), answer Query() and serialize again. An abort, a CHECK
// failure or an uncaught bad_alloc / length_error ends the process, so a
// run that completes is the pass. The corpus and the mutations are fixed:
// no flags, no environment, no randomness between runs.
//
// The full enumeration is about 113k mutants; a loaded DS-FD mutant's
// query stacks 200 one-row frames (every row at DBL_MAX cuts a frame), so
// the ctest runs every kStride-th mutant to stay under a minute in the
// asan preset. kStride is prime, so the kept mutants rotate through every
// pattern, offset class and bit position.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "util/random.h"
#include "util/serialize.h"

#ifndef SWSKETCH_FIXTURES_DIR
#error "SWSKETCH_FIXTURES_DIR must be defined by the build"
#endif

namespace swsketch {
namespace {

constexpr uint64_t kPatterns[] = {
    0,
    1,
    2,
    (1ULL << 31) - 1,
    1ULL << 40,
    ~0ULL,
    std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN()),
    std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity()),
    std::bit_cast<uint64_t>(1e300),
    std::bit_cast<uint64_t>(-1.0),
    std::bit_cast<uint64_t>(0.0),
};

constexpr size_t kStride = 79;

std::vector<std::string> SketchFixtures() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(SWSKETCH_FIXTURES_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("golden_") && name.ends_with(".sketch.bin")) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// Loads one mutant; returns whether it loaded. A loaded sketch is driven
// through ingest, query and reserialization.
bool RunMutant(std::span<const uint8_t> bytes) {
  ByteReader reader(bytes);
  auto loaded = DeserializeSlidingWindowSketch(&reader);
  if (!loaded.ok()) {
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    return false;
  }
  SlidingWindowSketch& sketch = **loaded;
  Rng rng(7);
  std::vector<double> row(sketch.dim());
  for (int i = 0; i < 200; ++i) {
    for (double& v : row) v = rng.Gaussian();
    sketch.Update(row, std::numeric_limits<double>::max());
  }
  (void)sketch.Query();
  ByteWriter writer;
  EXPECT_TRUE(sketch.SerializeTo(&writer).ok());
  return true;
}

TEST(SerializationFuzzTest, EveryMutantOfEveryGoldenSketchYieldsAStatus) {
  const std::vector<std::string> fixtures = SketchFixtures();
  ASSERT_GE(fixtures.size(), 9u);
  size_t total = 0, total_loaded = 0, index = 0;
  for (const std::string& path : fixtures) {
    SCOPED_TRACE(path);
    const std::vector<uint8_t> blob = ReadFile(path);
    ASSERT_GE(blob.size(), 160u);
    ASSERT_TRUE(RunMutant(blob)) << "unmutated fixture must load";
    size_t mutants = 0, loaded = 0;
    const auto run = [&](std::span<const uint8_t> bytes) {
      if (index++ % kStride != 0) return;
      ++mutants;
      if (RunMutant(bytes)) ++loaded;
    };

    std::vector<uint8_t> m = blob;
    for (size_t off = 0; off + 8 <= blob.size(); off += off < 128 ? 1 : 8) {
      for (uint64_t pattern : kPatterns) {
        std::memcpy(&m[off], &pattern, sizeof(pattern));
        run(m);
      }
      std::memcpy(&m[off], &blob[off], 8);
    }
    for (size_t bit = 0; bit < 160 * 8; ++bit) {
      m[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      run(m);
      m[bit / 8] = blob[bit / 8];
    }
    for (size_t len = 0; len < blob.size(); ++len) {
      run(std::span<const uint8_t>(blob.data(), len));
    }

    // Both outcomes must be exercised: rejections, and loads that then
    // run the post-load checks.
    EXPECT_GT(loaded, 0u);
    EXPECT_LT(loaded, mutants);
    total += mutants;
    total_loaded += loaded;
  }
  std::printf("%zu mutants of %zu fixtures, %zu loaded\n", total,
              fixtures.size(), total_loaded);
}

}  // namespace
}  // namespace swsketch

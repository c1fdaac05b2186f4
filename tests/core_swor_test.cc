// Tests for the SWOR sliding-window sampler (Algorithm 5.2) and SWOR-ALL.
#include "core/window_sampler.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "eval/cov_err.h"
#include "stream/window_buffer.h"
#include "util/random.h"

namespace swsketch {
namespace {

std::vector<double> RandomRow(Rng* rng, size_t d, double scale = 1.0) {
  std::vector<double> r(d);
  for (auto& v : r) v = scale * rng->Gaussian();
  return r;
}

WindowSampler::Options Swor(size_t ell, uint64_t seed) {
  return {.ell = ell, .scheme = WindowSampler::Scheme::kSwor, .seed = seed};
}

TEST(SworSamplerTest, QueryReturnsAtMostEll) {
  const size_t ell = 12;
  WindowSampler sketch(3, WindowSpec::Sequence(200), Swor(ell, 1));
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) sketch.Update(RandomRow(&rng, 3), i);
  EXPECT_EQ(sketch.Query().rows(), ell);
}

TEST(SworSamplerTest, NoDuplicateSamples) {
  WindowSampler sketch(3, WindowSpec::Sequence(100), Swor(10, 3));
  Rng rng(4);
  for (int i = 0; i < 500; ++i) sketch.Update(RandomRow(&rng, 3), i);
  Matrix b = sketch.Query();
  std::set<std::vector<double>> uniq;
  for (size_t i = 0; i < b.rows(); ++i) {
    uniq.insert(std::vector<double>(b.Row(i).begin(), b.Row(i).end()));
  }
  EXPECT_EQ(uniq.size(), b.rows());
}

TEST(SworSamplerTest, CandidateCountNearLemmaBound) {
  // Lemma 5.2: O(ell log NR) candidates.
  const size_t ell = 8;
  WindowSampler sketch(3, WindowSpec::Sequence(1000), Swor(ell, 5));
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) sketch.Update(RandomRow(&rng, 3), i);
  EXPECT_LT(sketch.RowsStored(), ell * 40u);
  EXPECT_GE(sketch.RowsStored(), ell);
}

TEST(SworSamplerTest, RanksAreConsistent) {
  // Every stored candidate must be top-ell in the suffix starting at its
  // own timestamp — in particular there are at most ell candidates newer
  // than any given candidate with higher priority. Indirect check: with a
  // tiny window equal to ell the query returns the full window.
  const size_t ell = 5;
  WindowSampler sketch(2, WindowSpec::Sequence(ell), Swor(ell, 7));
  Rng rng(8);
  for (int i = 0; i < 100; ++i) sketch.Update(RandomRow(&rng, 2), i);
  // All 5 window rows are candidates (each is top-5 in its suffix).
  EXPECT_EQ(sketch.Query().rows(), ell);
}

TEST(SworSamplerTest, SworAllUsesAllCandidates) {
  WindowSampler all(
      3, WindowSpec::Sequence(300),
      WindowSampler::Options{
          .ell = 8, .scheme = WindowSampler::Scheme::kSworAll, .seed = 9});
  Rng rng(10);
  for (int i = 0; i < 1500; ++i) all.Update(RandomRow(&rng, 3), i);
  EXPECT_EQ(all.Query().rows(), all.RowsStored());
  EXPECT_GT(all.RowsStored(), 8u);
  EXPECT_EQ(all.name(), "SWOR-ALL");
}

TEST(SworSamplerTest, FrobeniusPreservedWithExactTracking) {
  WindowSampler sketch(
      4, WindowSpec::Sequence(250),
      WindowSampler::Options{.ell = 12,
                             .scheme = WindowSampler::Scheme::kSwor,
                             .exact_frobenius = true,
                             .seed = 11});
  WindowBuffer buffer(WindowSpec::Sequence(250));
  Rng rng(12);
  for (int i = 0; i < 1200; ++i) {
    auto row = RandomRow(&rng, 4);
    sketch.Update(row, i);
    buffer.Add(Row(row, i));
  }
  EXPECT_NEAR(sketch.Query().FrobeniusNormSq(), buffer.FrobeniusNormSq(),
              1e-9 * buffer.FrobeniusNormSq());
}

TEST(SworSamplerTest, TimeWindowExpiry) {
  WindowSampler sketch(2, WindowSpec::Time(5.0), Swor(4, 13));
  std::vector<double> r{1.0, 0.0};
  sketch.Update(r, 0.0);
  sketch.Update(r, 3.0);
  sketch.Update(r, 6.0);  // ts=0 expires (window [1, 6]).
  EXPECT_EQ(sketch.RowsStored(), 2u);
  sketch.AdvanceTo(20.0);
  EXPECT_EQ(sketch.RowsStored(), 0u);
  EXPECT_EQ(sketch.Query().rows(), 0u);
}

TEST(SworSamplerTest, CovarianceErrorReasonable) {
  const size_t d = 8, w = 400;
  WindowSampler sketch(d, WindowSpec::Sequence(w), Swor(256, 14));
  WindowBuffer buffer(WindowSpec::Sequence(w));
  Rng rng(15);
  for (int i = 0; i < 2000; ++i) {
    auto row = RandomRow(&rng, d);
    sketch.Update(row, i);
    buffer.Add(Row(row, i));
  }
  const double err = CovarianceError(buffer.GramMatrix(d),
                                     buffer.FrobeniusNormSq(), sketch.Query());
  EXPECT_LT(err, 0.35);
}

TEST(SworSamplerTest, HeavyRowIsKept) {
  // A row with overwhelming norm is (almost surely) in the top-ell sample.
  WindowSampler sketch(2, WindowSpec::Sequence(100), Swor(4, 16));
  Rng rng(17);
  for (int i = 0; i < 50; ++i) sketch.Update(RandomRow(&rng, 2, 0.01), i);
  std::vector<double> heavy{1000.0, 0.0};
  sketch.Update(heavy, 50);
  for (int i = 51; i < 100; ++i) sketch.Update(RandomRow(&rng, 2, 0.01), i);
  Matrix b = sketch.Query();
  bool found = false;
  for (size_t i = 0; i < b.rows(); ++i) {
    if (std::fabs(b(i, 0)) > 1.0 && std::fabs(b(i, 1)) < 1e-9) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace swsketch

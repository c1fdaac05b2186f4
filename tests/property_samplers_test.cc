// Statistical properties of the sliding-window samplers, swept over
// window shapes: inclusion probabilities proportional to squared norms,
// expected candidate counts near the Lemma 5.1/5.2 bounds, and unbiasedness
// of the SWR covariance estimator.
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/window_sampler.h"
#include "util/random.h"

namespace swsketch {
namespace {

// ---------------------------------------------------------------------------
// SWR single-sample inclusion probability over the window is w_i / W.
// ---------------------------------------------------------------------------

TEST(SamplerStats, SwrWindowInclusionProportionalToNormSq) {
  // Window of 4 rows with squared norms 1, 2, 3, 4 (W = 10): sample
  // frequencies must approach 0.1, 0.2, 0.3, 0.4.
  const size_t trials = 4000;
  std::vector<int> counts(4, 0);
  for (size_t t = 0; t < trials; ++t) {
    WindowSampler sketch(2, WindowSpec::Sequence(4),
                         WindowSampler::Options{.ell = 1,
                                                .exact_frobenius = true,
                                                .seed = 1000 + t});
    // Older rows beyond the window to exercise expiry too.
    for (int i = 0; i < 8; ++i) {
      std::vector<double> junk{5.0, 0.0};
      sketch.Update(junk, i);
    }
    for (int i = 0; i < 4; ++i) {
      std::vector<double> row{std::sqrt(static_cast<double>(i + 1)), 0.0};
      row[1] = 0.001 * (i + 1);  // Distinct signature in coordinate 1.
      sketch.Update(row, 8 + i);
    }
    Matrix b = sketch.Query();
    ASSERT_EQ(b.rows(), 1u);
    // Identify which row was sampled via the coordinate-1 signature ratio.
    const double ratio = b(0, 1) / b(0, 0);
    for (int i = 0; i < 4; ++i) {
      const double expected =
          0.001 * (i + 1) / std::sqrt(static_cast<double>(i + 1));
      if (std::fabs(ratio - expected) < 1e-9) ++counts[i];
    }
  }
  for (int i = 0; i < 4; ++i) {
    const double p = static_cast<double>(i + 1) / 10.0;
    EXPECT_NEAR(counts[i] / static_cast<double>(trials), p, 0.035)
        << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// SWR's estimator is unbiased: E[B^T B] = A^T A over the window.
// ---------------------------------------------------------------------------

TEST(SamplerStats, SwrCovarianceUnbiased) {
  const size_t d = 3, w = 30, reps = 600;
  Rng data_rng(1);
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < 2 * w; ++i) {
    std::vector<double> r(d);
    for (auto& v : r) v = data_rng.Gaussian();
    rows.push_back(r);
  }
  Matrix window_gram(d, d);
  for (size_t i = w; i < 2 * w; ++i) window_gram.AddOuterProduct(rows[i]);

  Matrix mean(d, d);
  for (size_t rep = 0; rep < reps; ++rep) {
    WindowSampler sketch(d, WindowSpec::Sequence(w),
                         WindowSampler::Options{.ell = 4,
                                                .exact_frobenius = true,
                                                .seed = 500 + rep});
    for (size_t i = 0; i < rows.size(); ++i) sketch.Update(rows[i], i);
    Matrix b = sketch.Query();
    for (size_t i = 0; i < b.rows(); ++i) {
      mean.AddOuterProduct(b.Row(i), 1.0 / static_cast<double>(reps));
    }
  }
  // Mean of B^T B within a few std errors of A^T A entrywise.
  const double tol = 0.2 * window_gram(0, 0) + 2.0;
  EXPECT_TRUE(mean.ApproxEquals(window_gram, tol));
}

// ---------------------------------------------------------------------------
// Candidate counts match the lemmas across window sizes and norm spreads.
// ---------------------------------------------------------------------------

class CandidateCountProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(CandidateCountProperty, NearLogarithmicBounds) {
  const auto [window, spread] = GetParam();
  const size_t ell = 8;
  WindowSampler swr(3, WindowSpec::Sequence(window),
                    WindowSampler::Options{.ell = ell, .seed = 3});
  WindowSampler swor(
      3, WindowSpec::Sequence(window),
      WindowSampler::Options{
          .ell = ell, .scheme = WindowSampler::Scheme::kSwor, .seed = 4});
  Rng rng(5);
  double swr_sum = 0.0, swor_sum = 0.0;
  size_t samples = 0;
  for (uint64_t i = 0; i < 4 * window; ++i) {
    const double scale = std::exp(rng.Uniform(0.0, std::log(spread)));
    std::vector<double> row(3);
    for (auto& v : row) v = scale * rng.Gaussian();
    swr.Update(row, static_cast<double>(i));
    swor.Update(row, static_cast<double>(i));
    if (i > window && i % 97 == 0) {
      swr_sum += static_cast<double>(swr.RowsStored());
      swor_sum += static_cast<double>(swor.RowsStored());
      ++samples;
    }
  }
  // Lemma 5.1 / 5.2: O(ell * log(N R)). Use a generous constant of 4.
  const double log_nr =
      std::log2(static_cast<double>(window) * spread * spread * 3.0) + 1.0;
  const double bound = 4.0 * static_cast<double>(ell) * log_nr;
  EXPECT_LT(swr_sum / static_cast<double>(samples), bound)
      << "window=" << window << " spread=" << spread;
  EXPECT_LT(swor_sum / static_cast<double>(samples), bound)
      << "window=" << window << " spread=" << spread;
  // And clearly sublinear in the window.
  EXPECT_LT(swr_sum / static_cast<double>(samples),
            0.5 * static_cast<double>(window) * ell);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CandidateCountProperty,
    ::testing::Combine(::testing::Values(200u, 1000u, 4000u),
                       ::testing::Values(1.0, 30.0, 1000.0)));

}  // namespace
}  // namespace swsketch

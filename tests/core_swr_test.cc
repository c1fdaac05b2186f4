// Tests for the SWR sliding-window sampler (Algorithm 5.1).
#include "core/window_sampler.h"

#include <cmath>

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

TEST(SwrSamplerTest, SamplesComeFromWindow) {
  // After many updates the sampled rows must all lie inside the window:
  // every returned row (unscaled) equals some window row direction.
  const size_t d = 4, n = 2000, w = 100;
  WindowSampler sketch(d, WindowSpec::Sequence(w),
                       WindowSampler::Options{.ell = 8, .seed = 1});
  WindowBuffer buffer(WindowSpec::Sequence(w));
  Rng rng(2);
  for (size_t i = 0; i < n; ++i) {
    auto row = RandomRow(&rng, d);
    sketch.Update(row, static_cast<double>(i));
    buffer.Add(Row(row, static_cast<double>(i)));
  }
  Matrix b = sketch.Query();
  ASSERT_GT(b.rows(), 0u);
  for (size_t i = 0; i < b.rows(); ++i) {
    // Each sample is a window row times a positive scalar: check that the
    // normalized sample matches some normalized window row.
    std::vector<double> sample(b.Row(i).begin(), b.Row(i).end());
    Normalize(sample);
    bool found = false;
    for (const auto& r : buffer.rows()) {
      std::vector<double> cand = r.values;
      Normalize(cand);
      double diff = 0.0;
      for (size_t j = 0; j < d; ++j) {
        diff = std::max(diff, std::fabs(cand[j] - sample[j]));
      }
      if (diff < 1e-9) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "sample " << i << " not a window row";
  }
}

TEST(SwrSamplerTest, ReturnsEllSamplesWhenWindowNonEmpty) {
  const size_t ell = 16;
  WindowSampler sketch(3, WindowSpec::Sequence(50),
                       WindowSampler::Options{.ell = ell, .seed = 3});
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    sketch.Update(RandomRow(&rng, 3), i);
  }
  EXPECT_EQ(sketch.Query().rows(), ell);
}

TEST(SwrSamplerTest, CandidateCountLogarithmic) {
  // Lemma 5.1: expected candidates per chain O(log NR); with N=1000 and
  // unit-ish norms a chain should hold ~log(1000) ~ 10 candidates, far
  // below N.
  WindowSampler sketch(3, WindowSpec::Sequence(1000),
                       WindowSampler::Options{.ell = 4, .seed = 5});
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) sketch.Update(RandomRow(&rng, 3), i);
  EXPECT_LT(sketch.RowsStored(), 4 * 40u);
  EXPECT_GT(sketch.RowsStored(), 4u);
}

TEST(SwrSamplerTest, SharedRowsSaveSpace) {
  WindowSampler sketch(3, WindowSpec::Sequence(500),
                       WindowSampler::Options{.ell = 32, .seed = 7});
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) sketch.Update(RandomRow(&rng, 3), i);
  // Unique rows <= total candidate entries.
  EXPECT_LE(sketch.UniqueRowsStored(), sketch.RowsStored());
}

TEST(SwrSamplerTest, ExpiryOnTimeWindow) {
  WindowSampler sketch(2, WindowSpec::Time(10.0),
                       WindowSampler::Options{.ell = 4, .seed = 9});
  std::vector<double> r{1.0, 1.0};
  sketch.Update(r, 0.0);
  sketch.Update(r, 5.0);
  EXPECT_GT(sketch.Query().rows(), 0u);
  sketch.AdvanceTo(100.0);  // Everything expires.
  EXPECT_EQ(sketch.Query().rows(), 0u);
  EXPECT_EQ(sketch.RowsStored(), 0u);
}

TEST(SwrSamplerTest, FrobeniusRescalingApproximatelyPreserved) {
  // sum of ||b_i||^2 over samples = ell * (||A||_F_est^2 / ell) =
  // approximately ||A||_F^2 with EH error.
  const double eh_eps = 0.05;
  WindowSampler sketch(4, WindowSpec::Sequence(300),
                       WindowSampler::Options{.ell = 10,
                                              .frobenius_eps = eh_eps,
                                              .seed = 10});
  WindowBuffer buffer(WindowSpec::Sequence(300));
  Rng rng(11);
  for (int i = 0; i < 1500; ++i) {
    auto row = RandomRow(&rng, 4);
    sketch.Update(row, i);
    buffer.Add(Row(row, i));
  }
  const double exact = buffer.FrobeniusNormSq();
  const double got = sketch.Query().FrobeniusNormSq();
  EXPECT_NEAR(got, exact, 3 * eh_eps * exact);
}

TEST(SwrSamplerTest, ExactFrobeniusModeIsExact) {
  WindowSampler sketch(4, WindowSpec::Sequence(200),
                       WindowSampler::Options{.ell = 10,
                                              .exact_frobenius = true,
                                              .seed = 12});
  WindowBuffer buffer(WindowSpec::Sequence(200));
  Rng rng(13);
  for (int i = 0; i < 900; ++i) {
    auto row = RandomRow(&rng, 4);
    sketch.Update(row, i);
    buffer.Add(Row(row, i));
  }
  EXPECT_NEAR(sketch.Query().FrobeniusNormSq(), buffer.FrobeniusNormSq(),
              1e-9 * buffer.FrobeniusNormSq());
}

TEST(SwrSamplerTest, CovarianceErrorReasonable) {
  const size_t d = 8, w = 400;
  WindowSampler sketch(d, WindowSpec::Sequence(w),
                       WindowSampler::Options{.ell = 256, .seed = 14});
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

TEST(SwrSamplerTest, SkipsZeroRows) {
  WindowSampler sketch(2, WindowSpec::Sequence(10),
                       WindowSampler::Options{.ell = 2, .seed = 16});
  std::vector<double> zero{0.0, 0.0};
  sketch.Update(zero, 0.0);
  EXPECT_EQ(sketch.RowsStored(), 0u);
  EXPECT_EQ(sketch.Query().rows(), 0u);
}

TEST(SwrSamplerTest, RejectsOutOfOrderTimestamps) {
  WindowSampler sketch(2, WindowSpec::Sequence(10),
                       WindowSampler::Options{.ell = 2, .seed = 17});
  std::vector<double> r{1.0, 0.0};
  sketch.Update(r, 5.0);
  EXPECT_DEATH(sketch.Update(r, 4.0), "");
}

}  // namespace
}  // namespace swsketch

// Edge-case and misuse robustness across modules: precondition deaths,
// degenerate inputs, long-run stability, and interleavings that the
// per-module tests do not reach.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/dyadic_interval.h"
#include "core/factory.h"
#include "core/logarithmic_method.h"
#include "core/window_sampler.h"
#include "eval/cov_err.h"
#include "eval/harness.h"
#include "data/synthetic.h"
#include "stream/window_buffer.h"
#include "util/random.h"

namespace swsketch {
namespace {

std::vector<double> RandomRow(Rng* rng, size_t d) {
  std::vector<double> r(d);
  for (auto& v : r) v = rng->Gaussian();
  return r;
}

TEST(MatrixRobustness, ShapePreconditionsDie) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_DEATH(a.Multiply(b), "");  // 3 != 2.
  Matrix sq(3, 3);
  std::vector<double> wrong(2, 1.0);
  EXPECT_DEATH(sq.AddOuterProduct(wrong), "");
  Matrix other(3, 3);
  EXPECT_DEATH(a.AddScaled(other, 1.0), "");
  EXPECT_DEATH(a.Subtract(other), "");
  EXPECT_DEATH(a.TruncateRows(5), "");
}

TEST(MatrixRobustness, ApplyShapeChecked) {
  Matrix a(2, 3);
  std::vector<double> x(3), y(3);  // y should have 2 entries.
  EXPECT_DEATH(a.Apply(x, y), "");
}

TEST(SketchRobustness, AllZeroStreamIsHandled) {
  // Zero rows carry no information; sketches must neither crash nor
  // produce garbage.
  for (const char* algo : {"swr", "swor", "lm-fd", "di-fd"}) {
    SketchConfig config;
    config.algorithm = algo;
    config.ell = 4;
    config.max_norm_sq = 4.0;
    auto sketch = MakeSlidingWindowSketch(3, WindowSpec::Sequence(10), config);
    ASSERT_TRUE(sketch.ok()) << algo;
    std::vector<double> zero(3, 0.0);
    for (int i = 0; i < 50; ++i) (*sketch)->Update(zero, i);
    Matrix b = (*sketch)->Query();
    EXPECT_NEAR(b.FrobeniusNormSq(), 0.0, 1e-12) << algo;
  }
}

TEST(SketchRobustness, SingleRowWindow) {
  for (const char* algo : {"swr", "swor", "lm-fd", "di-fd", "exact"}) {
    SketchConfig config;
    config.algorithm = algo;
    config.ell = 4;
    config.max_norm_sq = 16.0;
    config.levels = 2;
    auto sketch = MakeSlidingWindowSketch(3, WindowSpec::Sequence(1), config);
    ASSERT_TRUE(sketch.ok()) << algo;
    Rng rng(1);
    for (int i = 0; i < 30; ++i) (*sketch)->Update(RandomRow(&rng, 3), i);
    std::vector<double> last{1.0, 2.0, 3.0};
    (*sketch)->Update(last, 30);
    // The window is exactly {last}: B^T B should be close to last^T last.
    Matrix a(0, 3);
    a.AppendRow(last);
    EXPECT_LT(CovarianceErrorDense(a, (*sketch)->Query()), 0.6) << algo;
  }
}

TEST(SketchRobustness, VeryLongRunStaysBounded) {
  // 60k updates into a small window: space stays bounded, no drift.
  LmFd lm(4, WindowSpec::Sequence(64), LmFd::Options{.ell = 8});
  WindowSampler swr(4, WindowSpec::Sequence(64),
                    WindowSampler::Options{.ell = 8});
  Rng rng(2);
  size_t lm_max = 0, swr_max = 0;
  for (int i = 0; i < 60000; ++i) {
    auto row = RandomRow(&rng, 4);
    lm.Update(row, i);
    swr.Update(row, i);
    lm_max = std::max(lm_max, lm.RowsStored());
    swr_max = std::max(swr_max, swr.RowsStored());
  }
  lm.CheckInvariants();
  EXPECT_LT(lm_max, 600u);
  EXPECT_LT(swr_max, 400u);
  EXPECT_GT(lm.Query().rows(), 0u);
  EXPECT_GT(swr.Query().rows(), 0u);
}

TEST(SketchRobustness, AdvanceToIdempotent) {
  LmFd lm(3, WindowSpec::Time(10.0), LmFd::Options{.ell = 4});
  std::vector<double> row{1.0, 0.0, 0.0};
  lm.Update(row, 0.0);
  lm.AdvanceTo(5.0);
  lm.AdvanceTo(5.0);
  lm.AdvanceTo(5.0);
  EXPECT_EQ(lm.Query().rows(), 1u);
  EXPECT_DEATH(lm.AdvanceTo(4.0), "");  // Time cannot go backwards.
}

TEST(SketchRobustness, QueryIsRepeatable) {
  // Querying twice without updates returns the same approximation.
  for (const char* algo : {"swr", "swor", "lm-fd", "di-fd"}) {
    SketchConfig config;
    config.algorithm = algo;
    config.ell = 8;
    config.max_norm_sq = 20.0;
    auto sketch =
        MakeSlidingWindowSketch(5, WindowSpec::Sequence(50), config);
    ASSERT_TRUE(sketch.ok());
    Rng rng(3);
    for (int i = 0; i < 200; ++i) (*sketch)->Update(RandomRow(&rng, 5), i);
    Matrix b1 = (*sketch)->Query();
    Matrix b2 = (*sketch)->Query();
    EXPECT_TRUE(b1.ApproxEquals(b2, 0.0)) << algo;
  }
}

TEST(SketchRobustness, InterleavedQueriesDoNotPerturbState) {
  // Querying after every update must not change the final result compared
  // to querying once at the end.
  Rng rng(4);
  LmFd quiet(6, WindowSpec::Sequence(100), LmFd::Options{.ell = 8});
  LmFd noisy(6, WindowSpec::Sequence(100), LmFd::Options{.ell = 8});
  for (int i = 0; i < 500; ++i) {
    auto row = RandomRow(&rng, 6);
    quiet.Update(row, i);
    noisy.Update(row, i);
    if (i % 7 == 0) (void)noisy.Query();
  }
  EXPECT_TRUE(quiet.Query().ApproxEquals(noisy.Query(), 1e-12));
}

TEST(HarnessRobustness, NoTimingMode) {
  SyntheticStream stream(SyntheticStream::Options{
      .rows = 500, .dim = 6, .signal_dim = 2, .window = 100});
  SketchConfig config;
  config.algorithm = "lm-fd";
  config.ell = 8;
  auto sketch = MakeSlidingWindowSketch(6, WindowSpec::Sequence(100), config);
  ASSERT_TRUE(sketch.ok());
  HarnessOptions options;
  options.num_checkpoints = 2;
  options.total_rows = 500;
  options.measure_update_time = false;
  HarnessResult r = RunSketch(&stream, sketch->get(), options);
  EXPECT_EQ(r.avg_update_ns, 0.0);
  EXPECT_GT(r.checkpoints.size(), 0u);
}

TEST(WindowBufferRobustness, AdvanceWithoutAdds) {
  WindowBuffer buf(WindowSpec::Time(5.0));
  buf.AdvanceTo(100.0);
  EXPECT_TRUE(buf.empty());
  buf.Add(Row({1.0}, 100.0));
  buf.AdvanceTo(104.9);
  EXPECT_EQ(buf.size(), 1u);
  buf.AdvanceTo(105.1);
  EXPECT_TRUE(buf.empty());
}

TEST(GeneratorRobustness, AllGeneratorsAreDeterministic) {
  auto drain_checksum = [](RowStream* s) {
    double acc = 0.0;
    while (auto row = s->Next()) acc += row->NormSq() + row->ts;
    return acc;
  };
  SyntheticStream s1(SyntheticStream::Options{.rows = 200, .dim = 10,
                                              .signal_dim = 3, .seed = 9});
  SyntheticStream s2(SyntheticStream::Options{.rows = 200, .dim = 10,
                                              .signal_dim = 3, .seed = 9});
  EXPECT_EQ(drain_checksum(&s1), drain_checksum(&s2));
}

TEST(SworRobustness, EllOneWorks) {
  WindowSampler sketch(
      3, WindowSpec::Sequence(20),
      WindowSampler::Options{
          .ell = 1, .scheme = WindowSampler::Scheme::kSwor, .seed = 5});
  Rng rng(6);
  for (int i = 0; i < 100; ++i) sketch.Update(RandomRow(&rng, 3), i);
  EXPECT_EQ(sketch.Query().rows(), 1u);
  EXPECT_LE(sketch.RowsStored(), 30u);
}

TEST(DiRobustness, WindowLargerThanStreamSoFar) {
  DiFd sketch(4, DiFd::Options{.levels = 3, .window_size = 100000,
                               .max_norm_sq = 20.0, .ell_top = 8});
  Rng rng(7);
  WindowBuffer buffer(WindowSpec::Sequence(100000));
  for (int i = 0; i < 300; ++i) {
    auto row = RandomRow(&rng, 4);
    sketch.Update(row, i);
    buffer.Add(Row(row, i));
  }
  // Window covers everything seen so far.
  EXPECT_LT(CovarianceError(buffer.GramMatrix(4), buffer.FrobeniusNormSq(),
                            sketch.Query()),
            0.5);
}

}  // namespace
}  // namespace swsketch

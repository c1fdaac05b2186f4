// Non-finite rows: every backend that weighs rows by their squared norm
// handles a row whose squared norm is not finite (a NaN or infinite
// entry, or entries whose squares overflow) exactly like an all-zero row.
// A twin fed a zero row in its place must end in the same bytes, on the
// per-row and the batch path alike, and the row counts once in
// ingest.rows_rejected. The exact oracles keep such rows as given.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

constexpr size_t kDim = 8;
constexpr size_t kRows = 600;
constexpr size_t kBadRow = 100;
constexpr size_t kBlock = 32;

std::unique_ptr<SlidingWindowSketch> Make(const std::string& algo) {
  SketchConfig config;
  config.algorithm = algo;
  config.ell = 8;
  config.levels = 4;
  config.max_norm_sq = 16.0;
  config.seed = 3;
  auto made =
      MakeSlidingWindowSketch(kDim, WindowSpec::Sequence(200), config);
  EXPECT_TRUE(made.ok()) << algo << ": " << made.status().ToString();
  return made.ok() ? made.take() : nullptr;
}

void Feed(SlidingWindowSketch* sketch, const Matrix& rows, bool batch) {
  std::vector<double> ts(rows.rows());
  for (size_t i = 0; i < ts.size(); ++i) ts[i] = static_cast<double>(i);
  if (!batch) {
    for (size_t i = 0; i < rows.rows(); ++i) {
      sketch->Update(rows.Row(i), ts[i]);
    }
    return;
  }
  for (size_t begin = 0; begin < rows.rows(); begin += kBlock) {
    const size_t n = std::min(kBlock, rows.rows() - begin);
    Matrix block(0, kDim);
    for (size_t i = begin; i < begin + n; ++i) block.AppendRow(rows.Row(i));
    sketch->UpdateBatch(block,
                        std::span<const double>(ts).subspan(begin, n));
  }
}

// The sketch's SerializeTo payload, or its Query() answer for backends
// that cannot serialize.
std::vector<uint8_t> FinalBytes(SlidingWindowSketch* sketch) {
  ByteWriter payload;
  if (sketch->SerializeTo(&payload).ok()) return payload.bytes();
  const Matrix q = sketch->Query();
  ByteWriter answer;
  answer.Put<uint64_t>(q.rows());
  for (double v : q.Data()) answer.Put(v);
  return answer.bytes();
}

uint64_t RowsRejected() {
  return MetricsRegistry::Global()
      .GetCounter("ingest.rows_rejected")
      ->Value();
}

Matrix GaussianRows() {
  Rng rng(17);
  Matrix rows(kRows, kDim);
  for (double& v : rows.Data()) v = rng.Gaussian();
  return rows;
}

Matrix WithRow(Matrix rows, size_t i, double value) {
  for (size_t j = 0; j < kDim; ++j) rows(i, j) = value;
  return rows;
}

class NonFiniteRows
    : public ::testing::TestWithParam<std::tuple<std::string, double, bool>> {
};

TEST_P(NonFiniteRows, MatchTheZeroRowTwin) {
  const auto [algo, bad, batch] = GetParam();
  const Matrix rows = GaussianRows();
  auto zero_twin = Make(algo);
  auto bad_twin = Make(algo);
  ASSERT_TRUE(zero_twin && bad_twin);
  Feed(zero_twin.get(), WithRow(rows, kBadRow, 0.0), batch);
  const uint64_t rejected0 = RowsRejected();
  Feed(bad_twin.get(), WithRow(rows, kBadRow, bad), batch);
  EXPECT_EQ(RowsRejected() - rejected0, 1u);
  EXPECT_EQ(bad_twin->RowsStored(), zero_twin->RowsStored());
  EXPECT_EQ(FinalBytes(bad_twin.get()), FinalBytes(zero_twin.get()));
}

INSTANTIATE_TEST_SUITE_P(
    WeighingBackends, NonFiniteRows,
    ::testing::Combine(
        ::testing::Values("swr", "swor", "swor-all", "lm-fd", "lm-hash",
                          "lm-rp", "di-fd", "di-rp", "di-hash", "ds-fd",
                          "amm-co-fd", "amm-lm-fd", "amm-di-fd"),
        ::testing::Values(std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(), 1e200),
        ::testing::Bool()));

TEST(NonFiniteRowsOracle, ExactWindowKeepsTheRowAsGiven) {
  auto exact = Make("exact");
  ASSERT_TRUE(exact);
  const uint64_t rejected0 = RowsRejected();
  Feed(exact.get(),
       WithRow(GaussianRows(), kRows - 1,
               std::numeric_limits<double>::quiet_NaN()),
       /*batch=*/false);
  EXPECT_EQ(RowsRejected(), rejected0);
  EXPECT_EQ(exact->RowsStored(), 200u);
  EXPECT_TRUE(std::isnan(exact->Query().FrobeniusNormSq()));
}

}  // namespace
}  // namespace swsketch

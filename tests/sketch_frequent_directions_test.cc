// Tests for the Frequent Directions streaming sketch, including the
// theoretical error bound and mergeability (Section 6.1).
#include "sketch/frequent_directions.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/cov_err.h"
#include "linalg/power_iteration.h"
#include "linalg/svd.h"
#include "linalg/tridiag_eigen.h"
#include "util/metrics.h"
#include "util/random.h"

namespace swsketch {
namespace {

Matrix RandomMatrix(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Gaussian();
  }
  return m;
}

// Absolute covariance error ||A^T A - B^T B||_2.
double AbsCovErr(const Matrix& a, const Matrix& b) {
  Matrix diff = a.Gram();
  for (size_t i = 0; i < b.rows(); ++i) diff.AddOuterProduct(b.Row(i), -1.0);
  return SpectralNormSymmetric(diff);
}

// Reference FD (buffer factor 1, paper shrink position ceil(ell / 2)) that
// shrinks through a full ThinSvd of the buffer and rebuilds the survivors
// from sigma and V: the textbook shrink the Gram-eigen one must match.
class ThinSvdFd {
 public:
  ThinSvdFd(size_t dim, size_t ell)
      : ell_(ell), shrink_rank_((ell + 1) / 2), b_(0, dim) {}

  void Append(std::span<const double> row) {
    if (b_.rows() == ell_) Shrink();
    b_.AppendRow(row);
  }

  const Matrix& approximation() const { return b_; }
  size_t shrink_count() const { return shrink_count_; }
  double shed_mass() const { return shed_mass_; }

 private:
  void Shrink() {
    const SvdResult svd = ThinSvd(b_);
    ++shrink_count_;
    const size_t r = svd.singular_values.size();
    const double lambda = shrink_rank_ <= r
                              ? svd.singular_values[shrink_rank_ - 1] *
                                    svd.singular_values[shrink_rank_ - 1]
                              : 0.0;
    b_.TruncateRows(0);
    for (size_t i = 0; i < r && b_.rows() < ell_; ++i) {
      const double s2 =
          svd.singular_values[i] * svd.singular_values[i] - lambda;
      if (s2 <= 0.0) break;  // Singular values are descending.
      b_.AppendRowScaled(svd.vt.Row(i), std::sqrt(s2));
    }
    if (lambda > 0.0) shed_mass_ += lambda;
  }

  size_t ell_;
  size_t shrink_rank_;
  Matrix b_;
  size_t shrink_count_ = 0;
  double shed_mass_ = 0.0;
};

TEST(FrequentDirectionsTest, FewRowsExact) {
  // With fewer rows than ell, no shrink happens: B^T B = A^T A exactly.
  FrequentDirections fd(6, 10);
  Matrix a = RandomMatrix(8, 6, 1);
  fd.AppendMatrix(a);
  EXPECT_EQ(fd.RowsStored(), 8u);
  EXPECT_NEAR(AbsCovErr(a, fd.Approximation()), 0.0, 1e-9);
  EXPECT_EQ(fd.shed_mass(), 0.0);
}

TEST(FrequentDirectionsTest, BoundedRows) {
  FrequentDirections fd(10, 8);
  Matrix a = RandomMatrix(200, 10, 2);
  fd.AppendMatrix(a);
  EXPECT_LE(fd.RowsStored(), 8u);
}

TEST(FrequentDirectionsTest, ErrorWithinShedMass) {
  // Invariant of the FD analysis: ||A^T A - B^T B|| <= shed_mass.
  FrequentDirections fd(12, 10);
  Matrix a = RandomMatrix(300, 12, 3);
  fd.AppendMatrix(a);
  const double err = AbsCovErr(a, fd.Approximation());
  EXPECT_LE(err, fd.shed_mass() * (1.0 + 1e-9) + 1e-9);
}

TEST(FrequentDirectionsTest, ShedMassBound) {
  // shed_mass <= ||A||_F^2 / shrink_rank (each shrink subtracting lambda
  // removes at least shrink_rank * lambda of Frobenius mass).
  const size_t ell = 10;
  FrequentDirections fd(12, ell);
  Matrix a = RandomMatrix(400, 12, 4);
  fd.AppendMatrix(a);
  const double budget =
      a.FrobeniusNormSq() / static_cast<double>(fd.shrink_rank());
  EXPECT_LE(fd.shed_mass(), budget * (1.0 + 1e-9));
}

TEST(FrequentDirectionsTest, CovaErrBoundTwoOverEll) {
  // Paper form: cova-err <= 2 / ell (shrink at ell/2).
  const size_t ell = 16;
  FrequentDirections fd(20, ell);
  Matrix a = RandomMatrix(500, 20, 5);
  fd.AppendMatrix(a);
  const double err = CovarianceErrorDense(a, fd.Approximation());
  EXPECT_LE(err, 2.0 / (ell / 2.0) + 1e-9);
}

TEST(FrequentDirectionsTest, InputMassTracked) {
  FrequentDirections fd(5, 4);
  Matrix a = RandomMatrix(50, 5, 6);
  fd.AppendMatrix(a);
  EXPECT_NEAR(fd.input_mass(), a.FrobeniusNormSq(), 1e-9);
}

TEST(FrequentDirectionsTest, LowRankInputIsExact) {
  // A rank-2 stream sketched with ell >= 5 loses nothing: the shrink
  // subtracts sigma_{ell/2} = 0.
  Rng rng(7);
  Matrix basis = RandomMatrix(2, 15, 8);
  FrequentDirections fd(15, 10);
  Matrix a(0, 15);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> row(15, 0.0);
    const double c0 = rng.Gaussian(), c1 = rng.Gaussian();
    for (size_t j = 0; j < 15; ++j) {
      row[j] = c0 * basis(0, j) + c1 * basis(1, j);
    }
    a.AppendRow(row);
    fd.Append(row, 0);
  }
  EXPECT_NEAR(AbsCovErr(a, fd.Approximation()), 0.0,
              1e-7 * a.FrobeniusNormSq());
  EXPECT_EQ(fd.shed_mass(), 0.0);
}

TEST(FrequentDirectionsTest, MergePreservesSizeBound) {
  FrequentDirections fd1(10, 8), fd2(10, 8);
  fd1.AppendMatrix(RandomMatrix(100, 10, 9));
  fd2.AppendMatrix(RandomMatrix(120, 10, 10));
  fd1.MergeWith(fd2);
  EXPECT_LE(fd1.RowsStored(), 8u);
}

TEST(FrequentDirectionsTest, MergeErrorWithinCombinedBudget) {
  // Mergeability (Section 6.1): the merged sketch approximates [A1; A2]
  // within the summed shed budgets.
  const size_t ell = 12;
  Matrix a1 = RandomMatrix(150, 14, 11);
  Matrix a2 = RandomMatrix(170, 14, 12);
  FrequentDirections fd1(14, ell), fd2(14, ell);
  fd1.AppendMatrix(a1);
  fd2.AppendMatrix(a2);
  fd1.MergeWith(fd2);

  const Matrix stacked = a1.VStack(a2);
  const double err = AbsCovErr(stacked, fd1.Approximation());
  EXPECT_LE(err, fd1.shed_mass() * (1.0 + 1e-9));
  // And the paper-level bound relative to total mass.
  const double rel = err / stacked.FrobeniusNormSq();
  EXPECT_LE(rel, 2.0 / (ell / 2.0));
}

TEST(FrequentDirectionsTest, MergeWithEmpty) {
  FrequentDirections fd1(6, 4), fd2(6, 4);
  Matrix a = RandomMatrix(30, 6, 13);
  fd1.AppendMatrix(a);
  fd1.MergeWith(fd2);  // No-op merge.
  EXPECT_LE(AbsCovErr(a, fd1.Approximation()),
            fd1.shed_mass() + 1e-9);
}

TEST(FrequentDirectionsTest, CustomShrinkRank) {
  FrequentDirections fd(8, FrequentDirections::Options{.ell = 8,
                                                       .shrink_rank = 8});
  EXPECT_EQ(fd.shrink_rank(), 8u);
  Matrix a = RandomMatrix(100, 8, 14);
  fd.AppendMatrix(a);
  EXPECT_LE(fd.RowsStored(), 8u);
}

TEST(FrequentDirectionsTest, BufferFactorPreservesErrorGuarantee) {
  // Amortized shrinking must not weaken the FD analysis: with any
  // buffer_factor the observed error stays within shed_mass, and shed_mass
  // stays within ||A||_F^2 / shrink_rank.
  const size_t ell = 12;
  Matrix a = RandomMatrix(500, 16, 21);
  for (double factor : {1.0, 1.5, 2.0, 4.0}) {
    FrequentDirections fd(
        16, FrequentDirections::Options{.ell = ell, .buffer_factor = factor});
    fd.AppendMatrix(a);
    EXPECT_LE(fd.RowsStored(), fd.buffer_capacity());
    const double err = AbsCovErr(a, fd.Approximation());
    EXPECT_LE(err, fd.shed_mass() * (1.0 + 1e-9) + 1e-9) << factor;
    const double budget =
        a.FrobeniusNormSq() / static_cast<double>(fd.shrink_rank());
    EXPECT_LE(fd.shed_mass(), budget * (1.0 + 1e-9)) << factor;
  }
}

TEST(FrequentDirectionsTest, BufferFactorAmortizesShrinks) {
  const size_t ell = 16;
  Matrix a = RandomMatrix(600, 20, 22);
  FrequentDirections eager(
      20, FrequentDirections::Options{.ell = ell, .buffer_factor = 1.0});
  FrequentDirections buffered(
      20, FrequentDirections::Options{.ell = ell, .buffer_factor = 2.0});
  eager.AppendMatrix(a);
  buffered.AppendMatrix(a);
  EXPECT_EQ(buffered.buffer_capacity(), 2 * ell);
  // Roughly (2*ell - r + 1) / (ell - r + 1) ~ 3x fewer SVDs at factor 2.
  EXPECT_LT(buffered.shrink_count(), eager.shrink_count());
  EXPECT_GT(buffered.shrink_count(), 0u);
}

TEST(FrequentDirectionsTest, ShrinkNowCompactsBuffer) {
  FrequentDirections fd(
      10, FrequentDirections::Options{.ell = 6, .buffer_factor = 2.0});
  fd.AppendMatrix(RandomMatrix(11, 10, 23));  // Fills past ell, below 2*ell.
  EXPECT_GT(fd.RowsStored(), 6u);
  fd.ShrinkNow();
  EXPECT_LT(fd.RowsStored(), 6u + 1u);
}

TEST(FrequentDirectionsTest, GramEigenMatchesThinSvdWideRoute) {
  // The Gram-eigen shrink reproduces the ThinSvd shrink's arithmetic on
  // the wide (rows <= dim) route: same Gram, same eigensolver, same
  // normalization — only the U/V recovery is skipped. Drive both through
  // hundreds of shrinks and compare the surviving buffers.
  const size_t d = 64, n = 2000;
  Matrix a = RandomMatrix(n, d, 31);
  FrequentDirections gram_eigen(d, FrequentDirections::Options{.ell = 16});
  ThinSvdFd thinsvd(d, 16);
  for (size_t i = 0; i < n; ++i) {
    gram_eigen.Append(a.Row(i), i);
    thinsvd.Append(a.Row(i));
  }
  EXPECT_EQ(gram_eigen.shrink_count(), thinsvd.shrink_count());
  EXPECT_NEAR(gram_eigen.shed_mass(), thinsvd.shed_mass(),
              1e-9 * thinsvd.shed_mass());
  const double err_ge = AbsCovErr(a, gram_eigen.Approximation());
  const double err_ts = AbsCovErr(a, thinsvd.approximation());
  EXPECT_NEAR(err_ge, err_ts, 1e-9 * std::max(err_ts, 1.0));
  EXPECT_LT(gram_eigen.Approximation().MaxAbsDiff(thinsvd.approximation()),
            1e-7);
}

TEST(FrequentDirectionsTest, GramEigenMatchesThinSvdTallRoute) {
  // capacity > dim forces the tall (Gram = B^T B) route in both shrinks.
  const size_t d = 8, n = 400;
  Matrix a = RandomMatrix(n, d, 37);
  FrequentDirections gram_eigen(d, FrequentDirections::Options{.ell = 12});
  ThinSvdFd thinsvd(d, 12);
  for (size_t i = 0; i < n; ++i) {
    gram_eigen.Append(a.Row(i), i);
    thinsvd.Append(a.Row(i));
  }
  EXPECT_EQ(gram_eigen.shrink_count(), thinsvd.shrink_count());
  const double err_ge = AbsCovErr(a, gram_eigen.Approximation());
  const double err_ts = AbsCovErr(a, thinsvd.approximation());
  EXPECT_NEAR(err_ge, err_ts, 1e-9 * std::max(err_ts, 1.0));
  EXPECT_LT(gram_eigen.Approximation().MaxAbsDiff(thinsvd.approximation()),
            1e-7);
}

TEST(FrequentDirectionsTest, GramEigenExactOnLowRankStream) {
  // Adversarial low-rank input: every row lies in a rank-3 subspace. With
  // ell > 2 * 3 the shrink position sigma_{ell/2} is always past the
  // numerical rank, so lambda = 0 on every shrink: the Gram-eigen backend
  // must shed nothing and keep the covariance exact.
  const size_t d = 40, rank = 3, n = 500;
  Matrix basis = RandomMatrix(rank, d, 41);
  Rng rng(43);
  Matrix a(0, d);
  a.ReserveRows(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(d, 0.0);
    for (size_t k = 0; k < rank; ++k) {
      const double c = rng.Gaussian();
      for (size_t j = 0; j < d; ++j) row[j] += c * basis(k, j);
    }
    a.AppendRow(row);
  }
  FrequentDirections fd(d, FrequentDirections::Options{.ell = 16});
  fd.AppendMatrix(a);
  EXPECT_GT(fd.shrink_count(), 0u);
  EXPECT_EQ(fd.shed_mass(), 0.0);
  const double scale = a.FrobeniusNormSq();
  EXPECT_NEAR(AbsCovErr(a, fd.Approximation()), 0.0, 1e-9 * scale);
}

TEST(FrequentDirectionsTest, BufferedGramEigenKeepsShedMassBound) {
  // The amortized buffer must not weaken the guarantee under the
  // Gram-eigen backend: shed_mass <= ||A||_F^2 / shrink_rank and the
  // covariance error stays within shed_mass, in the narrow regime where
  // buffered shrinks replay per-row appends.
  const size_t d = 24;
  FrequentDirections fd(
      d, FrequentDirections::Options{.ell = 8, .buffer_factor = 2.0});
  Matrix a = RandomMatrix(500, d, 47);
  for (size_t i = 0; i < a.rows(); ++i) fd.Append(a.Row(i), i);
  EXPECT_GT(fd.shrink_count(), 0u);
  EXPECT_LE(fd.shed_mass(),
            fd.input_mass() / static_cast<double>(fd.shrink_rank()) *
                (1.0 + 1e-9));
  const double err = AbsCovErr(a, fd.Approximation());
  EXPECT_LE(err, fd.shed_mass() * (1.0 + 1e-9) + 1e-9);
}

// Every row a shrink keeps must carry real mass. The rank-th direction,
// where lambda = sigma^2 itself, has sigma^2 - lambda = 0; if the build
// fuses sigma * sigma - lambda into one FMA, that difference becomes the
// rounding error of sigma^2 (~4e-16 relative) and a zero row survives,
// taking a slot of the row budget.
TEST(FrequentDirectionsTest, ShrinkKeepsNoNearZeroRows) {
  constexpr size_t kD = 200;
  constexpr size_t kEll = 32;
  Matrix a = RandomMatrix(400, kD, 21);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < kD; ++j) a(i, j) *= std::pow(0.97, j);
  }
  FrequentDirections fd(kD, kEll);
  size_t checked = 0;
  for (size_t i = 0; i < a.rows(); ++i) {
    double lambda_max = 0.0;
    if (fd.RowsStored() == fd.buffer_capacity()) {
      lambda_max = TridiagEigen(fd.Approximation().GramOuter()).eigenvalues[0];
    }
    const size_t shrinks = fd.shrink_count();
    fd.Append(a.Row(i), i);
    if (fd.shrink_count() == shrinks) continue;
    // The shrink ran before row i went in: all rows but the last survived.
    const Matrix b = fd.Approximation();
    for (size_t r = 0; r + 1 < b.rows(); ++r) {
      const auto row = b.Row(r);
      double norm_sq = 0.0;
      for (double v : row) norm_sq += v * v;
      EXPECT_GT(norm_sq, 1e-12 * lambda_max)
          << "shrink " << fd.shrink_count() << ", row " << r << " of "
          << b.rows();
    }
    ++checked;
  }
  EXPECT_GE(checked, 20u);
}

// Scaling every input row by 2^e scales B^T B by exactly 2^(2e) in exact
// arithmetic. At e = +-450 the shrink's Gram sits near 2^+-900, where the
// eigensolver's rotation radii would overflow or underflow without its
// power-of-two rescaling; Append and MergeWith must stay equivariant
// there, on both the wide (d = 200) and the tall (d = 8 merge) route.
TEST(FrequentDirectionsTest, AppendAndMergeAreScaleEquivariant) {
  for (size_t d : {size_t{8}, size_t{200}}) {
    const size_t ell = d == 8 ? 6 : 32;
    const Matrix a = RandomMatrix(300, d, 31 + d);
    const auto sketch = [&](int e, size_t begin, size_t end) {
      FrequentDirections fd(d, ell);
      std::vector<double> row(d);
      for (size_t i = begin; i < end; ++i) {
        for (size_t j = 0; j < d; ++j) row[j] = std::ldexp(a(i, j), e);
        fd.Append(row, i);
      }
      return fd;
    };
    // ||2^(-2e) B_e^T B_e - B^T B||_F / ||B^T B||_F.
    const auto distance = [](const FrequentDirections& scaled, int e,
                             const FrequentDirections& unit) {
      Matrix back = scaled.Approximation().Gram();
      for (double& v : back.Data()) v = std::ldexp(v, -2 * e);
      const Matrix want = unit.Approximation().Gram();
      return std::sqrt(back.Subtract(want).FrobeniusNormSq() /
                       want.FrobeniusNormSq());
    };
    FrequentDirections unit = sketch(0, 0, 150);
    const FrequentDirections unit_other = sketch(0, 150, 300);
    for (int e : {450, -450}) {
      SCOPED_TRACE(testing::Message() << "d=" << d << " e=" << e);
      FrequentDirections scaled = sketch(e, 0, 150);
      ASSERT_GT(scaled.shrink_count(), 0u);
      EXPECT_LE(distance(scaled, e, unit), 1e-12) << "Append";
      FrequentDirections merged = unit;
      merged.MergeWith(unit_other);
      scaled.MergeWith(sketch(e, 150, 300));
      EXPECT_LE(distance(scaled, e, merged), 1e-12) << "MergeWith";
    }
  }
}

uint64_t MergeRouteCount(const std::string& route) {
  return MetricsRegistry::Global()
      .GetCounter("fd.merge_route_" + route)
      ->Value();
}

// One FD sketch per entry of `rows_per_part`, each fed its own Gaussian
// rows; the inputs, stacked in part order, go to *stacked.
std::vector<FrequentDirections> MakeParts(
    size_t d, FrequentDirections::Options options,
    const std::vector<size_t>& rows_per_part, uint64_t seed,
    Matrix* stacked) {
  std::vector<FrequentDirections> parts;
  *stacked = Matrix(0, d);
  for (size_t i = 0; i < rows_per_part.size(); ++i) {
    const Matrix a = RandomMatrix(rows_per_part[i], d, seed + i);
    parts.emplace_back(d, options);
    parts.back().AppendMatrix(a);
    *stacked = stacked->VStack(a);
  }
  return parts;
}

std::vector<const FrequentDirections*> Pointers(
    const std::vector<FrequentDirections>& parts) {
  std::vector<const FrequentDirections*> out;
  for (const FrequentDirections& p : parts) out.push_back(&p);
  return out;
}

TEST(FrequentDirectionsTest, MergeAllKeepsTheFdGuaranteeOnBothRoutes) {
  // Whichever route MergeAll takes, the result is an FD sketch of the
  // stacked inputs: B^T B <= A^T A, ||A^T A - B^T B||_2 <= shed_mass(), at
  // most ell rows, and input_mass() is the parts' sum.
  const struct {
    const char* route;
    size_t d;
    double buffer_factor;
    std::vector<size_t> rows;
  } kCases[] = {
      {"tall", 12, 1.0, {40, 40, 40, 40, 40, 40, 40, 40, 40}},
      {"tall", 16, 2.0, {5, 70, 33, 120, 9, 64, 1}},
      {"tree", 60, 1.0, {40, 40, 40, 40, 40, 40, 40, 40, 40}},
      {"tree", 90, 2.0, {5, 70, 33, 120, 9, 64, 1}},
  };
  const size_t ell = 8;
  uint64_t seed = 100;
  for (const auto& c : kCases) {
    SCOPED_TRACE(std::string(c.route) + " d=" + std::to_string(c.d));
    Matrix a;
    const std::vector<FrequentDirections> parts = MakeParts(
        c.d, {.ell = ell, .buffer_factor = c.buffer_factor}, c.rows,
        seed += 10, &a);
    double input = 0.0, shed = 0.0;
    for (const FrequentDirections& p : parts) {
      input += p.input_mass();
      shed += p.shed_mass();
    }
    const uint64_t before = MergeRouteCount(c.route);
    const FrequentDirections merged =
        FrequentDirections::MergeAll(Pointers(parts));
    EXPECT_EQ(MergeRouteCount(c.route) - before, 1u);

    EXPECT_LE(merged.RowsStored(), ell);
    EXPECT_NEAR(merged.input_mass(), input, 1e-12 * input);
    EXPECT_NEAR(merged.input_mass(), a.FrobeniusNormSq(), 1e-9 * input);
    EXPECT_GE(merged.shed_mass(), shed * (1.0 - 1e-12));
    Matrix diff = a.Gram();
    const Matrix b = merged.Approximation();
    for (size_t i = 0; i < b.rows(); ++i) diff.AddOuterProduct(b.Row(i), -1.0);
    const SymmetricEigen eig = TridiagEigen(diff);
    const double tol = 1e-10 * input;
    EXPECT_GE(eig.eigenvalues.back(), -tol);  // B^T B <= A^T A.
    EXPECT_LE(eig.eigenvalues.front(), merged.shed_mass() + tol);
  }
}

TEST(FrequentDirectionsTest, MergeAllRouteFollowsTheOpCount) {
  // 33 full parts (the live blocks behind a 32-merge LM cold query): one
  // tall shrink where d is small next to the stacked rows, the pairwise
  // tree where the d x d eigensolve would cost more than the tree's
  // 2ell x 2ell ones. The route never changes the FD guarantee, only the
  // cost; fewer than ell + 1 stacked rows never shrink and stay on the
  // tree.
  const struct {
    size_t d, ell;
    const char* route;
  } kGrid[] = {{8, 8, "tall"},     {35, 16, "tall"},   {150, 32, "tall"},
               {200, 32, "tall"},  {300, 64, "tall"},  {231, 16, "tree"},
               {300, 32, "tree"},  {1000, 32, "tree"}};
  for (const auto& cell : kGrid) {
    SCOPED_TRACE("d=" + std::to_string(cell.d) +
                 " ell=" + std::to_string(cell.ell));
    Matrix a;
    const std::vector<FrequentDirections> parts =
        MakeParts(cell.d, {.ell = cell.ell},
                  std::vector<size_t>(33, cell.ell), 7, &a);
    const uint64_t before = MergeRouteCount(cell.route);
    const FrequentDirections merged =
        FrequentDirections::MergeAll(Pointers(parts));
    EXPECT_EQ(MergeRouteCount(cell.route) - before, 1u);
    EXPECT_LE(merged.RowsStored(), cell.ell);
  }
  Matrix a;
  const std::vector<FrequentDirections> few =
      MakeParts(8, {.ell = 8}, {3, 2, 3}, 9, &a);
  const uint64_t before = MergeRouteCount("tree");
  const FrequentDirections merged =
      FrequentDirections::MergeAll(Pointers(few));
  EXPECT_EQ(MergeRouteCount("tree") - before, 1u);
  EXPECT_EQ(merged.Approximation().MaxAbsDiff(a), 0.0);  // Stacked as is.
}

TEST(FrequentDirectionsTest, RejectsBadConfig) {
  EXPECT_DEATH(FrequentDirections(4, 1), "");
  EXPECT_DEATH(FrequentDirections(
                   4, FrequentDirections::Options{.ell = 4, .shrink_rank = 5}),
               "");
}

TEST(FrequentDirectionsTest, RejectsWrongDim) {
  FrequentDirections fd(4, 4);
  std::vector<double> bad{1.0, 2.0};
  EXPECT_DEATH(fd.Append(bad, 0), "");
}

}  // namespace
}  // namespace swsketch

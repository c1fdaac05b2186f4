// Tests for the tridiagonalization + QL symmetric eigensolver, validated
// against the Jacobi reference.
#include "linalg/tridiag_eigen.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/timer.h"

namespace swsketch {
namespace {

Matrix RandomSymmetric(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double v = rng.Gaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

Matrix RandomPsd(size_t n, size_t inner, uint64_t seed) {
  Rng rng(seed);
  Matrix a(inner, n);
  for (size_t i = 0; i < inner; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng.Gaussian();
  }
  return a.Gram();
}

Matrix Reconstruct(const SymmetricEigen& eig) {
  const size_t n = eig.eigenvalues.size();
  Matrix m(n, n);
  for (size_t c = 0; c < n; ++c) {
    std::vector<double> v(n);
    for (size_t r = 0; r < n; ++r) v[r] = eig.eigenvectors(r, c);
    m.AddOuterProduct(v, eig.eigenvalues[c]);
  }
  return m;
}

TEST(TridiagEigenTest, MatchesJacobiEigenvalues) {
  for (size_t n : {2u, 5u, 17u, 40u, 80u}) {
    Matrix m = RandomSymmetric(n, 100 + n);
    SymmetricEigen tq = TridiagEigen(m);
    SymmetricEigen jc = JacobiEigen(m);
    ASSERT_EQ(tq.eigenvalues.size(), n);
    double scale = std::max(std::fabs(jc.eigenvalues.front()),
                            std::fabs(jc.eigenvalues.back()));
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(tq.eigenvalues[i], jc.eigenvalues[i], 1e-9 * scale)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(TridiagEigenTest, ReconstructsMatrix) {
  Matrix m = RandomSymmetric(33, 7);
  EXPECT_TRUE(Reconstruct(TridiagEigen(m)).ApproxEquals(m, 1e-9));
}

TEST(TridiagEigenTest, EigenvectorsOrthonormal) {
  SymmetricEigen eig = TridiagEigen(RandomSymmetric(25, 8));
  const Matrix& v = eig.eigenvectors;
  for (size_t a = 0; a < 25; ++a) {
    for (size_t b = 0; b < 25; ++b) {
      double dot = 0.0;
      for (size_t r = 0; r < 25; ++r) dot += v(r, a) * v(r, b);
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(TridiagEigenTest, SortedDescending) {
  SymmetricEigen eig = TridiagEigen(RandomSymmetric(30, 9));
  EXPECT_TRUE(
      std::is_sorted(eig.eigenvalues.rbegin(), eig.eigenvalues.rend()));
}

TEST(TridiagEigenTest, PsdStaysNonNegative) {
  SymmetricEigen eig = TridiagEigen(RandomPsd(40, 60, 10));
  for (double l : eig.eigenvalues) EXPECT_GE(l, -1e-8);
}

TEST(TridiagEigenTest, SmallSizesAndEdgeCases) {
  Matrix one{{5.0}};
  SymmetricEigen e1 = TridiagEigen(one);
  EXPECT_DOUBLE_EQ(e1.eigenvalues[0], 5.0);

  Matrix diag{{2, 0, 0}, {0, 3, 0}, {0, 0, 1}};
  SymmetricEigen ed = TridiagEigen(diag);
  EXPECT_NEAR(ed.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(ed.eigenvalues[2], 1.0, 1e-12);

  SymmetricEigen ez = TridiagEigen(Matrix(4, 4));
  for (double l : ez.eigenvalues) EXPECT_EQ(l, 0.0);
}

TEST(TridiagEigenTest, RepeatedEigenvalues) {
  Matrix m = Matrix::Identity(6);
  m.Scale(3.0);
  SymmetricEigen eig = TridiagEigen(m);
  for (double l : eig.eigenvalues) EXPECT_NEAR(l, 3.0, 1e-12);
  EXPECT_TRUE(Reconstruct(eig).ApproxEquals(m, 1e-10));
}

TEST(TridiagEigenTest, LowRankMatrix) {
  Matrix m = RandomPsd(30, 4, 11);  // Rank 4.
  SymmetricEigen eig = TridiagEigen(m);
  for (size_t i = 4; i < 30; ++i) {
    EXPECT_NEAR(eig.eigenvalues[i], 0.0, 1e-8 * eig.eigenvalues[0]);
  }
  EXPECT_TRUE(Reconstruct(eig).ApproxEquals(m, 1e-8));
}

TEST(TridiagEigenTest, MatchesJacobiOnPsdAcrossSizes) {
  for (size_t n : {4u, 8u, 32u, 33u, 100u}) {
    Matrix m = RandomPsd(n, n + 10, 200 + n);
    SymmetricEigen fast = TridiagEigen(m);
    SymmetricEigen ref = JacobiEigen(m);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(fast.eigenvalues[i], ref.eigenvalues[i],
                  1e-8 * std::max(1.0, ref.eigenvalues[0]));
    }
  }
}

TEST(TridiagEigenTest, FasterThanJacobiAtScale) {
  Matrix m = RandomPsd(200, 250, 12);
  Timer t1;
  TridiagEigen(m);
  const double tridiag_s = t1.ElapsedSeconds();
  Timer t2;
  JacobiEigen(m);
  const double jacobi_s = t2.ElapsedSeconds();
  // Not a strict perf assertion (CI noise), but tridiag should never be
  // dramatically slower; typically it is ~10x faster.
  EXPECT_LT(tridiag_s, jacobi_s * 1.5);
}

}  // namespace
}  // namespace swsketch

// Parameterized linear-algebra properties over a grid of shapes and
// seeds: decomposition identities that must hold for every input, and
// cross-solver consistency (Jacobi vs tridiagonal-QL vs Lanczos vs
// subspace iteration all agree on the same spectra).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/jacobi_eigen.h"
#include "linalg/power_iteration.h"
#include "linalg/simd.h"
#include "linalg/vector_ops.h"
#include "linalg/subspace_iteration.h"
#include "linalg/svd.h"
#include "linalg/tridiag_eigen.h"
#include "util/random.h"

namespace swsketch {
namespace {

Matrix RandomMatrix(size_t n, size_t d, uint64_t seed, double decay) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      m(i, j) = rng.Gaussian() / (1.0 + decay * static_cast<double>(j));
    }
  }
  return m;
}

class SvdShapeProperty
    : public ::testing::TestWithParam<
          std::tuple<size_t, size_t, uint64_t, double>> {};

TEST_P(SvdShapeProperty, DecompositionIdentities) {
  const auto [n, d, seed, decay] = GetParam();
  Matrix a = RandomMatrix(n, d, seed, decay);
  SvdResult svd = ThinSvd(a);

  // (1) Reconstruction: U diag(s) Vt == A.
  Matrix us = svd.u;
  for (size_t i = 0; i < us.rows(); ++i) {
    for (size_t c = 0; c < us.cols(); ++c) {
      us(i, c) *= svd.singular_values[c];
    }
  }
  const double scale = std::sqrt(a.FrobeniusNormSq()) + 1e-12;
  EXPECT_TRUE(us.Multiply(svd.vt).ApproxEquals(a, 1e-7 * scale))
      << "n=" << n << " d=" << d;

  // (2) Ordering and positivity.
  EXPECT_TRUE(std::is_sorted(svd.singular_values.rbegin(),
                             svd.singular_values.rend()));
  for (double s : svd.singular_values) EXPECT_GT(s, 0.0);

  // (3) Frobenius identity.
  double sum_sq = 0.0;
  for (double s : svd.singular_values) sum_sq += s * s;
  EXPECT_NEAR(sum_sq, a.FrobeniusNormSq(), 1e-7 * a.FrobeniusNormSq());

  // (4) Spectral norm consistency: sigma_1 == power-iteration estimate.
  if (!svd.singular_values.empty()) {
    EXPECT_NEAR(SpectralNorm(a), svd.singular_values[0],
                1e-4 * svd.singular_values[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeProperty,
    ::testing::Combine(::testing::Values(3, 10, 40),     // n
                       ::testing::Values(4, 15, 60),     // d
                       ::testing::Values(1u, 2u),        // seed
                       ::testing::Values(0.0, 0.4)));    // spectrum decay

class EigenSolverConsistency
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(EigenSolverConsistency, AllSolversAgree) {
  const auto [n, seed] = GetParam();
  Matrix gram = RandomMatrix(n + 7, n, seed, 0.2).Gram();

  const SymmetricEigen jacobi = JacobiEigen(gram);
  const SymmetricEigen tridiag = TridiagEigen(gram);
  const double scale = std::max(jacobi.eigenvalues[0], 1e-12);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(tridiag.eigenvalues[i], jacobi.eigenvalues[i], 1e-8 * scale)
        << "i=" << i;
  }
  // Lanczos spectral norm == lambda_1.
  EXPECT_NEAR(SpectralNormSymmetric(gram), jacobi.eigenvalues[0],
              1e-6 * scale);
  // Subspace iteration top-3 match.
  const TopEigen top = TopEigenpairsPsd(gram, std::min<size_t>(3, n));
  for (size_t i = 0; i < top.values.size(); ++i) {
    EXPECT_NEAR(top.values[i], jacobi.eigenvalues[i], 1e-5 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSolverConsistency,
                         ::testing::Combine(::testing::Values(2, 6, 20, 48,
                                                              90),
                                            ::testing::Values(3u, 4u)));

// The Gram every FD shrink eigendecomposes: G = B B^T of a wide buffer of
// n <= capacity rows in d = 150 columns, in the three shapes a buffer takes
// in a stream.
enum class FdBuffer { kRandom, kShrunkPlusNew, kRankDeficient };

Matrix FdBufferRows(FdBuffer kind, size_t n, uint64_t seed) {
  constexpr size_t kD = 150;
  switch (kind) {
    case FdBuffer::kRandom:
      return RandomMatrix(n, kD, seed, 0.05);
    case FdBuffer::kShrunkPlusNew: {
      // A shrink leaves mutually orthogonal rows sqrt(sigma_i^2 - lambda)
      // v_i^T; fresh rows are appended behind them until the next shrink.
      const size_t k = n / 2;
      const Matrix fresh = RandomMatrix(n, kD, seed, 0.0);
      Matrix b(0, kD);
      std::vector<std::vector<double>> basis;
      for (size_t i = 0; i < k; ++i) {
        std::vector<double> v(fresh.Row(i).begin(), fresh.Row(i).end());
        for (const std::vector<double>& u : basis) Axpy(-Dot(u, v), u, v);
        Normalize(v);
        basis.push_back(v);
        b.AppendRowScaled(v, std::sqrt(static_cast<double>(2 * (k - i))));
      }
      for (size_t i = k; i < n; ++i) b.AppendRow(fresh.Row(i));
      return b;
    }
    case FdBuffer::kRankDeficient: {
      const size_t r = std::max<size_t>(1, n / 3);
      return RandomMatrix(n, r, seed, 0.0)
          .Multiply(RandomMatrix(r, kD, seed + 1, 0.0));
    }
  }
  return Matrix(0, kD);
}

class FdGramEigenProperty
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

// TridiagEigen is the FD shrink's only eigensolver: on every FD-shaped Gram
// it must return a backward-stable decomposition (small residual, orthonormal
// eigenvectors) whose spectrum matches the Jacobi oracle.
TEST_P(FdGramEigenProperty, TridiagIsExactOnFdShapedGrams) {
  const auto [n, seed] = GetParam();
  SymmetricEigenScratch scratch;
  for (FdBuffer kind : {FdBuffer::kRandom, FdBuffer::kShrunkPlusNew,
                        FdBuffer::kRankDeficient}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const Matrix gram = FdBufferRows(kind, n, seed).GramOuter();
    const SymmetricEigen& eig = TridiagEigen(gram, &scratch);
    const SymmetricEigen oracle = JacobiEigen(gram);
    ASSERT_EQ(eig.eigenvalues.size(), n);
    const double norm = oracle.eigenvalues[0];  // ||G||_2: G is PSD.
    ASSERT_GT(norm, 0.0);

    std::vector<double> v(n), gv(n);
    double ortho_sq = 0.0;
    for (size_t c = 0; c < n; ++c) {
      for (size_t r = 0; r < n; ++r) v[r] = eig.eigenvectors(r, c);
      gram.Apply(v, gv);
      Axpy(-eig.eigenvalues[c], v, gv);
      EXPECT_LE(Norm(gv), 1e-12 * norm) << "residual, c=" << c;
      EXPECT_LE(std::fabs(eig.eigenvalues[c] - oracle.eigenvalues[c]),
                1e-10 * norm)
          << "eigenvalue, c=" << c;
      for (size_t c2 = 0; c2 < n; ++c2) {
        double dot = 0.0;
        for (size_t r = 0; r < n; ++r) dot += v[r] * eig.eigenvectors(r, c2);
        const double err = dot - (c == c2 ? 1.0 : 0.0);
        ortho_sq += err * err;
      }
    }
    EXPECT_LE(std::sqrt(ortho_sq), 1e-12) << "||V^T V - I||_F";
  }
}

// Scaling every row by 2^e scales the Gram by exactly 2^(2e). At e = +-450
// the Gram entries sit near 2^+-900, where the QL rotation radii
// sqrt(f^2 + g^2) would overflow or underflow without the solver's
// power-of-two rescaling of T; with it, the spectrum scales with the Gram.
TEST_P(FdGramEigenProperty, EigenvaluesScaleWithTheGram) {
  const auto [n, seed] = GetParam();
  for (FdBuffer kind : {FdBuffer::kRandom, FdBuffer::kShrunkPlusNew,
                        FdBuffer::kRankDeficient}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const Matrix rows = FdBufferRows(kind, n, seed);
    const std::vector<double> base = TridiagEigen(rows.GramOuter()).eigenvalues;
    const double norm = base[0];
    ASSERT_GT(norm, 0.0);
    for (int e : {450, -450}) {
      SCOPED_TRACE(e);
      Matrix scaled = rows;
      for (double& v : scaled.Data()) v = std::ldexp(v, e);
      const std::vector<double> got =
          TridiagEigen(scaled.GramOuter()).eigenvalues;
      ASSERT_EQ(got.size(), n);
      for (size_t c = 0; c < n; ++c) {
        ASSERT_TRUE(std::isfinite(got[c])) << "c=" << c;
        EXPECT_LE(std::fabs(std::ldexp(got[c], -2 * e) - base[c]),
                  1e-12 * norm)
            << "c=" << c;
      }
    }
  }
}

// The shrink kernels have one source compiled for the baseline ISA and as
// an AVX2 clone (linalg/simd.h); the library runs the best one the CPU
// has. Both must return the same bits, or results would depend on the
// host.
TEST_P(FdGramEigenProperty, BaselineAndAvx2ClonesAgreeBitwise) {
  if (!simd::Supported(simd::Target::kAvx2)) {
    GTEST_SKIP() << "this CPU has no AVX2";
  }
  const auto [n, seed] = GetParam();
  for (FdBuffer kind : {FdBuffer::kRandom, FdBuffer::kShrunkPlusNew,
                        FdBuffer::kRankDeficient}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const Matrix rows = FdBufferRows(kind, n, seed);
    Matrix gram[2];
    SymmetricEigenScratch scratch[2];
    const SymmetricEigen* eig[2];
    const simd::Target targets[2] = {simd::Target::kBaseline,
                                     simd::Target::kAvx2};
    const auto bytes_equal = [](std::span<const double> x,
                                std::span<const double> y) {
      return x.size() == y.size() &&
             std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
    };
    for (int t = 0; t < 2; ++t) {
      simd::GramOuterInto(rows, &gram[t], targets[t]);
      eig[t] = &simd::TridiagEigen(gram[t], &scratch[t], targets[t], n,
                                   simd::EigenStage::kAccumulated);
    }
    EXPECT_TRUE(bytes_equal(gram[0].Data(), gram[1].Data())) << "Gram";
    EXPECT_TRUE(bytes_equal(eig[0]->eigenvalues, eig[1]->eigenvalues))
        << "eigenvalues";
    EXPECT_TRUE(bytes_equal(eig[0]->eigenvectors.Data(),
                            eig[1]->eigenvectors.Data()))
        << "eigenvectors";
    // The kept-vector stage: inverse iteration and back-transform.
    const size_t count = std::max<size_t>(1, n / 4);
    for (int t = 0; t < 2; ++t) {
      eig[t] = &simd::TridiagEigen(gram[t], &scratch[t], targets[t], count,
                                   simd::EigenStage::kKeptVectors);
      EXPECT_TRUE(scratch[t].inverse_vectors);
    }
    EXPECT_TRUE(bytes_equal(eig[0]->eigenvalues, eig[1]->eigenvalues))
        << "kept-vector eigenvalues";
    EXPECT_TRUE(bytes_equal(eig[0]->eigenvectors.Data(),
                            eig[1]->eigenvectors.Data()))
        << "kept eigenvectors";
  }
}

INSTANTIATE_TEST_SUITE_P(FdSizes, FdGramEigenProperty,
                         ::testing::Combine(::testing::Range<size_t>(2, 33),
                                            ::testing::Values(5u, 6u)));
// The LM merge (2 ell rows), DS-FD frame and compress-stack sizes.
INSTANTIATE_TEST_SUITE_P(
    MergeSizes, FdGramEigenProperty,
    ::testing::Combine(::testing::Values<size_t>(33, 48, 63, 64, 65, 96, 128,
                                                 200),
                       ::testing::Values(5u, 6u)));

// Symmetric inputs that stress the kept-vector stage: exact and near
// multiplicities, split tridiagonals, rank deficiency, zero, and the
// ends of the exponent range.
enum class KeptInput {
  kRandom,          // An FD buffer Gram.
  kMultiplicity,    // I + R R^T, R n x 3: eigenvalue 1, n - 3 times.
  kTinyGaps,        // Leading half 1e-10 apart (relative).
  kBlockDiagonal,   // diag(A, A, C): a split tridiagonal, equal blocks.
  kRankDeficient,   // Rank n / 3.
  kZero,            // G = 0.
  kHuge,            // Rows scaled by 2^450.
  kTiny,            // Rows scaled by 2^-450.
};

// U diag(lambda) U^T for the orthonormal eigenvectors U of a random
// symmetric matrix.
Matrix WithSpectrum(const std::vector<double>& lambda, uint64_t seed) {
  const size_t n = lambda.size();
  const Matrix u =
      TridiagEigen(RandomMatrix(n, n, seed, 0.0).GramOuter()).eigenvectors;
  Matrix g(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < n; ++k) sum += u(i, k) * lambda[k] * u(j, k);
      g(i, j) = sum;
    }
  }
  return g;
}

Matrix KeptInputGram(KeptInput kind, size_t n, uint64_t seed) {
  switch (kind) {
    case KeptInput::kRandom:
      return FdBufferRows(FdBuffer::kRandom, n, seed).GramOuter();
    case KeptInput::kMultiplicity: {
      Matrix g = RandomMatrix(n, 3, seed, 0.0).GramOuter();
      for (size_t i = 0; i < n; ++i) g(i, i) += 1.0;
      return g;
    }
    case KeptInput::kTinyGaps: {
      std::vector<double> lambda(n);
      for (size_t i = 0; i < n; ++i) {
        lambda[i] = i < n / 2 ? 1.0 - 1e-10 * static_cast<double>(i)
                              : 0.25 / static_cast<double>(i);
      }
      return WithSpectrum(lambda, seed);
    }
    case KeptInput::kBlockDiagonal: {
      const size_t b = n / 3;
      const Matrix a = RandomMatrix(b, b + 2, seed, 0.0).GramOuter();
      const Matrix c = RandomMatrix(n - 2 * b, 4, seed + 1, 0.0).GramOuter();
      Matrix g(n, n);
      for (size_t i = 0; i < b; ++i) {
        for (size_t j = 0; j < b; ++j) {
          g(i, j) = a(i, j);
          g(b + i, b + j) = a(i, j);
        }
      }
      for (size_t i = 0; i < c.rows(); ++i) {
        for (size_t j = 0; j < c.rows(); ++j) g(2 * b + i, 2 * b + j) = c(i, j);
      }
      return g;
    }
    case KeptInput::kRankDeficient:
      return FdBufferRows(FdBuffer::kRankDeficient, n, seed).GramOuter();
    case KeptInput::kZero:
      return Matrix(n, n);
    case KeptInput::kHuge:
    case KeptInput::kTiny: {
      Matrix rows = FdBufferRows(FdBuffer::kRandom, n, seed);
      const int e = kind == KeptInput::kHuge ? 450 : -450;
      for (double& v : rows.Data()) v = std::ldexp(v, e);
      return rows.GramOuter();
    }
  }
  return Matrix(n, n);
}

class KeptVectorsProperty
    : public ::testing::TestWithParam<std::tuple<size_t, KeptInput>> {};

// TridiagEigen(s, scratch, count) on both stages: the eigenvalues are the
// full solve's bits, and the count kept vectors meet the full solve's
// residual and orthogonality bounds (FdGramEigenProperty's tolerances).
TEST_P(KeptVectorsProperty, LeadingVectorsMatchTheFullSolve) {
  const auto [n, kind] = GetParam();
  const Matrix gram = KeptInputGram(kind, n, 7);
  const SymmetricEigen full = TridiagEigen(gram);
  double norm = 0.0;  // ||G||_2.
  for (double v : full.eigenvalues) norm = std::max(norm, std::fabs(v));
  // Residuals are taken on G / 2^e with ||G / 2^e|| in [1/2, 1), an exact
  // scaling, so that G v - lambda v neither overflows nor underflows.
  int e = 0;
  std::frexp(norm, &e);
  Matrix unit = gram;
  for (double& x : unit.Data()) x = std::ldexp(x, -e);
  const double unit_norm = std::ldexp(norm, -e);
  for (size_t count : {size_t{1}, n / 8, n / 4, size_t{32}, n}) {
    count = std::min(count, n);
    for (simd::EigenStage stage : {simd::EigenStage::kAccumulated,
                                   simd::EigenStage::kKeptVectors}) {
      SCOPED_TRACE(::testing::Message()
                   << "count=" << count << " stage=" << static_cast<int>(stage));
      SymmetricEigenScratch scratch;
      const SymmetricEigen& eig =
          simd::TridiagEigen(gram, &scratch, simd::Best(), count, stage);
      EXPECT_EQ(scratch.inverse_vectors,
                stage == simd::EigenStage::kKeptVectors);
      ASSERT_EQ(eig.eigenvalues.size(), n);
      EXPECT_EQ(std::memcmp(eig.eigenvalues.data(), full.eigenvalues.data(),
                            n * sizeof(double)),
                0)
          << "eigenvalue bits";
      ASSERT_EQ(eig.eigenvectors.rows(), n);
      ASSERT_EQ(eig.eigenvectors.cols(), count);
      std::vector<double> v(n), gv(n);
      double ortho_sq = 0.0;
      for (size_t c = 0; c < count; ++c) {
        for (size_t r = 0; r < n; ++r) v[r] = eig.eigenvectors(r, c);
        unit.Apply(v, gv);
        Axpy(-std::ldexp(eig.eigenvalues[c], -e), v, gv);
        EXPECT_LE(Norm(gv), 1e-12 * unit_norm) << "residual, c=" << c;
        for (size_t c2 = 0; c2 < count; ++c2) {
          double dot = 0.0;
          for (size_t r = 0; r < n; ++r) dot += v[r] * eig.eigenvectors(r, c2);
          const double err = dot - (c == c2 ? 1.0 : 0.0);
          ortho_sq += err * err;
        }
      }
      EXPECT_LE(std::sqrt(ortho_sq), 1e-12) << "||V^T V - I||_F";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KeptVectorsProperty,
    ::testing::Combine(::testing::Values<size_t>(8, 32, 64, 96, 128, 200),
                       ::testing::Values(KeptInput::kRandom,
                                         KeptInput::kMultiplicity,
                                         KeptInput::kTinyGaps,
                                         KeptInput::kBlockDiagonal,
                                         KeptInput::kRankDeficient,
                                         KeptInput::kZero, KeptInput::kHuge,
                                         KeptInput::kTiny)));

class MatrixAlgebraProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(MatrixAlgebraProperty, GramAndTransposeIdentities) {
  const auto [n, d, seed] = GetParam();
  Matrix a = RandomMatrix(n, d, seed, 0.0);

  // Gram == A^T A == (A^T)(A) via Multiply.
  EXPECT_TRUE(a.Gram().ApproxEquals(a.Transpose().Multiply(a), 1e-9));
  // GramOuter == A A^T.
  EXPECT_TRUE(
      a.GramOuter().ApproxEquals(a.Multiply(a.Transpose()), 1e-9));
  // Double transpose.
  EXPECT_TRUE(a.Transpose().Transpose().ApproxEquals(a, 0.0));
  // trace(A^T A) == ||A||_F^2.
  Matrix g = a.Gram();
  double trace = 0.0;
  for (size_t j = 0; j < d; ++j) trace += g(j, j);
  EXPECT_NEAR(trace, a.FrobeniusNormSq(), 1e-9 * (1.0 + a.FrobeniusNormSq()));
  // Apply == row-by-row dot products.
  Rng rng(seed + 99);
  std::vector<double> x(d), y(n);
  for (auto& v : x) v = rng.Gaussian();
  a.Apply(x, y);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], Dot(a.Row(i), x), 1e-10 * (1.0 + std::fabs(y[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatrixAlgebraProperty,
    ::testing::Combine(::testing::Values(1, 7, 23), ::testing::Values(1, 9, 31),
                       ::testing::Values(5u, 6u)));

}  // namespace
}  // namespace swsketch

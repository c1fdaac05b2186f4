// Differential tests for the cache-blocked dense kernels: Gram, GramOuter,
// Multiply, Apply/ApplyTranspose and the upper-triangle rank-1 update are
// checked entry-by-entry against straightforward triple-loop references on
// random, sparse-ish and degenerate shapes. Blocking changes summation
// order, so comparisons are relative-tolerance, not bit-exact; what IS
// exact is parallel-vs-serial for a fixed kernel (asserted via pool sizes).
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "util/parallel.h"
#include "util/random.h"

namespace swsketch {
namespace {

Matrix RandomMatrix(size_t n, size_t d, uint64_t seed, double density = 1.0) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (density >= 1.0 || rng.Uniform01() < density) m(i, j) = rng.Gaussian();
    }
  }
  return m;
}

Matrix NaiveGram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (size_t r = 0; r < a.cols(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      double sum = 0.0;
      for (size_t i = 0; i < a.rows(); ++i) sum += a(i, r) * a(i, c);
      g(r, c) = sum;
    }
  }
  return g;
}

Matrix NaiveMultiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) sum += a(i, k) * b(k, j);
      c(i, j) = sum;
    }
  }
  return c;
}

// Largest |x - y| scaled by the magnitude of the reference.
void ExpectMatrixNear(const Matrix& got, const Matrix& want, double rel_tol) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  double scale = 1.0;
  for (double v : want.Data()) scale = std::max(scale, std::abs(v));
  EXPECT_LE(got.MaxAbsDiff(want), rel_tol * scale);
}

TEST(BlockedKernelsTest, GramMatchesNaiveDense) {
  // d spans below / at / above the tile sizes (48 and 96).
  for (size_t d : {3u, 17u, 48u, 97u, 160u}) {
    const Matrix a = RandomMatrix(3 * d + 7, d, d);
    ExpectMatrixNear(a.Gram(), NaiveGram(a), 1e-12);
  }
}

TEST(BlockedKernelsTest, GramMatchesNaiveSparse) {
  // Mostly-zero input exercises the zero-quad skip in the inner loop.
  const Matrix a = RandomMatrix(400, 120, 1, 0.05);
  ExpectMatrixNear(a.Gram(), NaiveGram(a), 1e-12);
}

TEST(BlockedKernelsTest, GramDegenerateShapes) {
  // 0 rows: Gram is the all-zero d x d matrix.
  const Matrix empty_rows(0, 7);
  const Matrix g0 = empty_rows.Gram();
  EXPECT_EQ(g0.rows(), 7u);
  EXPECT_EQ(g0.MaxAbsDiff(Matrix(7, 7)), 0.0);
  // 1 column: Gram is the 1x1 squared norm.
  const Matrix one_col = RandomMatrix(23, 1, 2);
  ExpectMatrixNear(one_col.Gram(), NaiveGram(one_col), 1e-12);
  // 1 row: rank-1 outer product.
  const Matrix one_row = RandomMatrix(1, 60, 3);
  ExpectMatrixNear(one_row.Gram(), NaiveGram(one_row), 1e-12);
  // 0 x 0.
  EXPECT_TRUE(Matrix().Gram().empty());
}

TEST(BlockedKernelsTest, GramIsExactlySymmetric) {
  // The mirror copies the upper triangle, so symmetry is bit-exact — an
  // invariant Jacobi/Lanczos downstream rely on.
  const Matrix g = RandomMatrix(300, 130, 4).Gram();
  for (size_t i = 0; i < g.rows(); ++i) {
    for (size_t j = i + 1; j < g.cols(); ++j) EXPECT_EQ(g(i, j), g(j, i));
  }
}

TEST(BlockedKernelsTest, GramOuterMatchesNaive) {
  const Matrix a = RandomMatrix(57, 90, 5);
  ExpectMatrixNear(a.GramOuter(), NaiveMultiply(a, a.Transpose()), 1e-12);
}

TEST(BlockedKernelsTest, MultiplyMatchesNaive) {
  struct Shape { size_t n, k, m; };
  for (const auto& s : {Shape{1, 1, 1}, Shape{5, 130, 3}, Shape{64, 64, 64},
                        Shape{33, 257, 19}}) {
    const Matrix a = RandomMatrix(s.n, s.k, s.n + s.k);
    const Matrix b = RandomMatrix(s.k, s.m, s.k + s.m + 1);
    ExpectMatrixNear(a.Multiply(b), NaiveMultiply(a, b), 1e-12);
  }
}

TEST(BlockedKernelsTest, MultiplyDegenerateShapes) {
  const Matrix a(0, 5);
  const Matrix b = RandomMatrix(5, 4, 6);
  const Matrix c = a.Multiply(b);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 4u);
}

TEST(BlockedKernelsTest, AddOuterProductUpperPlusMirrorEqualsFull) {
  const size_t d = 75;
  Rng rng(7);
  std::vector<double> v(d);
  for (auto& x : v) x = rng.Gaussian();

  Matrix full = RandomMatrix(10, d, 8).Gram();
  Matrix split = full;
  full.AddOuterProduct(v, -2.5);
  split.AddOuterProductUpper(v, -2.5);
  split.MirrorUpperToLower();
  EXPECT_EQ(full.MaxAbsDiff(split), 0.0);
}

TEST(BlockedKernelsTest, ManyUpperUpdatesThenOneMirror) {
  // The CovarianceError pattern: accumulate rank-1 terms upper-only, mirror
  // once, and land exactly where per-update mirroring would.
  const Matrix b = RandomMatrix(40, 66, 9);
  Matrix per_update(66, 66);
  Matrix amortized(66, 66);
  for (size_t i = 0; i < b.rows(); ++i) {
    per_update.AddOuterProduct(b.Row(i), -1.0);
    amortized.AddOuterProductUpper(b.Row(i), -1.0);
  }
  amortized.MirrorUpperToLower();
  EXPECT_EQ(per_update.MaxAbsDiff(amortized), 0.0);
}

TEST(BlockedKernelsTest, ApplyMatchesNaive) {
  const Matrix a = RandomMatrix(37, 118, 10);
  Rng rng(11);
  std::vector<double> x(a.cols()), y(a.rows()), want(a.rows());
  for (auto& v : x) v = rng.Gaussian();
  a.Apply(x, y);
  for (size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) sum += a(i, j) * x[j];
    want[i] = sum;
  }
  for (size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], want[i], 1e-10);
}

TEST(BlockedKernelsTest, ApplyTransposeMatchesNaive) {
  const Matrix a = RandomMatrix(118, 37, 12);
  Rng rng(13);
  std::vector<double> x(a.rows()), y(a.cols()), want(a.cols(), 0.0);
  for (auto& v : x) v = rng.Gaussian();
  a.ApplyTranspose(x, y);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) want[j] += a(i, j) * x[i];
  }
  for (size_t j = 0; j < y.size(); ++j) EXPECT_NEAR(y[j], want[j], 1e-10);
}

// ---- Bit-compatibility of the fused inner loop across dispatch paths.
//
// The kernels promise a pinned per-element accumulation formula per build
// and host CPU class: when Matrix::FusedKernelsUseFmaChains() — the cpuid
// dispatch found AVX2+FMA — each 4-row group contributes
// via a nested fma chain (vector lanes and scalar tail associate
// identically); otherwise plain mul+add. These references replay the
// active formula element-by-element (std::fma is exact in any build), so
// the comparison is EXPECT_EQ — any drift between the SIMD main loop, its
// tail, and the documented contract is a bit-level failure, in both the
// release and the bench (-march=native) build.

// dst[j] accumulated with one 4-row group, matching FusedAccumulate4.
double RefFused4(double dst, double a0, double a1, double a2, double a3,
                 double v0, double v1, double v2, double v3) {
  if (Matrix::FusedKernelsUseFmaChains()) {
    return std::fma(v3, a3, std::fma(v2, a2, std::fma(v1, a1,
                                                      std::fma(v0, a0, dst))));
  }
  return dst + (v0 * a0 + v1 * a1 + v2 * a2 + v3 * a3);
}

// dst[j] accumulated with one remaining row, matching FusedAccumulate1.
double RefFused1(double dst, double a, double v) {
  if (Matrix::FusedKernelsUseFmaChains()) return std::fma(v, a, dst);
  return dst + v * a;
}

TEST(FusedKernelBitCompatTest, ApplyTransposeMatchesReferenceChainExactly) {
  // rows = 11 exercises two 4-row groups plus a 3-row tail; cols = 10
  // covers both the 256-bit lanes (j < 8) and the scalar tail (j = 8, 9),
  // which must associate identically.
  const Matrix a = RandomMatrix(11, 10, 21);
  Rng rng(22);
  std::vector<double> x(a.rows());
  for (auto& v : x) v = rng.Gaussian();

  std::vector<double> want(a.cols(), 0.0);
  size_t i = 0;
  for (; i + 3 < a.rows(); i += 4) {
    for (size_t j = 0; j < a.cols(); ++j) {
      want[j] = RefFused4(want[j], a(i, j), a(i + 1, j), a(i + 2, j),
                          a(i + 3, j), x[i], x[i + 1], x[i + 2], x[i + 3]);
    }
  }
  for (; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      want[j] = RefFused1(want[j], a(i, j), x[i]);
    }
  }

  std::vector<double> y(a.cols());
  a.ApplyTranspose(x, y);
  for (size_t j = 0; j < a.cols(); ++j) EXPECT_EQ(y[j], want[j]) << j;
}

TEST(FusedKernelBitCompatTest, GramMatchesReferenceChainExactly) {
  // Small enough for a single row panel (<= 64) and a single (i, j) tile
  // (d <= 48), so the blocked loop reduces to: per column i, 4-row fused
  // groups then remainder rows, j running over the upper triangle.
  const Matrix a = RandomMatrix(11, 10, 23);
  const size_t d = a.cols();
  Matrix want(d, d);
  for (size_t i = 0; i < d; ++i) {
    size_t r = 0;
    for (; r + 3 < a.rows(); r += 4) {
      const double v0 = a(r, i), v1 = a(r + 1, i), v2 = a(r + 2, i),
                   v3 = a(r + 3, i);
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
      for (size_t j = i; j < d; ++j) {
        want(i, j) = RefFused4(want(i, j), a(r, j), a(r + 1, j), a(r + 2, j),
                               a(r + 3, j), v0, v1, v2, v3);
      }
    }
    for (; r < a.rows(); ++r) {
      const double vi = a(r, i);
      if (vi == 0.0) continue;
      for (size_t j = i; j < d; ++j) {
        want(i, j) = RefFused1(want(i, j), a(r, j), vi);
      }
    }
  }
  want.MirrorUpperToLower();
  EXPECT_EQ(a.Gram().MaxAbsDiff(want), 0.0);
}

TEST(FusedKernelBitCompatTest, MultiplyMatchesReferenceChainExactly) {
  // k = 11 (< the 128 panel) reduces Multiply to 4-deep fused k-groups plus
  // a remainder per output row; m = 10 covers lanes and tail.
  const Matrix a = RandomMatrix(3, 11, 24);
  const Matrix b = RandomMatrix(11, 10, 25);
  Matrix want(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    size_t k = 0;
    for (; k + 3 < a.cols(); k += 4) {
      for (size_t j = 0; j < b.cols(); ++j) {
        want(i, j) = RefFused4(want(i, j), b(k, j), b(k + 1, j), b(k + 2, j),
                               b(k + 3, j), a(i, k), a(i, k + 1), a(i, k + 2),
                               a(i, k + 3));
      }
    }
    for (; k < a.cols(); ++k) {
      for (size_t j = 0; j < b.cols(); ++j) {
        want(i, j) = RefFused1(want(i, j), b(k, j), a(i, k));
      }
    }
  }
  EXPECT_EQ(a.Multiply(b).MaxAbsDiff(want), 0.0);
}

TEST(FusedKernelBitCompatTest, MultiplyRowsMatchesMultiplyOnSlice) {
  // MultiplyRows(b, begin) must produce bit-for-bit what Multiply gives on
  // a materialized copy of the row slice — same kernel, shifted base row.
  const Matrix a = RandomMatrix(16, 33, 26);
  const Matrix b = RandomMatrix(80, 29, 27);
  const size_t begin = 17;
  Matrix slice(0, b.cols());
  for (size_t i = 0; i < a.cols(); ++i) slice.AppendRow(b.Row(begin + i));
  EXPECT_EQ(a.MultiplyRows(b, begin).MaxAbsDiff(a.Multiply(slice)), 0.0);
}

TEST(BlockedKernelsTest, LargeGramDeterministicAcrossRepeats) {
  // A shape big enough to cross the parallel flop threshold must give the
  // same bits every run (band partitioning is fixed, accumulation order
  // per entry is band-independent).
  const Matrix a = RandomMatrix(2000, 160, 14);
  const Matrix g1 = a.Gram();
  const Matrix g2 = a.Gram();
  EXPECT_EQ(g1.MaxAbsDiff(g2), 0.0);
  ExpectMatrixNear(g1, NaiveGram(a), 1e-12);
}

}  // namespace
}  // namespace swsketch

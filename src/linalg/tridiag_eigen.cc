#include "linalg/tridiag_eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "linalg/simd.h"
#include "util/logging.h"

namespace swsketch {
namespace {

// Householder reduction of symmetric a (n x n, clobbered) to tridiagonal
// form: diagonal in d, sub-diagonal in e[1..n-1] (EISPACK tred2). Unlike
// classic tred2, which updates only the lower triangle, each step updates
// the whole active block a[0..i)[0..i), so every row holds its full
// symmetric row and the symmetric matvec p = A u is one simd::Dot per
// contiguous row (four rows share each load of u) instead of a stride-n
// column walk. The rank-2 update a(j, k) -= u_j p_k + p_j u_k keeps the
// block exactly symmetric: (j, k) and (k, j) add the same two products in
// swapped order. p accumulates in e[0..i), which tred2 already uses as
// scratch. The accumulated orthogonal transform is built in a separate
// matrix `q` stored TRANSPOSED (basis vectors as rows), so the
// accumulation also runs over contiguous rows. `hcol` stages the current
// Householder column contiguously.
SWSKETCH_SIMD_INLINE void Tred2Transposed(Matrix* a_ptr,
                                          std::vector<double>* d_ptr,
                                          std::vector<double>* e_ptr,
                                          Matrix* q_ptr,
                                          std::vector<double>* hcol_ptr) {
  Matrix& a = *a_ptr;
  std::vector<double>& d = *d_ptr;
  std::vector<double>& e = *e_ptr;
  const size_t n = a.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);

  for (size_t i = n - 1; i >= 1; --i) {
    const size_t l = i - 1;
    double h = 0.0, scale = 0.0;
    double* u = a.RowPtr(i);
    if (i > 1) {
      for (size_t k = 0; k <= l; ++k) scale += std::fabs(u[k]);
      if (scale == 0.0) {
        e[i] = u[l];
      } else {
        for (size_t k = 0; k <= l; ++k) {
          u[k] /= scale;
          h += u[k] * u[k];
        }
        double f = u[l];
        const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        u[l] = f - g;
        double* p = e.data();
        size_t j = 0;
        for (; j + 4 <= i; j += 4) {
          simd::Dot4(a.RowPtr(j), a.RowPtr(j + 1), a.RowPtr(j + 2),
                     a.RowPtr(j + 3), u, i, p + j);
        }
        for (; j < i; ++j) p[j] = simd::Dot(a.RowPtr(j), u, i);
        f = 0.0;
        for (j = 0; j < i; ++j) {
          a(j, i) = u[j] / h;
          p[j] /= h;
          f += p[j] * u[j];
        }
        const double hh = f / (h + h);
        for (j = 0; j < i; ++j) p[j] -= hh * u[j];
        for (j = 0; j < i; ++j) {
          simd::SubtractScaled2(a.RowPtr(j), u[j], p, p[j], u, i);
        }
      }
    } else {
      e[i] = u[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Accumulate the transformation into q (transposed layout). Row j of q
  // is column j of the classic in-place accumulator; the border entries
  // outside the active window are the same implicit identity/zero that
  // the in-place form maintains by zeroing row/column i.
  Matrix& q = *q_ptr;
  q.ResetShape(n, n);
  std::vector<double>& hcol = *hcol_ptr;
  hcol.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      // Column i of a above the diagonal holds the scaled Householder
      // vector v / h from reduction step i; stage it contiguously. Each
      // row j < i of q then loses (q_j . v) v / h.
      for (size_t k = 0; k < i; ++k) hcol[k] = a(k, i);
      const double* ai = a.RowPtr(i);
      const double* hc = hcol.data();
      size_t j = 0;
      for (; j + 4 <= i; j += 4) {
        double g[4];
        simd::Dot4(q.RowPtr(j), q.RowPtr(j + 1), q.RowPtr(j + 2),
                   q.RowPtr(j + 3), ai, i, g);
        for (size_t r = 0; r < 4; ++r) {
          simd::SubtractScaled(q.RowPtr(j + r), g[r], hc, i);
        }
      }
      for (; j < i; ++j) {
        simd::SubtractScaled(q.RowPtr(j), simd::Dot(q.RowPtr(j), ai, i), hc, i);
      }
    }
    d[i] = a(i, i);
    q(i, i) = 1.0;
  }
}

double SignLike(double a, double b) { return b >= 0.0 ? std::fabs(a) : -std::fabs(a); }

// Implicit-shift QL on the tridiagonal (d, e) — EISPACK tql2, except that
// `z` holds the accumulated transform TRANSPOSED (basis vectors as rows):
// each Givens rotation then updates two contiguous rows instead of two
// stride-n columns, which is what makes the O(n^3) rotation stream cache-
// resident and vectorizable. Rotation radii are sqrt(f*f + g*g), not
// std::hypot: when max|T| leaves [2^-400, 2^500], (d, e) are first scaled
// by a power of two to max|T| in [1/2, 1) and the eigenvalues scaled back
// at the end (LAPACK dsteqr does the same), so no square overflows and none
// of size above eps^2 * max|T| underflows. Power-of-two scaling is exact,
// so a scaled problem returns exactly the scaled answer. The first radius,
// sqrt(g*g + 1), needs no guard: QL only iterates while
// |e[l]| > 1e-15 (|d[l]| + |d[l+1]|), which bounds |g| below 5e14.
// Returns false if an eigenvalue fails to converge.
SWSKETCH_SIMD_INLINE bool Tql2Transposed(std::vector<double>* d_ptr,
                                         std::vector<double>* e_ptr,
                                         Matrix* z_ptr) {
  std::vector<double>& d = *d_ptr;
  std::vector<double>& e = *e_ptr;
  Matrix& z = *z_ptr;
  const size_t n = d.size();
  if (n == 0) return true;
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  double tnorm = 0.0;
  for (size_t i = 0; i < n; ++i) {
    tnorm = std::max({tnorm, std::fabs(d[i]), std::fabs(e[i])});
  }
  int exponent = 0;
  if (std::isfinite(tnorm) && tnorm > 0.0 &&
      (tnorm > 0x1p500 || tnorm < 0x1p-400)) {
    std::frexp(tnorm, &exponent);
    for (size_t i = 0; i < n; ++i) {
      d[i] = std::ldexp(d[i], -exponent);
      e[i] = std::ldexp(e[i], -exponent);
    }
  }

  for (size_t l = 0; l < n; ++l) {
    int iterations = 0;
    size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        if (++iterations == 50) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::sqrt(g * g + 1.0);
        g = d[m] - d[l] + e[l] / (g + SignLike(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        for (size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::sqrt(f * f + g * g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          simd::Rotate(z.RowPtr(i), z.RowPtr(i + 1), c, s, n);
        }
        if (r == 0.0 && m - l > 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  if (exponent != 0) {
    for (size_t i = 0; i < n; ++i) d[i] = std::ldexp(d[i], exponent);
  }
  return true;
}

// The whole O(n^3) part of the solve, on the transform in transposed
// (row-basis) layout: reduction, then QL. Compiled once per SIMD target.
SWSKETCH_SIMD_INLINE bool TridiagonalizeAndIterate(
    SymmetricEigenScratch* scratch) {
  Tred2Transposed(&scratch->work, &scratch->diag, &scratch->off,
                  &scratch->accum, &scratch->hcol);
  return Tql2Transposed(&scratch->diag, &scratch->off, &scratch->accum);
}

bool TridiagonalizeAndIterateBaseline(SymmetricEigenScratch* scratch) {
  return TridiagonalizeAndIterate(scratch);
}

#if SWSKETCH_SIMD_AVX2_CLONE
__attribute__((target("avx2"))) bool TridiagonalizeAndIterateAvx2(
    SymmetricEigenScratch* scratch) {
  return TridiagonalizeAndIterate(scratch);
}
#endif

}  // namespace

SymmetricEigen TridiagEigen(const Matrix& s) {
  SymmetricEigenScratch scratch;
  TridiagEigen(s, &scratch);
  return std::move(scratch.result);
}

const SymmetricEigen& TridiagEigen(const Matrix& s,
                                   SymmetricEigenScratch* scratch) {
  return simd::TridiagEigen(s, scratch, simd::Best());
}

const SymmetricEigen& simd::TridiagEigen(const Matrix& s,
                                         SymmetricEigenScratch* scratch,
                                         Target target) {
  SWSKETCH_CHECK_EQ(s.rows(), s.cols());
  CheckSupported(target);
  const size_t n = s.rows();
  SymmetricEigen& out = scratch->result;
  if (n == 0) {
    out.eigenvalues.clear();
    out.eigenvectors.ResetShape(0, 0);
    return out;
  }
  if (n == 1) {
    out.eigenvalues.assign(1, s(0, 0));
    out.eigenvectors.ResetShape(1, 1);
    out.eigenvectors(0, 0) = 1.0;
    return out;
  }

  // Symmetrize into the workspace.
  Matrix& a = scratch->work;
  a.ResetShape(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = 0.5 * (s(i, j) + s(j, i));
  }
#if SWSKETCH_SIMD_AVX2_CLONE
  const bool converged = target == Target::kAvx2
                             ? TridiagonalizeAndIterateAvx2(scratch)
                             : TridiagonalizeAndIterateBaseline(scratch);
#else
  const bool converged = TridiagonalizeAndIterateBaseline(scratch);
#endif
  if (!converged) {
    // Extremely rare non-convergence: fall back to the robust solver
    // (restarts from `s`, so overwriting the scratch is safe).
    return JacobiEigen(s, scratch);
  }

  const std::vector<double>& d = scratch->diag;
  const Matrix& q = scratch->accum;
  std::vector<size_t>& order = scratch->order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return d[x] > d[y]; });
  out.eigenvalues.assign(n, 0.0);
  out.eigenvectors.ResetShape(n, n);
  for (size_t c = 0; c < n; ++c) {
    out.eigenvalues[c] = d[order[c]];
    // Row order[c] of the transposed accumulator is eigenvector column c.
    const double* zc = q.RowPtr(order[c]);
    for (size_t r = 0; r < n; ++r) {
      out.eigenvectors(r, c) = zc[r];
    }
  }
  return out;
}

size_t NumericalRank(const SymmetricEigen& eig) {
  constexpr double kRankTol = 3e-6;
  const std::vector<double>& ev = eig.eigenvalues;
  const double lmax = std::max(ev.empty() ? 0.0 : ev[0], 0.0);
  const double cutoff = kRankTol * std::max(std::sqrt(lmax), 1e-300);
  size_t r = 0;
  while (r < ev.size() && ev[r] > 0.0 && std::sqrt(ev[r]) > cutoff) ++r;
  return r;
}

}  // namespace swsketch

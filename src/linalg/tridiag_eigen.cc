#include "linalg/tridiag_eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace swsketch {
namespace {

// Householder reduction of symmetric a (n x n, clobbered) to tridiagonal
// form: diagonal in d, sub-diagonal in e[1..n-1] (EISPACK tred2). Unlike
// classic tred2, the accumulated orthogonal transform is built in a
// separate matrix `q` stored TRANSPOSED (basis vectors as rows): the
// accumulation inner loops then run over contiguous rows of q instead of
// stride-n columns of a, which makes the O(n^3) accumulation cache-
// resident. Per element the multiplicands, expressions and accumulation
// order match the in-place column form exactly, so the result is
// bit-identical to it. `hcol` stages the current Householder column
// contiguously.
void Tred2Transposed(Matrix* a_ptr, std::vector<double>* d_ptr,
                     std::vector<double>* e_ptr, Matrix* q_ptr,
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
    if (i > 1) {
      for (size_t k = 0; k <= l; ++k) scale += std::fabs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        f = 0.0;
        for (size_t j = 0; j <= l; ++j) {
          a(j, i) = a(i, j) / h;
          g = 0.0;
          for (size_t k = 0; k <= j; ++k) g += a(j, k) * a(i, k);
          for (size_t k = j + 1; k <= l; ++k) g += a(k, j) * a(i, k);
          e[j] = g / h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (size_t j = 0; j <= l; ++j) {
          f = a(i, j);
          e[j] = g = e[j] - hh * f;
          for (size_t k = 0; k <= j; ++k) {
            a(j, k) -= f * e[k] + g * a(i, k);
          }
        }
      }
    } else {
      e[i] = a(i, l);
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
    const size_t l = i;  // Active window [0, i).
    if (d[i] != 0.0) {
      // Column i of a above the diagonal holds the scaled Householder
      // vector v / h from reduction step i; stage it contiguously.
      for (size_t k = 0; k < l; ++k) hcol[k] = a(k, i);
      const double* __restrict__ ai = a.RowPtr(i);
      const double* __restrict__ hc = hcol.data();
      for (size_t j = 0; j < l; ++j) {
        double* __restrict__ qj = q.RowPtr(j);
        double g = 0.0;
        for (size_t k = 0; k < l; ++k) g += ai[k] * qj[k];
        for (size_t k = 0; k < l; ++k) qj[k] -= g * hc[k];
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
// resident and auto-vectorizable. The per-element arithmetic (expressions
// and evaluation order) is identical to the column form, so eigenvectors
// are bit-identical to the untransposed implementation. Returns false if
// an eigenvalue fails to converge.
bool Tql2Transposed(std::vector<double>* d_ptr, std::vector<double>* e_ptr,
                    Matrix* z_ptr) {
  std::vector<double>& d = *d_ptr;
  std::vector<double>& e = *e_ptr;
  Matrix& z = *z_ptr;
  const size_t n = d.size();
  if (n == 0) return true;
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

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
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + SignLike(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        for (size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
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
          double* __restrict__ zi = z.RowPtr(i);
          double* __restrict__ zi1 = z.RowPtr(i + 1);
          for (size_t k = 0; k < n; ++k) {
            f = zi1[k];
            zi1[k] = s * zi[k] + c * f;
            zi[k] = c * zi[k] - s * f;
          }
        }
        if (r == 0.0 && m - l > 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

}  // namespace

SymmetricEigen TridiagEigen(const Matrix& s) {
  SymmetricEigenScratch scratch;
  TridiagEigen(s, &scratch);
  return std::move(scratch.result);
}

const SymmetricEigen& TridiagEigen(const Matrix& s,
                                   SymmetricEigenScratch* scratch) {
  SWSKETCH_CHECK_EQ(s.rows(), s.cols());
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
  std::vector<double>& d = scratch->diag;
  std::vector<double>& e = scratch->off;
  // Both the Householder accumulation and the QL rotations work on the
  // transform in transposed (row-basis) layout for contiguous access; the
  // arithmetic is element-for-element identical to the classic column
  // form, so eigenpairs are bit-identical to it.
  Matrix& q = scratch->accum;
  Tred2Transposed(&a, &d, &e, &q, &scratch->hcol);
  if (!Tql2Transposed(&d, &e, &q)) {
    // Extremely rare non-convergence: fall back to the robust solver
    // (restarts from `s`, so overwriting the scratch is safe).
    return JacobiEigen(s, scratch);
  }

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

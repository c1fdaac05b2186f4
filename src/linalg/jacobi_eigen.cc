#include "linalg/jacobi_eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace swsketch {
namespace {

constexpr int kMaxSweeps = 64;
// Relative convergence: stop when the off-diagonal Frobenius norm falls
// below kTol * ||S||_F.
constexpr double kTol = 1e-12;

// Sum of squares of strictly-upper-triangular entries.
double OffDiagonalNormSq(const Matrix& a) {
  double s = 0.0;
  const size_t n = a.rows();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) s += a(i, j) * a(i, j);
  }
  return 2.0 * s;
}

}  // namespace

SymmetricEigen JacobiEigen(const Matrix& s) {
  SymmetricEigenScratch scratch;
  JacobiEigen(s, &scratch);
  return std::move(scratch.result);
}

const SymmetricEigen& JacobiEigen(const Matrix& s,
                                  SymmetricEigenScratch* scratch) {
  SWSKETCH_CHECK_EQ(s.rows(), s.cols());
  const size_t n = s.rows();

  // Work on the symmetrized copy.
  Matrix& a = scratch->work;
  a.ResetShape(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = 0.5 * (s(i, j) + s(j, i));
  }
  Matrix& v = scratch->accum;
  v.ResetShape(n, n);
  for (size_t i = 0; i < n; ++i) v(i, i) = 1.0;

  const double total_norm = std::sqrt(a.FrobeniusNormSq());
  const double stop = kTol * std::max(total_norm, 1e-300);

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (std::sqrt(OffDiagonalNormSq(a)) <= stop) break;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        // Classic symmetric Schur rotation.
        const double theta = (aqq - app) / (2.0 * apq);
        double t;
        if (std::fabs(theta) > 1e12) {
          t = 1.0 / (2.0 * theta);
        } else {
          t = 1.0 / (std::fabs(theta) + std::sqrt(1.0 + theta * theta));
          if (theta < 0.0) t = -t;
        }
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double sn = t * c;

        // A <- J^T A J, applied to rows/columns p and q.
        for (size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - sn * akq;
          a(k, q) = sn * akp + c * akq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - sn * aqk;
          a(q, k) = sn * apk + c * aqk;
        }
        // Accumulate eigenvectors: V <- V J.
        for (size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - sn * vkq;
          v(k, q) = sn * vkp + c * vkq;
        }
      }
    }
  }

  // Extract and sort descending.
  std::vector<size_t>& order = scratch->order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double>& diag = scratch->diag;
  diag.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) diag[i] = a(i, i);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return diag[x] > diag[y]; });

  SymmetricEigen& out = scratch->result;
  out.eigenvalues.assign(n, 0.0);
  out.eigenvectors.ResetShape(n, n);
  for (size_t c = 0; c < n; ++c) {
    out.eigenvalues[c] = diag[order[c]];
    for (size_t r = 0; r < n; ++r) {
      out.eigenvectors(r, c) = v(r, order[c]);
    }
  }
  return out;
}

}  // namespace swsketch

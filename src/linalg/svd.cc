#include "linalg/svd.h"

#include <algorithm>
#include <cmath>

#include "linalg/tridiag_eigen.h"
#include "linalg/vector_ops.h"
#include "util/logging.h"

namespace swsketch {

SvdResult ThinSvd(const Matrix& a) {
  SvdResult out;
  if (a.empty()) return out;
  const size_t n = a.rows();
  const size_t d = a.cols();

  // Eigendecompose the small-side Gram: A A^T when the rows are the small
  // side (wide), A^T A otherwise (tall). Either way eigenvalue c is
  // sigma_c^2 and its eigenvector is one factor's column c; the other
  // factor is recovered by one product with A.
  const bool wide = n <= d;
  const SymmetricEigen eig = TridiagEigen(wide ? a.GramOuter() : a.Gram());
  const size_t r = NumericalRank(eig);
  out.singular_values.resize(r);
  out.u = Matrix(n, r);
  out.vt = Matrix(r, d);
  std::vector<double> ucol(n);
  std::vector<double> vrow(d);
  for (size_t c = 0; c < r; ++c) {
    const double sigma = std::sqrt(eig.eigenvalues[c]);
    out.singular_values[c] = sigma;
    if (wide) {
      // v_c^T = (u_c^T A) / sigma.
      for (size_t i = 0; i < n; ++i) ucol[i] = eig.eigenvectors(i, c);
      a.ApplyTranspose(ucol, vrow);
      ScaleInPlace(vrow, 1.0 / sigma);
      // Re-normalize to suppress accumulated rounding in near-degenerate
      // directions.
      Normalize(vrow);
    } else {
      // u_c = A v_c / sigma.
      for (size_t j = 0; j < d; ++j) vrow[j] = eig.eigenvectors(j, c);
      a.Apply(vrow, ucol);
      ScaleInPlace(ucol, 1.0 / sigma);
      Normalize(ucol);
    }
    for (size_t i = 0; i < n; ++i) out.u(i, c) = ucol[i];
    std::copy(vrow.begin(), vrow.end(), out.vt.RowPtr(c));
  }
  return out;
}

std::vector<double> SingularValues(const Matrix& a) {
  const size_t m = std::min(a.rows(), a.cols());
  std::vector<double> out(m, 0.0);
  if (a.empty()) return out;
  const Matrix gram = a.rows() <= a.cols() ? a.GramOuter() : a.Gram();
  SymmetricEigen eig = TridiagEigen(gram);
  for (size_t i = 0; i < m; ++i) {
    out[i] = std::sqrt(std::max(eig.eigenvalues[i], 0.0));
  }
  return out;
}

}  // namespace swsketch

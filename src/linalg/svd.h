// Thin singular value decomposition via the Gram route: eigendecompose the
// smaller of A A^T / A^T A (TridiagEigen) and recover the other
// factor. Exact to floating-point accuracy for the well-conditioned,
// small-side shapes produced by sketches (l x d with l << d), and
// O(min(n,d)^2 * max(n,d)) which is the right complexity for those shapes.
#ifndef SWSKETCH_LINALG_SVD_H_
#define SWSKETCH_LINALG_SVD_H_

#include <vector>

#include "linalg/matrix.h"

namespace swsketch {

/// Compact SVD A = U diag(sigma) Vt with rank-r factors; singular values
/// descending, r the Gram spectrum's NumericalRank (tridiag_eigen.h).
struct SvdResult {
  std::vector<double> singular_values;  // Size r, descending, > 0.
  Matrix u;                             // n x r, orthonormal columns.
  Matrix vt;                            // r x d, orthonormal rows.
};

/// Computes the compact SVD of an arbitrary dense matrix.
SvdResult ThinSvd(const Matrix& a);

/// Singular values only (descending, including zeros up to min(n, d)).
std::vector<double> SingularValues(const Matrix& a);

}  // namespace swsketch

#endif  // SWSKETCH_LINALG_SVD_H_

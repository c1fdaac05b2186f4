// Cyclic Jacobi eigensolver for dense symmetric matrices, and the result and
// workspace types every symmetric eigensolver shares. Jacobi is quadratic-
// per-sweep but extremely robust: it is TridiagEigen's fallback when QL
// fails to converge, the small Ritz solver inside power and subspace
// iteration, and the reference the tests check TridiagEigen against. The
// hot paths (FD, DS-FD, SVD, PCA) call TridiagEigen (tridiag_eigen.h).
#ifndef SWSKETCH_LINALG_JACOBI_EIGEN_H_
#define SWSKETCH_LINALG_JACOBI_EIGEN_H_

#include <vector>

#include "linalg/matrix.h"

namespace swsketch {

/// Eigendecomposition of a symmetric matrix: S = V diag(lambda) V^T with
/// eigenvalues sorted in descending order and eigenvectors as columns of V.
struct SymmetricEigen {
  std::vector<double> eigenvalues;  // Descending.
  Matrix eigenvectors;              // n x count, column i pairs
                                    // eigenvalues[i] (count = n unless a
                                    // solver was asked for fewer).
};

/// Reusable workspace for the symmetric eigensolvers. A scratch cycled
/// through solves of the same (or smaller) size never allocates after the
/// first call: every member is reshaped in place via ResetShape / assign.
/// Not thread-safe — one scratch per concurrent solver.
struct SymmetricEigenScratch {
  Matrix work;                // Symmetrized copy, rotated in place.
  Matrix accum;               // Eigenvector accumulator / kept vectors.
  std::vector<double> diag;   // Tridiagonal diagonal / Jacobi diagonal.
  std::vector<double> off;    // Tridiagonal off-diagonal.
  std::vector<double> hcol;   // Householder column staging (tridiag).
  std::vector<size_t> order;  // Descending-eigenvalue permutation.
  // Kept-vector stage of TridiagEigen (inverse iteration).
  std::vector<double> tau;     // Householder h per reduction step.
  std::vector<double> band;    // Scaled T, shifts and a tridiagonal LU.
  std::vector<size_t> block;   // First index of each index's block.
  std::vector<size_t> wanted;  // Kept columns grouped by block.
  bool inverse_vectors = false;  // Out: the last solve's vectors came
                                 // from inverse iteration.
  SymmetricEigen result;      // Output storage, reused across solves.
};

/// Computes the full eigendecomposition of symmetric `S`. Symmetry is
/// enforced by averaging S and S^T before iterating, so tiny asymmetries
/// from accumulated floating point error are tolerated. Sweeps stop once
/// the off-diagonal Frobenius norm falls below 1e-12 * ||S||_F, or after
/// 64 sweeps.
SymmetricEigen JacobiEigen(const Matrix& s);

/// Scratch-accepting variant: solves into scratch->result and returns a
/// reference to it (valid until the scratch is reused). Allocation-free
/// once the scratch has seen a problem of size >= s.rows(). `s` must not
/// alias any scratch member.
const SymmetricEigen& JacobiEigen(const Matrix& s,
                                  SymmetricEigenScratch* scratch);

}  // namespace swsketch

#endif  // SWSKETCH_LINALG_JACOBI_EIGEN_H_

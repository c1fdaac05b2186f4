// Symmetric eigensolver via Householder tridiagonalization followed by the
// implicit-shift QL iteration — the classic dense-symmetric path (EISPACK
// tred2/tql2 lineage). One O(n^3) reduction plus O(n^2)-per-eigenvalue
// iteration makes it faster than cyclic Jacobi at every size Frequent
// Directions shrinks (n >= 4), ~5x at n = 32 and ~10x at n = 64
// (micro_linalg). It is the one eigensolver of the FD shrink, the DS-FD
// compress, ThinSvd and the exact/PCA spectra; JacobiEigen remains only as
// its non-convergence fallback and as the small solver inside
// power/subspace iteration.
#ifndef SWSKETCH_LINALG_TRIDIAG_EIGEN_H_
#define SWSKETCH_LINALG_TRIDIAG_EIGEN_H_

#include "linalg/jacobi_eigen.h"
#include "linalg/matrix.h"

namespace swsketch {

/// Full eigendecomposition of symmetric `s` via tridiagonalization + QL.
/// Same contract as JacobiEigen: eigenvalues descending, eigenvectors as
/// columns.
SymmetricEigen TridiagEigen(const Matrix& s);

/// Scratch-accepting variant: solves into scratch->result and returns a
/// reference to it (valid until the scratch is reused). Allocation-free
/// once the scratch has seen a problem of size >= s.rows(). `s` must not
/// alias any scratch member. This is the entry point of the FD shrink hot
/// path: a recycled scratch makes the whole eigensolve heap-free.
const SymmetricEigen& TridiagEigen(const Matrix& s,
                                   SymmetricEigenScratch* scratch);

/// Numerical rank of a Gram spectrum: the number of leading (descending)
/// eigenvalues lambda > 0 with sqrt(lambda) > 3e-6 * sqrt(lambda_max). The
/// Gram route squares the condition number: eigenvalues carry ~1e-12
/// relative noise, so their square roots carry ~1e-6; the cutoff sits
/// above that noise floor. ThinSvd, the FD shrink and DS-FD all truncate
/// with this one rule, so they retain the same directions.
size_t NumericalRank(const SymmetricEigen& eig);

}  // namespace swsketch

#endif  // SWSKETCH_LINALG_TRIDIAG_EIGEN_H_

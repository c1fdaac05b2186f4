// Symmetric eigensolver via Householder tridiagonalization followed by the
// implicit-shift QL iteration — the classic dense-symmetric path (EISPACK
// tred2/tql2 lineage). One O(n^3) reduction plus O(n^2)-per-eigenvalue
// iteration makes it faster than cyclic Jacobi at every size Frequent
// Directions shrinks (n >= 4), ~11x at n = 32 and ~19x at n = 64
// (micro_linalg). It is the one eigensolver of the FD shrink, the DS-FD
// compress, ThinSvd and the exact/PCA spectra; JacobiEigen remains only as
// its non-convergence fallback and as the small solver inside
// power/subspace iteration.
//
// Speed: the reduction keeps the full symmetric active block, so its
// matvec and rank-2 update, the transform accumulation and the QL
// rotations all run over contiguous rows on 4-lane vectors. The O(n^3)
// part has one source and two compiled clones, baseline and AVX2, picked
// once by cpuid (linalg/simd.h). Neither uses FMA and every reduction folds
// its lanes in one fixed order, so both clones return the same bits.
//
// Range: QL rotation radii are sqrt(f*f + g*g), not std::hypot. When
// max|T| of the tridiagonal leaves [2^-400, 2^500], (d, e) are scaled by a
// power of two first and the eigenvalues scaled back (as LAPACK dsteqr
// does), so no square overflows and none that matters underflows. The
// scaling is exact: a Gram scaled by 2^k gets eigenvalues scaled by 2^k.
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

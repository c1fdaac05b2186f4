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
// matvec and rank-2 update, the transform accumulation, the QL rotations
// and the kept vectors' back-transform all run over contiguous rows on
// 4-lane vectors. Each stage's O(n^3) part has one source and two
// compiled clones, baseline and AVX2, picked once by cpuid
// (linalg/simd.h). Neither uses FMA and every reduction folds its lanes in
// one fixed order, so both clones return the same bits.
//
// Kept vectors: every FD shrink, the LM tall merge and DS-FD's compress
// keep at most ell directions of an n x n problem, so TridiagEigen takes
// a vector count and returns all n eigenvalues but only the leading
// min(count, n) eigenvectors. Two stages reach them:
//  - accumulated: the reduction accumulates its transform and QL rotates
//    it, ~n^3 multiply-adds beyond the reduction whatever the count;
//  - kept vectors: the reduction keeps its reflectors, QL runs on (d, e)
//    with the rotations switched off (the scalar sequence is unchanged, so
//    the eigenvalues are bit-identical to the accumulated stage's), and
//    each wanted eigenvector of T comes from inverse iteration (LAPACK
//    dstein: pivoted tridiagonal LU of T - lambda I, fixed-seed start,
//    solves until it has grown for two solves, reorthogonalization within
//    clusters closer than 1e-3 ||T||, equal eigenvalues perturbed apart,
//    one unreduced block at a time). The reflectors then back-transform the
//    vectors, four at a time on the 4-lane kernels: count * n^2
//    multiply-adds plus O(count * n) for the iteration.
// The stage is one op-count rule (simd::InverseIterationIsCheaper):
// kept vectors when count * n * (n + 160) < n^3, calibrated on
// micro_linalg's BM_TridiagEigenVectors. Full and near-full solves and
// small n stay accumulated. Should inverse iteration not converge, the
// accumulated stage answers (same eigenvalue bits, vectors by QL).
// Either stage's vectors are orthonormal and backward stable, but they
// are not the same bits: a caller's output depends on the stage, which
// depends only on (n, count).
//
// Range: QL rotation radii are sqrt(f*f + g*g), not std::hypot. When
// max|T| of the tridiagonal leaves [2^-400, 2^500], (d, e) are scaled by a
// power of two first and the eigenvalues scaled back (as LAPACK dsteqr
// does), so no square overflows and none that matters underflows. The
// scaling is exact: a Gram scaled by 2^k gets eigenvalues scaled by 2^k.
// Inverse iteration always runs on T scaled by a power of two to
// max|T| in [1/2, 1).
#ifndef SWSKETCH_LINALG_TRIDIAG_EIGEN_H_
#define SWSKETCH_LINALG_TRIDIAG_EIGEN_H_

#include "linalg/jacobi_eigen.h"
#include "linalg/matrix.h"

namespace swsketch {

/// Full eigendecomposition of symmetric `s` via tridiagonalization + QL
/// (the accumulated stage).
/// Same contract as JacobiEigen: eigenvalues descending, eigenvectors as
/// columns.
SymmetricEigen TridiagEigen(const Matrix& s);

/// Scratch-accepting variant: solves into scratch->result and returns a
/// reference to it (valid until the scratch is reused). Allocation-free
/// once the scratch has seen a problem of size >= s.rows(). `s` must not
/// alias any scratch member.
const SymmetricEigen& TridiagEigen(const Matrix& s,
                                   SymmetricEigenScratch* scratch);

/// All n eigenvalues (descending) and only the leading
/// min(max_vectors, n) eigenvectors, as the columns of an n x count
/// matrix; the stage follows the rule above and
/// scratch->inverse_vectors says which one ran. This is the entry point of
/// the FD shrink and DS-FD compress hot paths: a recycled scratch makes
/// the whole eigensolve heap-free.
const SymmetricEigen& TridiagEigen(const Matrix& s,
                                   SymmetricEigenScratch* scratch,
                                   size_t max_vectors);

/// Numerical rank of a Gram spectrum: the number of leading (descending)
/// eigenvalues lambda > 0 with sqrt(lambda) > 3e-6 * sqrt(lambda_max). The
/// Gram route squares the condition number: eigenvalues carry ~1e-12
/// relative noise, so their square roots carry ~1e-6; the cutoff sits
/// above that noise floor. ThinSvd, the FD shrink and DS-FD all truncate
/// with this one rule, so they retain the same directions.
size_t NumericalRank(const SymmetricEigen& eig);

}  // namespace swsketch

#endif  // SWSKETCH_LINALG_TRIDIAG_EIGEN_H_

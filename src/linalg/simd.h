// Runtime SIMD target of the FD shrink kernels: Matrix::GramOuterInto and,
// inside TridiagEigen, the Householder reduction, the transform
// accumulation and QL rotations, and the kept vectors' inverse iteration
// and back-transform.
//
// Each kernel has one source, written on explicit 4-lane vectors (GCC
// vector extensions) with no fused multiply-add, and is compiled twice:
// for the baseline ISA and as a target("avx2") clone, picked at run time by
// linalg's one cpuid probe (Best() below). The one exception is the Gram
// tile, whose baseline form holds each 4-lane sum as two native 2-lane
// halves so that it fits SSE2's registers (matrix.cc). Lane arithmetic is
// plain IEEE mul/add and every reduction folds its lanes in one fixed
// order, so both clones return the same bits; the probe changes speed
// only. Builds that enable FMA (-march=native) keep that property because
// the library compiles with -ffp-contract=off.
//
// This header is internal to linalg, its tests and micro_linalg: the
// target and stage entry points below exist so a test can hold the two
// clones (and TridiagEigen's two eigenvector stages) against each other,
// and no option, flag or config reaches them.
#ifndef SWSKETCH_LINALG_SIMD_H_
#define SWSKETCH_LINALG_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "linalg/jacobi_eigen.h"
#include "linalg/matrix.h"

#define SWSKETCH_SIMD_INLINE inline __attribute__((always_inline))

// Whether the kernels get a target("avx2") clone (x86-64 GCC/Clang only).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SWSKETCH_SIMD_AVX2_CLONE 1
#else
#define SWSKETCH_SIMD_AVX2_CLONE 0
#endif

namespace swsketch {
namespace simd {

enum class Target : uint8_t { kBaseline, kAvx2 };

/// The clone the library's kernels run: kAvx2 when linalg's one cpuid
/// probe (matrix.cc) found AVX2 and FMA.
Target Best();

/// True when this process can run `target`'s clone.
bool Supported(Target target);

/// CHECK-fails unless Supported(target): the precondition of the target
/// entry points below, which would otherwise die of SIGILL.
void CheckSupported(Target target);

/// Four doubles, one per lane. Only ever a local of an always-inline
/// kernel body: passing it by value would change the ABI between clones.
typedef double Lanes4 __attribute__((vector_size(32)));

SWSKETCH_SIMD_INLINE void Load(Lanes4* v, const double* p) {
  std::memcpy(v, p, sizeof(Lanes4));
}

SWSKETCH_SIMD_INLINE void Store(double* p, const Lanes4& v) {
  std::memcpy(p, &v, sizeof(Lanes4));
}

/// The end of every 4-lane dot product: folds the lanes of `acc` (which
/// summed x[t] * y[t] for t < k, lane t mod 4) as (l0 + l1) + (l2 + l3),
/// then adds the terms t in [k, n) in ascending order.
SWSKETCH_SIMD_INLINE double FoldTail(const Lanes4& acc, const double* x,
                                     const double* y, size_t k, size_t n) {
  double s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; k < n; ++k) s += x[k] * y[k];
  return s;
}

/// The one dot product of the shrink kernels: lane l sums x[k] * y[k] over
/// k = l (mod 4) below n rounded down to 4, then FoldTail.
SWSKETCH_SIMD_INLINE double Dot(const double* x, const double* y, size_t n) {
  Lanes4 acc = {0.0, 0.0, 0.0, 0.0};
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    Lanes4 a, b;
    Load(&a, x + k);
    Load(&b, y + k);
    acc += a * b;
  }
  return FoldTail(acc, x, y, k, n);
}

/// out[r] = Dot(x_r, y, n) for four rows at once: the rows share every
/// load of y and their four lane chains interleave.
SWSKETCH_SIMD_INLINE void Dot4(const double* x0, const double* x1,
                               const double* x2, const double* x3,
                               const double* y, size_t n, double* out) {
  Lanes4 s0 = {}, s1 = {}, s2 = {}, s3 = {};
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    Lanes4 v, a0, a1, a2, a3;
    Load(&v, y + k);
    Load(&a0, x0 + k);
    Load(&a1, x1 + k);
    Load(&a2, x2 + k);
    Load(&a3, x3 + k);
    s0 += a0 * v;
    s1 += a1 * v;
    s2 += a2 * v;
    s3 += a3 * v;
  }
  out[0] = FoldTail(s0, x0, y, k, n);
  out[1] = FoldTail(s1, x1, y, k, n);
  out[2] = FoldTail(s2, x2, y, k, n);
  out[3] = FoldTail(s3, x3, y, k, n);
}

/// dst[k] -= a * x[k] + b * y[k] for k < n (elementwise, so lanes and
/// tail round alike).
SWSKETCH_SIMD_INLINE void SubtractScaled2(double* dst, double a,
                                          const double* x, double b,
                                          const double* y, size_t n) {
  Lanes4 av = {a, a, a, a}, bv = {b, b, b, b};
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    Lanes4 dv, xv, yv;
    Load(&dv, dst + k);
    Load(&xv, x + k);
    Load(&yv, y + k);
    dv -= av * xv + bv * yv;
    Store(dst + k, dv);
  }
  for (; k < n; ++k) dst[k] -= a * x[k] + b * y[k];
}

/// dst[k] -= a * x[k] for k < n.
SWSKETCH_SIMD_INLINE void SubtractScaled(double* dst, double a,
                                         const double* x, size_t n) {
  Lanes4 av = {a, a, a, a};
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    Lanes4 dv, xv;
    Load(&dv, dst + k);
    Load(&xv, x + k);
    dv -= av * xv;
    Store(dst + k, dv);
  }
  for (; k < n; ++k) dst[k] -= a * x[k];
}

/// The Givens rotation of two rows: (x, y) <- (c x - s y, s x + c y).
SWSKETCH_SIMD_INLINE void Rotate(double* x, double* y, double c, double s,
                                 size_t n) {
  Lanes4 cv = {c, c, c, c}, sv = {s, s, s, s};
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    Lanes4 xv, yv;
    Load(&xv, x + k);
    Load(&yv, y + k);
    const Lanes4 nx = cv * xv - sv * yv;
    const Lanes4 ny = sv * xv + cv * yv;
    Store(x + k, nx);
    Store(y + k, ny);
  }
  for (; k < n; ++k) {
    const double xk = x[k], yk = y[k];
    x[k] = c * xk - s * yk;
    y[k] = s * xk + c * yk;
  }
}

/// Matrix::GramOuterInto on the clone for `target` (CheckSupported).
void GramOuterInto(const Matrix& a, Matrix* out, Target target);

/// TridiagEigen's two ways to the eigenvectors (tridiag_eigen.h): the
/// accumulated transform plus QL rotations, or rotation-free QL followed by
/// inverse iteration and a back-transform of the kept vectors alone.
enum class EigenStage : uint8_t { kAccumulated, kKeptVectors };

/// TridiagEigen's op-count rule: true when the kept-vector stage is
/// predicted to cost less than the accumulated one for `count` of `n`
/// eigenvectors.
bool InverseIterationIsCheaper(size_t n, size_t count);

/// TridiagEigen(s, scratch, max_vectors) on the clone for `target`
/// (CheckSupported) and on `stage`, whatever the rule would pick. The
/// kept-vector stage falls back to the accumulated one if inverse
/// iteration fails.
const SymmetricEigen& TridiagEigen(const Matrix& s,
                                   SymmetricEigenScratch* scratch,
                                   Target target, size_t max_vectors,
                                   EigenStage stage);

}  // namespace simd
}  // namespace swsketch

#endif  // SWSKETCH_LINALG_SIMD_H_

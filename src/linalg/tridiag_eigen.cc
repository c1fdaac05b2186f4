#include "linalg/tridiag_eigen.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "linalg/simd.h"
#include "util/logging.h"

namespace swsketch {
namespace {

// Householder reduction of symmetric a (n x n, clobbered) to tridiagonal
// form: sub-diagonal in e[1..n-1] (EISPACK tred2), and in d[i] the h of
// step i (0 when the step reflects nothing). Unlike classic tred2, which
// updates only the lower triangle, each step updates the whole active
// block a[0..i)[0..i), so every row holds its full symmetric row and the
// symmetric matvec p = A u is one simd::Dot per contiguous row (four rows
// share each load of u) instead of a stride-n column walk. The rank-2
// update a(j, k) -= u_j p_k + p_j u_k keeps the block exactly symmetric:
// (j, k) and (k, j) add the same two products in swapped order. p
// accumulates in e[0..i), which tred2 already uses as scratch. Step i
// leaves its Householder vector u in row i (a[i][0..i)) and u / h in
// column i above the diagonal; the diagonal of T is a(i, i) afterwards.
SWSKETCH_SIMD_INLINE void Tred2Reduce(Matrix* a_ptr, std::vector<double>* d_ptr,
                                      std::vector<double>* e_ptr) {
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
}

// Applies reflector i of the reduction to the first `count` rows of
// `rows`: each row v loses (v . u) u / h on its entries [0, i), where u is
// row i of the reduced `a` and `hc` stages u / h (column i of `a`)
// contiguously. Four rows share each load of u.
SWSKETCH_SIMD_INLINE void ReflectRows(const Matrix& a, size_t i,
                                      const double* hc, size_t count,
                                      Matrix* rows) {
  const double* ai = a.RowPtr(i);
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    double g[4];
    simd::Dot4(rows->RowPtr(j), rows->RowPtr(j + 1), rows->RowPtr(j + 2),
               rows->RowPtr(j + 3), ai, i, g);
    for (size_t r = 0; r < 4; ++r) {
      simd::SubtractScaled(rows->RowPtr(j + r), g[r], hc, i);
    }
  }
  for (; j < count; ++j) {
    simd::SubtractScaled(rows->RowPtr(j), simd::Dot(rows->RowPtr(j), ai, i),
                         hc, i);
  }
}

// Stages column i of a above the diagonal (u / h of step i) in hcol.
SWSKETCH_SIMD_INLINE const double* StageReflector(const Matrix& a, size_t i,
                                                  std::vector<double>* hcol) {
  for (size_t k = 0; k < i; ++k) (*hcol)[k] = a(k, i);
  return hcol->data();
}

// The reduction, then the accumulated orthogonal transform built in a
// separate matrix `q` stored TRANSPOSED (basis vectors as rows), so the
// accumulation also runs over contiguous rows: row j of q is column j of
// the classic in-place accumulator, and the border entries outside the
// active window are the same implicit identity/zero that the in-place
// form maintains by zeroing row/column i. Leaves the diagonal of T in d.
SWSKETCH_SIMD_INLINE void Tred2Transposed(Matrix* a_ptr,
                                          std::vector<double>* d_ptr,
                                          std::vector<double>* e_ptr,
                                          Matrix* q_ptr,
                                          std::vector<double>* hcol_ptr) {
  Tred2Reduce(a_ptr, d_ptr, e_ptr);
  const Matrix& a = *a_ptr;
  std::vector<double>& d = *d_ptr;
  Matrix& q = *q_ptr;
  const size_t n = a.rows();
  q.ResetShape(n, n);
  hcol_ptr->assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) ReflectRows(a, i, StageReflector(a, i, hcol_ptr), i, &q);
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
//
// Without kRotate the rotations are skipped and the scalar sequence, and
// so every eigenvalue bit, is unchanged. Instead `reach` records, for each
// l, the largest m that QL ever iterated [l, m] on: indices it never
// rotated together lie in separate unreduced blocks (UnreducedBlocks).
// Returns false if an eigenvalue fails to converge.
template <bool kRotate>
SWSKETCH_SIMD_INLINE bool Tql2Transposed(std::vector<double>* d_ptr,
                                         std::vector<double>* e_ptr,
                                         Matrix* z_ptr,
                                         std::vector<size_t>* reach) {
  std::vector<double>& d = *d_ptr;
  std::vector<double>& e = *e_ptr;
  const size_t n = d.size();
  if (n == 0) return true;
  if constexpr (!kRotate) {
    reach->resize(n);
    std::iota(reach->begin(), reach->end(), size_t{0});
  }
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
        if constexpr (!kRotate) (*reach)[l] = std::max((*reach)[l], m);
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
          if constexpr (kRotate) {
            simd::Rotate(z_ptr->RowPtr(i), z_ptr->RowPtr(i + 1), c, s, n);
          }
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

// Turns Tql2Transposed's `reach` into unreduced blocks in place: entry i
// becomes the first index of i's block, the union of every iterated
// [l, m] that chains to i.
void UnreducedBlocks(std::vector<size_t>* reach) {
  std::vector<size_t>& b = *reach;
  const size_t n = b.size();
  for (size_t start = 0, i = 0; start < n; start = i) {
    size_t end = start;
    for (; i <= end; ++i) {
      end = std::max(end, b[i]);
      b[i] = start;
    }
  }
}

// Inverse iteration on one unreduced block, after LAPACK dstein. The
// block is T[bs, bs + bn) (diagonal td, coupling te[k] between k and k+1,
// already scaled so max|T| is about 1); `shifts` are its wanted
// eigenvalues in descending order on the same scale, `cols` the rows of
// `vectors` that receive them (zero outside the block). Each vector gets a
// partial-pivot LU of T - x I (dgttrf), a fixed-seed start in (-1, 1) and
// solves until it has grown past sqrt(0.1 / bn) for two solves running.
// Eigenvalues closer than 1e-3 ||T_block|| form a cluster whose vectors are
// reorthogonalized against each other after every solve; a shift within
// 10 eps max(|x|, ||T_block||) of the previous one is pushed that far
// apart. `lu` holds 5 bn doubles.
// Returns false when a vector fails to converge in five solves.
SWSKETCH_SIMD_INLINE bool InverseIterateBlock(const double* td,
                                              const double* te, size_t bn,
                                              const double* shifts,
                                              const size_t* cols, size_t count,
                                              size_t bs, double* lu,
                                              Matrix* vectors) {
  constexpr double kEps = DBL_EPSILON;
  constexpr int kMaxSolves = 5;
  constexpr int kGrownSolves = 2;
  double* u0 = lu;
  double* u1 = lu + bn;
  double* u2 = lu + 2 * bn;
  double* mult = lu + 3 * bn;
  double* swapped = lu + 4 * bn;
  if (bn == 1) {
    for (size_t j = 0; j < count; ++j) (*vectors)(cols[j], bs) = 1.0;
    return true;
  }
  double onenrm = 0.0;
  for (size_t k = 0; k < bn; ++k) {
    const double left = k > 0 ? std::fabs(te[k - 1]) : 0.0;
    const double right = k + 1 < bn ? std::fabs(te[k]) : 0.0;
    onenrm = std::max(onenrm, std::fabs(td[k]) + left + right);
  }
  const double ortol = 1e-3 * onenrm;
  const double grown = std::sqrt(0.1 / static_cast<double>(bn));
  const double tiny = kEps * onenrm;
  double xprev = 0.0;
  size_t cluster = 0;
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (size_t j = 0; j < count; ++j) {
    double x = shifts[j];
    if (j > 0) {
      if (xprev - x > ortol) cluster = j;
      const double pertol = 10.0 * kEps * std::max(std::fabs(x), onenrm);
      if (xprev - x < pertol) x = xprev - pertol;
    } else {
      cluster = 0;
    }
    xprev = x;

    // LU of T - x I with partial pivoting: row k of U is (u0, u1, u2) at
    // columns k, k + 1, k + 2; mult[k] eliminates row k + 1.
    for (size_t k = 0; k < bn; ++k) {
      u0[k] = td[k] - x;
      u1[k] = k + 1 < bn ? te[k] : 0.0;
      u2[k] = 0.0;
      mult[k] = k + 1 < bn ? te[k] : 0.0;
    }
    for (size_t k = 0; k + 1 < bn; ++k) {
      if (std::fabs(u0[k]) >= std::fabs(mult[k])) {
        swapped[k] = 0.0;
        const double f = u0[k] != 0.0 ? mult[k] / u0[k] : 0.0;
        mult[k] = f;
        u0[k + 1] -= f * u1[k];
      } else {
        swapped[k] = 1.0;
        const double f = u0[k] / mult[k];
        u0[k] = mult[k];
        mult[k] = f;
        const double t = u1[k];
        u1[k] = u0[k + 1];
        u0[k + 1] = t - f * u0[k + 1];
        if (k + 2 < bn) {
          u2[k] = u1[k + 1];
          u1[k + 1] = -f * u1[k + 1];
        }
      }
    }
    // The right-hand side is scaled to 1-norm bn * floor, floor being the
    // smallest residual the shift allows, so that a converged vector has
    // grown to at least 1 in the max norm whatever the block's scale.
    const double floor =
        std::max({tiny, std::fabs(u0[bn - 1]), std::fabs(x - shifts[j])});
    // Pivots below eps ||T|| are pushed out to it; u0 keeps reciprocals.
    for (size_t k = 0; k < bn; ++k) {
      if (std::fabs(u0[k]) < tiny) u0[k] = u0[k] < 0.0 ? -tiny : tiny;
      u0[k] = 1.0 / u0[k];
    }

    double* v = vectors->RowPtr(cols[j]) + bs;
    for (size_t k = 0; k < bn; ++k) {
      seed += 0x9e3779b97f4a7c15ULL;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      v[k] = 2.0 * (static_cast<double>(z >> 11) * 0x1p-53) - 1.0;
    }
    int grown_solves = 0;
    for (int solve = 0; solve < kMaxSolves && grown_solves < kGrownSolves;
         ++solve) {
      double asum = 0.0;
      for (size_t k = 0; k < bn; ++k) asum += std::fabs(v[k]);
      if (!(asum > 0.0)) return false;
      const double scl = static_cast<double>(bn) * floor / asum;
      for (size_t k = 0; k < bn; ++k) v[k] *= scl;
      // Solve (T - x I) y = v: L (with the row swaps), then U.
      for (size_t k = 0; k + 1 < bn; ++k) {
        if (swapped[k] != 0.0) {
          const double t = v[k];
          v[k] = v[k + 1];
          v[k + 1] = t - mult[k] * v[k];
        } else {
          v[k + 1] -= mult[k] * v[k];
        }
      }
      v[bn - 1] *= u0[bn - 1];
      v[bn - 2] = (v[bn - 2] - u1[bn - 2] * v[bn - 1]) * u0[bn - 2];
      for (size_t k = bn - 2; k-- > 0;) {
        v[k] = (v[k] - u1[k] * v[k + 1] - u2[k] * v[k + 2]) * u0[k];
      }
      for (size_t p = cluster; p < j; ++p) {
        const double* w = vectors->RowPtr(cols[p]) + bs;
        double dot = 0.0;
        for (size_t k = 0; k < bn; ++k) dot += v[k] * w[k];
        for (size_t k = 0; k < bn; ++k) v[k] -= dot * w[k];
      }
      double big = 0.0;
      for (size_t k = 0; k < bn; ++k) big = std::max(big, std::fabs(v[k]));
      if (!(big <= DBL_MAX)) return false;
      if (big >= grown) ++grown_solves;
    }
    if (grown_solves < kGrownSolves) return false;
    double norm_sq = 0.0;
    size_t peak = 0;
    for (size_t k = 0; k < bn; ++k) {
      norm_sq += v[k] * v[k];
      if (std::fabs(v[k]) > std::fabs(v[peak])) peak = k;
    }
    const double inv = (v[peak] < 0.0 ? -1.0 : 1.0) / std::sqrt(norm_sq);
    for (size_t k = 0; k < bn; ++k) v[k] *= inv;
  }
  return true;
}

// The kept-vector stage after the rotation-free QL: the `count` leading
// (descending) eigenvectors of T by inverse iteration, one unreduced block
// at a time, into rows [0, count) of scratch->accum, then back-transformed
// to eigenvectors of the input by the stored reflectors, applied in the
// order H_1 first, H_{n-1} last (the transpose of the accumulated
// transform). Returns false when inverse iteration fails.
SWSKETCH_SIMD_INLINE bool InverseIterateAndBackTransform(
    SymmetricEigenScratch* scratch, size_t count) {
  const size_t n = scratch->diag.size();
  const std::vector<size_t>& order = scratch->order;
  const std::vector<size_t>& block = scratch->block;
  std::vector<double>& band = scratch->band;
  double* td = band.data();          // T's diagonal, scaled.
  double* te = band.data() + n;      // T's coupling e[k] of k and k + 1.
  double* shifts = band.data() + 2 * n;
  double* lu = band.data() + 3 * n;  // 5 n doubles.
  double tnorm = 0.0;
  for (size_t k = 0; k < n; ++k) {
    tnorm = std::max({tnorm, std::fabs(td[k]), std::fabs(te[k])});
  }
  int exponent = 0;
  if (tnorm > 0.0) std::frexp(tnorm, &exponent);
  for (size_t k = 0; k < n; ++k) {
    td[k] = std::ldexp(td[k], -exponent);
    te[k] = std::ldexp(te[k], -exponent);
  }

  // Wanted columns grouped by block, descending within each block.
  std::vector<size_t>& cols = scratch->wanted;
  cols.resize(count);
  std::iota(cols.begin(), cols.end(), size_t{0});
  std::sort(cols.begin(), cols.end(), [&](size_t x, size_t y) {
    const size_t bx = block[order[x]], by = block[order[y]];
    return bx != by ? bx < by : x < y;
  });
  Matrix& v = scratch->accum;
  v.ResetShape(count, n);
  for (size_t g = 0; g < count;) {
    const size_t bs = block[order[cols[g]]];
    size_t be = bs + 1;
    while (be < n && block[be] == bs) ++be;
    size_t g_end = g;
    for (; g_end < count && block[order[cols[g_end]]] == bs; ++g_end) {
      shifts[g_end - g] =
          std::ldexp(scratch->diag[order[cols[g_end]]], -exponent);
    }
    if (!InverseIterateBlock(td + bs, te + bs, be - bs, shifts, &cols[g],
                             g_end - g, bs, lu, &v)) {
      return false;
    }
    g = g_end;
  }

  const Matrix& a = scratch->work;
  for (size_t i = 1; i < n; ++i) {
    if (scratch->tau[i] != 0.0) {
      ReflectRows(a, i, StageReflector(a, i, &scratch->hcol), count, &v);
    }
  }
  return true;
}

void SortDescending(const std::vector<double>& d, std::vector<size_t>* order) {
  order->resize(d.size());
  std::iota(order->begin(), order->end(), size_t{0});
  std::sort(order->begin(), order->end(),
            [&](size_t x, size_t y) { return d[x] > d[y]; });
}

enum class Outcome { kSolved, kQlFailed, kVectorsFailed };

// The accumulated stage, the whole O(n^3) part of the solve on
// scratch->work: reduction with the transform, QL with the rotations;
// every eigenvector is a row of scratch->accum. Leaves the eigenvalues in
// diag and their descending order in order. Compiled once per SIMD target.
SWSKETCH_SIMD_INLINE Outcome TridiagonalizeAndIterate(
    SymmetricEigenScratch* scratch) {
  Tred2Transposed(&scratch->work, &scratch->diag, &scratch->off,
                  &scratch->accum, &scratch->hcol);
  if (!Tql2Transposed<true>(&scratch->diag, &scratch->off, &scratch->accum,
                            nullptr)) {
    return Outcome::kQlFailed;
  }
  SortDescending(scratch->diag, &scratch->order);
  return Outcome::kSolved;
}

// The kept-vector stage: reduction alone (the reflectors stay in work,
// their h in tau), QL without rotations while a copy of T waits in band,
// then InverseIterateAndBackTransform into rows [0, count) of accum. Same
// outputs in diag and order as the accumulated stage, same bits.
SWSKETCH_SIMD_INLINE Outcome KeptVectors(SymmetricEigenScratch* scratch,
                                         size_t count) {
  Tred2Reduce(&scratch->work, &scratch->diag, &scratch->off);
  const size_t n = scratch->diag.size();
  scratch->tau = scratch->diag;
  scratch->hcol.assign(n, 0.0);
  scratch->band.assign(8 * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    scratch->diag[i] = scratch->work(i, i);
    scratch->band[i] = scratch->diag[i];
    if (i + 1 < n) scratch->band[n + i] = scratch->off[i + 1];
  }
  if (!Tql2Transposed<false>(&scratch->diag, &scratch->off, nullptr,
                             &scratch->block)) {
    return Outcome::kQlFailed;
  }
  UnreducedBlocks(&scratch->block);
  SortDescending(scratch->diag, &scratch->order);
  return InverseIterateAndBackTransform(scratch, count)
             ? Outcome::kSolved
             : Outcome::kVectorsFailed;
}

Outcome TridiagonalizeAndIterateBaseline(SymmetricEigenScratch* scratch) {
  return TridiagonalizeAndIterate(scratch);
}

Outcome KeptVectorsBaseline(SymmetricEigenScratch* scratch, size_t count) {
  return KeptVectors(scratch, count);
}

#if SWSKETCH_SIMD_AVX2_CLONE
__attribute__((target("avx2"))) Outcome TridiagonalizeAndIterateAvx2(
    SymmetricEigenScratch* scratch) {
  return TridiagonalizeAndIterate(scratch);
}

__attribute__((target("avx2"))) Outcome KeptVectorsAvx2(
    SymmetricEigenScratch* scratch, size_t count) {
  return KeptVectors(scratch, count);
}
#endif

Outcome SolveOn(simd::Target target, const Matrix& s,
                SymmetricEigenScratch* scratch, size_t count, bool inverse) {
  // Symmetrize into the workspace.
  const size_t n = s.rows();
  Matrix& a = scratch->work;
  a.ResetShape(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = 0.5 * (s(i, j) + s(j, i));
  }
#if SWSKETCH_SIMD_AVX2_CLONE
  if (target == simd::Target::kAvx2) {
    return inverse ? KeptVectorsAvx2(scratch, count)
                   : TridiagonalizeAndIterateAvx2(scratch);
  }
#endif
  return inverse ? KeptVectorsBaseline(scratch, count)
                 : TridiagonalizeAndIterateBaseline(scratch);
}

// The kept-vector stage costs about count * n^2 back-transform
// multiply-adds plus kVectorCost * n per vector (LU and two solves, whose
// division and recurrence chains run at scalar latency); the accumulated
// stage about n^3 for the transform and the rotations. Calibrated on
// micro_linalg's BM_TridiagEigenVectors (EXPERIMENTS.md "Kept eigenvectors
// only"): over 26 shapes from n = 8 to 200 the rule picks the faster stage
// in 23 and loses 5-14% in the other three, all near count = n / 2.
constexpr double kVectorCost = 160.0;

}  // namespace

bool simd::InverseIterationIsCheaper(size_t n, size_t count) {
  const double nd = static_cast<double>(n);
  return static_cast<double>(count) * nd * (nd + kVectorCost) < nd * nd * nd;
}

SymmetricEigen TridiagEigen(const Matrix& s) {
  SymmetricEigenScratch scratch;
  TridiagEigen(s, &scratch);
  return std::move(scratch.result);
}

const SymmetricEigen& TridiagEigen(const Matrix& s,
                                   SymmetricEigenScratch* scratch) {
  return TridiagEigen(s, scratch, s.rows());
}

const SymmetricEigen& TridiagEigen(const Matrix& s,
                                   SymmetricEigenScratch* scratch,
                                   size_t max_vectors) {
  const size_t count = std::min(max_vectors, s.rows());
  return simd::TridiagEigen(
      s, scratch, simd::Best(), count,
      simd::InverseIterationIsCheaper(s.rows(), count)
          ? simd::EigenStage::kKeptVectors
          : simd::EigenStage::kAccumulated);
}

const SymmetricEigen& simd::TridiagEigen(const Matrix& s,
                                         SymmetricEigenScratch* scratch,
                                         Target target, size_t max_vectors,
                                         EigenStage stage) {
  SWSKETCH_CHECK_EQ(s.rows(), s.cols());
  CheckSupported(target);
  const size_t n = s.rows();
  const size_t count = std::min(max_vectors, n);
  SymmetricEigen& out = scratch->result;
  scratch->inverse_vectors = false;
  if (n <= 1) {
    out.eigenvalues.assign(n, n == 1 ? s(0, 0) : 0.0);
    out.eigenvectors.ResetShape(n, count);
    if (count == 1) out.eigenvectors(0, 0) = 1.0;
    return out;
  }

  bool inverse = stage == EigenStage::kKeptVectors;
  Outcome outcome = SolveOn(target, s, scratch, count, inverse);
  if (outcome == Outcome::kVectorsFailed) {
    // Inverse iteration did not converge: the accumulated stage returns
    // the same eigenvalue bits with every vector.
    inverse = false;
    outcome = SolveOn(target, s, scratch, count, inverse);
  }
  if (outcome == Outcome::kQlFailed) {
    // Extremely rare non-convergence: fall back to the robust solver
    // (restarts from `s`, so overwriting the scratch is safe), keeping
    // `count` leading columns.
    JacobiEigen(s, scratch);
    if (count < n) {
      Matrix& kept = scratch->accum;
      kept.ResetShape(n, count);
      for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < count; ++c) {
          kept(r, c) = out.eigenvectors(r, c);
        }
      }
      std::swap(kept, out.eigenvectors);
    }
    return out;
  }

  // Eigenvector column c is row order[c] of the transposed accumulator, or
  // row c of the kept vectors.
  const std::vector<double>& d = scratch->diag;
  const std::vector<size_t>& order = scratch->order;
  const Matrix& rows = scratch->accum;
  out.eigenvalues.resize(n);
  for (size_t c = 0; c < n; ++c) out.eigenvalues[c] = d[order[c]];
  out.eigenvectors.ResetShape(n, count);
  for (size_t c = 0; c < count; ++c) {
    const double* zc = rows.RowPtr(inverse ? c : order[c]);
    for (size_t r = 0; r < n; ++r) out.eigenvectors(r, c) = zc[r];
  }
  scratch->inverse_vectors = inverse;
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

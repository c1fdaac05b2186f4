#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "linalg/simd.h"

#if SWSKETCH_SIMD_AVX2_CLONE
#include <immintrin.h>
#endif

#include "util/logging.h"
#include "util/parallel.h"

namespace swsketch {

namespace {

// Blocking parameters for the dense kernels (see DESIGN.md "Performance").
// Tiles are sized so an output tile plus the active input panel stay in
// L1/L2: a kGramTileI x kGramTileJ accumulator tile is 36 KB.
constexpr size_t kGramTileI = 48;
constexpr size_t kGramTileJ = 96;
constexpr size_t kGramRowPanel = 64;
constexpr size_t kMultiplyKPanel = 128;

// Minimum multiply-add count before a kernel fans out to the thread pool;
// below this the submit/wake latency dominates.
constexpr size_t kParallelFlopThreshold = size_t{1} << 22;  // ~4M madds.

// The one CPU probe of linalg, read once at load time (cpuid). Every clone
// dispatch reads this flag and nothing else: FusedAccumulate runs its FMA
// chains and the shrink kernels their AVX2 clone (simd::Best) when it is
// set. The shrink clone needs only AVX2, but Intel and AMD CPUs with AVX2
// all have FMA (since Haswell and Excavator), and a CPU without FMA runs
// the baseline clone, which returns the same bits.
#if SWSKETCH_SIMD_AVX2_CLONE
const bool kCpuAvx2Fma =
    __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
constexpr bool kCpuAvx2Fma = false;
#endif

// Fused 4-row accumulation, the inner loop shared by Gram / Multiply /
// ApplyTranspose: dst[j] += v0*a0[j] + v1*a1[j] + v2*a2[j] + v3*a3[j] for
// j in [js, je).
//
// SIMD dispatch: on x86-64 the loop runs on 256-bit fmadd chains whenever
// the CPU has AVX2+FMA (kCpuAvx2Fma), so plain -O3 builds get the fast
// path on capable hardware too. The scalar remainder of the AVX2 path uses
// std::fma in the SAME association order as the vector lanes, so every
// output element — main loop or tail — rounds identically. The fallback
// keeps the plain mul+add form (which auto-vectorizes and, with
// -ffp-contract=off, is never contracted, so it too is deterministic).
// The active per-element formula is exposed as
// Matrix::FusedKernelsUseFmaChains() and pinned by the kernel tests;
// determinism is per build *and host CPU class*, which is
// all the repo's bit-identity contracts (parallel-vs-serial, batch-vs-
// serial) require — they never compare numbers across machines.
#if SWSKETCH_SIMD_AVX2_CLONE

__attribute__((target("avx2,fma"))) void FusedAccumulate4Avx2(
    double* dst, const double* a0, const double* a1, const double* a2,
    const double* a3, double v0, double v1, double v2, double v3, size_t js,
    size_t je) {
  const __m256d w0 = _mm256_set1_pd(v0);
  const __m256d w1 = _mm256_set1_pd(v1);
  const __m256d w2 = _mm256_set1_pd(v2);
  const __m256d w3 = _mm256_set1_pd(v3);
  size_t j = js;
  for (; j + 4 <= je; j += 4) {
    __m256d acc = _mm256_loadu_pd(dst + j);
    acc = _mm256_fmadd_pd(w0, _mm256_loadu_pd(a0 + j), acc);
    acc = _mm256_fmadd_pd(w1, _mm256_loadu_pd(a1 + j), acc);
    acc = _mm256_fmadd_pd(w2, _mm256_loadu_pd(a2 + j), acc);
    acc = _mm256_fmadd_pd(w3, _mm256_loadu_pd(a3 + j), acc);
    _mm256_storeu_pd(dst + j, acc);
  }
  for (; j < je; ++j) {
    dst[j] = std::fma(
        v3, a3[j], std::fma(v2, a2[j], std::fma(v1, a1[j],
                                                std::fma(v0, a0[j], dst[j]))));
  }
}

__attribute__((target("avx2,fma"))) void FusedAccumulate1Avx2(
    double* dst, const double* a, double v, size_t js, size_t je) {
  const __m256d w = _mm256_set1_pd(v);
  size_t j = js;
  for (; j + 4 <= je; j += 4) {
    __m256d acc = _mm256_loadu_pd(dst + j);
    acc = _mm256_fmadd_pd(w, _mm256_loadu_pd(a + j), acc);
    _mm256_storeu_pd(dst + j, acc);
  }
  for (; j < je; ++j) dst[j] = std::fma(v, a[j], dst[j]);
}

#endif  // SWSKETCH_SIMD_AVX2_CLONE

inline void FusedAccumulate4(double* dst, const double* a0, const double* a1,
                             const double* a2, const double* a3, double v0,
                             double v1, double v2, double v3, size_t js,
                             size_t je) {
#if SWSKETCH_SIMD_AVX2_CLONE
  if (kCpuAvx2Fma) {
    FusedAccumulate4Avx2(dst, a0, a1, a2, a3, v0, v1, v2, v3, js, je);
    return;
  }
#endif
  for (size_t j = js; j < je; ++j) {
    dst[j] += v0 * a0[j] + v1 * a1[j] + v2 * a2[j] + v3 * a3[j];
  }
}

// Single-row tail of the fused accumulation: dst[j] += v * a[j].
inline void FusedAccumulate1(double* dst, const double* a, double v, size_t js,
                             size_t je) {
#if SWSKETCH_SIMD_AVX2_CLONE
  if (kCpuAvx2Fma) {
    FusedAccumulate1Avx2(dst, a, v, js, je);
    return;
  }
#endif
  for (size_t j = js; j < je; ++j) dst[j] += v * a[j];
}

// Accumulates the upper triangle of A^T A into g for the column band
// [i_begin, i_end): g(i, j) += sum_r a(r, i) * a(r, j) for j >= i. Rows
// are consumed in panels of four with a fused inner loop, so each store
// to g amortizes four multiply-adds. The accumulation order for a given
// (i, j) is independent of the banding, which keeps parallel and serial
// results bit-identical.
void AccumulateGramUpperBand(const Matrix& a, Matrix* g, size_t i_begin,
                             size_t i_end) {
  const size_t rows = a.rows();
  const size_t d = a.cols();
  for (size_t r0 = 0; r0 < rows; r0 += kGramRowPanel) {
    const size_t r1 = std::min(r0 + kGramRowPanel, rows);
    for (size_t i0 = i_begin; i0 < i_end; i0 += kGramTileI) {
      const size_t i1 = std::min(i0 + kGramTileI, i_end);
      for (size_t j0 = i0; j0 < d; j0 += kGramTileJ) {
        const size_t j1 = std::min(j0 + kGramTileJ, d);
        for (size_t i = i0; i < i1; ++i) {
          double* grow = g->RowPtr(i);
          const size_t js = std::max(j0, i);
          size_t r = r0;
          for (; r + 3 < r1; r += 4) {
            const double* a0 = a.RowPtr(r);
            const double* a1 = a.RowPtr(r + 1);
            const double* a2 = a.RowPtr(r + 2);
            const double* a3 = a.RowPtr(r + 3);
            const double v0 = a0[i], v1 = a1[i], v2 = a2[i], v3 = a3[i];
            if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
            FusedAccumulate4(grow, a0, a1, a2, a3, v0, v1, v2, v3, js, j1);
          }
          for (; r < r1; ++r) {
            const double* ar = a.RowPtr(r);
            const double vi = ar[i];
            if (vi == 0.0) continue;
            FusedAccumulate1(grow, ar, vi, js, j1);
          }
        }
      }
    }
  }
}

// Entries (i..i+1, j..j+3) of A A^T. Each is simd::Dot of its two rows;
// the tile only keeps the lanes of all eight dots in registers so every
// row load feeds four (or two) of them: 8 accumulators and 6 loads fill
// the AVX2 clone's 16 YMM registers.
SWSKETCH_SIMD_INLINE void GramOuterTile2x4(const Matrix& a, size_t i,
                                           size_t j, Matrix* g) {
  const size_t d = a.cols();
  const double* x0 = a.RowPtr(i);
  const double* x1 = a.RowPtr(i + 1);
  const double* y0 = a.RowPtr(j);
  const double* y1 = a.RowPtr(j + 1);
  const double* y2 = a.RowPtr(j + 2);
  const double* y3 = a.RowPtr(j + 3);
  simd::Lanes4 s00 = {}, s01 = {}, s02 = {}, s03 = {};
  simd::Lanes4 s10 = {}, s11 = {}, s12 = {}, s13 = {};
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    simd::Lanes4 u0, u1, v0, v1, v2, v3;
    simd::Load(&u0, x0 + k);
    simd::Load(&u1, x1 + k);
    simd::Load(&v0, y0 + k);
    simd::Load(&v1, y1 + k);
    simd::Load(&v2, y2 + k);
    simd::Load(&v3, y3 + k);
    s00 += u0 * v0;
    s01 += u0 * v1;
    s02 += u0 * v2;
    s03 += u0 * v3;
    s10 += u1 * v0;
    s11 += u1 * v1;
    s12 += u1 * v2;
    s13 += u1 * v3;
  }
  double* g0 = g->RowPtr(i) + j;
  double* g1 = g->RowPtr(i + 1) + j;
  g0[0] = simd::FoldTail(s00, x0, y0, k, d);
  g0[1] = simd::FoldTail(s01, x0, y1, k, d);
  g0[2] = simd::FoldTail(s02, x0, y2, k, d);
  g0[3] = simd::FoldTail(s03, x0, y3, k, d);
  g1[0] = simd::FoldTail(s10, x1, y0, k, d);
  g1[1] = simd::FoldTail(s11, x1, y1, k, d);
  g1[2] = simd::FoldTail(s12, x1, y2, k, d);
  g1[3] = simd::FoldTail(s13, x1, y3, k, d);
}

// The baseline clone's tile, entries (i..i+1, j..j+1). On SSE2 a Lanes4
// is lowered to two XMM halves through memory, and the 2 x 4 tile's
// accumulators live on the stack; this tile keeps each entry's four lanes
// as two native 2-lane halves, (l0, l1) and (l2, l3), in 8 XMM
// registers, next to 4 loads. Lane l still sums x[k] * y[k] over
// k = l (mod 4) in ascending k and folds as (l0 + l1) + (l2 + l3), so every
// entry keeps simd::Dot's bits.
SWSKETCH_SIMD_INLINE void GramOuterTile2x2(const Matrix& a, size_t i,
                                           size_t j, Matrix* g) {
  typedef double Lanes2 __attribute__((vector_size(16)));
  const size_t d = a.cols();
  const double* x[2] = {a.RowPtr(i), a.RowPtr(i + 1)};
  const double* y[2] = {a.RowPtr(j), a.RowPtr(j + 1)};
  Lanes2 lo00 = {}, lo01 = {}, lo10 = {}, lo11 = {};
  Lanes2 hi00 = {}, hi01 = {}, hi10 = {}, hi11 = {};
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    Lanes2 u0, u1, v0, v1;
    std::memcpy(&u0, x[0] + k, sizeof(Lanes2));
    std::memcpy(&u1, x[1] + k, sizeof(Lanes2));
    std::memcpy(&v0, y[0] + k, sizeof(Lanes2));
    std::memcpy(&v1, y[1] + k, sizeof(Lanes2));
    lo00 += u0 * v0;
    lo01 += u0 * v1;
    lo10 += u1 * v0;
    lo11 += u1 * v1;
    std::memcpy(&u0, x[0] + k + 2, sizeof(Lanes2));
    std::memcpy(&u1, x[1] + k + 2, sizeof(Lanes2));
    std::memcpy(&v0, y[0] + k + 2, sizeof(Lanes2));
    std::memcpy(&v1, y[1] + k + 2, sizeof(Lanes2));
    hi00 += u0 * v0;
    hi01 += u0 * v1;
    hi10 += u1 * v0;
    hi11 += u1 * v1;
  }
  const Lanes2 lo[2][2] = {{lo00, lo01}, {lo10, lo11}};
  const Lanes2 hi[2][2] = {{hi00, hi01}, {hi10, hi11}};
  for (size_t r = 0; r < 2; ++r) {
    double* gr = g->RowPtr(i + r) + j;
    for (size_t c = 0; c < 2; ++c) {
      const simd::Lanes4 acc = {lo[r][c][0], lo[r][c][1], hi[r][c][0],
                                hi[r][c][1]};
      gr[c] = simd::FoldTail(acc, x[r], y[c], k, d);
    }
  }
}

// The upper triangle of A A^T, mirrored at the end: 2 x kCols register
// tiles (kCols = 4 in the AVX2 clone, 2 in the baseline one) where they
// fit, single simd::Dot entries at the right and bottom edges. A tile
// starting left of the diagonal also fills a few lower entries; the mirror
// overwrites them with the same values (x * y rounds like y * x). Every
// entry is simd::Dot of its two rows whichever path computes it, so
// neither the tiling nor the tile width changes a bit.
template <size_t kCols>
SWSKETCH_SIMD_INLINE void GramOuterKernel(const Matrix& a, Matrix* out) {
  const size_t n = a.rows();
  const size_t d = a.cols();
  out->ResetShape(n, n);
  for (size_t i = 0; i < n; i += 2) {
    const size_t rows = std::min<size_t>(2, n - i);
    size_t j = i & ~size_t{kCols - 1};
    if (rows == 2) {
      for (; j + kCols <= n; j += kCols) {
        if constexpr (kCols == 4) {
          GramOuterTile2x4(a, i, j, out);
        } else {
          GramOuterTile2x2(a, i, j, out);
        }
      }
    }
    for (size_t r = i; r < i + rows; ++r) {
      for (size_t c = std::max(j, r); c < n; ++c) {
        (*out)(r, c) = simd::Dot(a.RowPtr(r), a.RowPtr(c), d);
      }
    }
  }
  out->MirrorUpperToLower();
}

#if SWSKETCH_SIMD_AVX2_CLONE
__attribute__((target("avx2"))) void GramOuterAvx2(const Matrix& a,
                                                    Matrix* out) {
  GramOuterKernel<4>(a, out);
}
#endif

}  // namespace

bool Matrix::FusedKernelsUseFmaChains() { return kCpuAvx2Fma; }

namespace simd {

Target Best() { return kCpuAvx2Fma ? Target::kAvx2 : Target::kBaseline; }

bool Supported(Target target) {
  return target == Target::kBaseline || kCpuAvx2Fma;
}

// Not inlined, so the CHECK's failure path exists once for both entry
// points.
__attribute__((noinline)) void CheckSupported(Target target) {
  SWSKETCH_CHECK(Supported(target));
}

void GramOuterInto(const Matrix& a, Matrix* out, Target target) {
  CheckSupported(target);
#if SWSKETCH_SIMD_AVX2_CLONE
  if (target == Target::kAvx2) {
    GramOuterAvx2(a, out);
    return;
  }
#endif
  GramOuterKernel<2>(a, out);
}

}  // namespace simd

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  for (const auto& r : rows) {
    if (cols_ == 0) cols_ = r.size();
    SWSKETCH_CHECK_EQ(r.size(), cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::AppendRow(std::span<const double> row) {
  if (rows_ == 0 && cols_ == 0) cols_ = row.size();
  SWSKETCH_CHECK_EQ(row.size(), cols_);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

void Matrix::AppendRowScaled(std::span<const double> row, double scale) {
  if (rows_ == 0 && cols_ == 0) cols_ = row.size();
  SWSKETCH_CHECK_EQ(row.size(), cols_);
  data_.reserve(data_.size() + cols_);
  for (double v : row) data_.push_back(v * scale);
  ++rows_;
}

void Matrix::SetZero() { std::fill(data_.begin(), data_.end(), 0.0); }

void Matrix::ResetShape(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // assign() reuses the existing allocation when capacity suffices, so a
  // scratch matrix cycled through the same (or smaller) shapes never
  // touches the heap again.
  data_.assign(rows * cols, 0.0);
}

void Matrix::TruncateRows(size_t k) {
  SWSKETCH_CHECK_LE(k, rows_);
  rows_ = k;
  data_.resize(rows_ * cols_);
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    const double* src = RowPtr(i);
    for (size_t j = 0; j < cols_; ++j) t(j, i) = src[j];
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  SWSKETCH_CHECK_EQ(cols_, other.rows_);
  return MultiplyRows(other, 0);
}

Matrix Matrix::MultiplyRows(const Matrix& other, size_t other_row_begin) const {
  Matrix out;
  MultiplyRowsInto(other, other_row_begin, &out);
  return out;
}

void Matrix::MultiplyInto(const Matrix& other, Matrix* out) const {
  SWSKETCH_CHECK_EQ(cols_, other.rows_);
  MultiplyRowsInto(other, 0, out);
}

void Matrix::MultiplyRowsInto(const Matrix& other, size_t other_row_begin,
                              Matrix* out_ptr) const {
  SWSKETCH_CHECK_LE(other_row_begin + cols_, other.rows_);
  Matrix& out = *out_ptr;
  out.ResetShape(rows_, other.cols_);
  const size_t n = other.cols_;
  // Output rows are processed in blocks of 8 with the k-group loop hoisted
  // outside the block, so each loaded 4-row group of `other` is reused for
  // 8 output rows from L1 instead of being re-streamed from L2 once per
  // output row (the dominant traffic when `other`'s panel exceeds L1 —
  // exactly the RP-batch shape, ell x count times count x d). For a fixed
  // output element the k-groups still arrive in ascending order through
  // the same fused chain, so the blocking changes no bits.
  const auto multiply_rows = [&](size_t row_begin, size_t row_end) {
    constexpr size_t kIBlock = 8;
    for (size_t ib = row_begin; ib < row_end; ib += kIBlock) {
      const size_t ie = std::min(ib + kIBlock, row_end);
      for (size_t k0 = 0; k0 < cols_; k0 += kMultiplyKPanel) {
        const size_t k1 = std::min(k0 + kMultiplyKPanel, cols_);
        size_t k = k0;
        for (; k + 3 < k1; k += 4) {
          const double* b0 = other.RowPtr(other_row_begin + k);
          const double* b1 = other.RowPtr(other_row_begin + k + 1);
          const double* b2 = other.RowPtr(other_row_begin + k + 2);
          const double* b3 = other.RowPtr(other_row_begin + k + 3);
          for (size_t i = ib; i < ie; ++i) {
            const double* a = RowPtr(i);
            const double a0 = a[k], a1 = a[k + 1], a2 = a[k + 2],
                         a3 = a[k + 3];
            if (a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0) continue;
            FusedAccumulate4(out.RowPtr(i), b0, b1, b2, b3, a0, a1, a2, a3,
                             0, n);
          }
        }
        for (; k < k1; ++k) {
          const double* b = other.RowPtr(other_row_begin + k);
          for (size_t i = ib; i < ie; ++i) {
            const double aik = RowPtr(i)[k];
            if (aik == 0.0) continue;
            FusedAccumulate1(out.RowPtr(i), b, aik, 0, n);
          }
        }
      }
    }
  };
  if (rows_ * cols_ * n >= kParallelFlopThreshold && rows_ > 1) {
    ParallelForChunks(rows_, multiply_rows);
  } else {
    multiply_rows(0, rows_);
  }
}

Matrix Matrix::Gram() const {
  Matrix g;
  GramInto(&g);
  return g;
}

void Matrix::GramInto(Matrix* out) const {
  out->ResetShape(cols_, cols_);
  AddGramUpperTo(out);
  out->MirrorUpperToLower();
}

void Matrix::AddGramUpperTo(Matrix* out) const {
  Matrix& g = *out;
  SWSKETCH_CHECK(g.rows_ == cols_ && g.cols_ == cols_);
  if (rows_ == 0 || cols_ == 0) return;
  // Cost of the upper triangle is rows * d * (d + 1) / 2 madds; fan column
  // bands out to the pool when it dwarfs the task overhead. Leading bands
  // cover longer upper-triangle rows, so bands shrink towards the top to
  // even the load: band k covers rows of the triangle starting where
  // roughly k/bands of the total area is below.
  const size_t triangle = rows_ * cols_ * (cols_ + 1) / 2;
  if (triangle >= kParallelFlopThreshold && cols_ >= 2 * kGramTileI) {
    const size_t bands =
        std::max<size_t>(1, std::min(ThreadPool::Shared().num_threads() * 2,
                                     cols_ / kGramTileI));
    std::vector<size_t> edges;
    edges.reserve(bands + 1);
    edges.push_back(0);
    const double total_area = static_cast<double>(cols_) * cols_;
    for (size_t b = 1; b < bands; ++b) {
      // Solve for x: area of triangle columns [0, x) == b/bands of total;
      // triangle area left of column x is x * (2d - x) / 2.
      const double frac = static_cast<double>(b) / static_cast<double>(bands);
      const double d = static_cast<double>(cols_);
      const double x = d - std::sqrt(std::max(0.0, d * d - frac * total_area));
      size_t edge = std::min<size_t>(cols_, static_cast<size_t>(x));
      edge = std::max(edge, edges.back());
      edges.push_back(edge);
    }
    edges.push_back(cols_);
    ParallelFor(edges.size() - 1, [&](size_t b) {
      if (edges[b] < edges[b + 1]) {
        AccumulateGramUpperBand(*this, &g, edges[b], edges[b + 1]);
      }
    });
  } else {
    AccumulateGramUpperBand(*this, &g, 0, cols_);
  }
}

Matrix Matrix::GramOuter() const {
  Matrix g;
  GramOuterInto(&g);
  return g;
}

void Matrix::GramOuterInto(Matrix* out) const {
  simd::GramOuterInto(*this, out, simd::Best());
}

void Matrix::AddOuterProduct(std::span<const double> v, double scale) {
  AddOuterProductUpper(v, scale);
  MirrorUpperToLower();
}

void Matrix::AddOuterProductUpper(std::span<const double> v, double scale) {
  SWSKETCH_CHECK_EQ(rows_, cols_);
  SWSKETCH_CHECK_EQ(v.size(), cols_);
  for (size_t i = 0; i < cols_; ++i) {
    const double vi = v[i] * scale;
    if (vi == 0.0) continue;
    double* row = RowPtr(i);
    for (size_t j = i; j < cols_; ++j) row[j] += vi * v[j];
  }
}

void Matrix::MirrorUpperToLower() {
  SWSKETCH_CHECK_EQ(rows_, cols_);
  for (size_t i = 1; i < cols_; ++i) {
    double* row = RowPtr(i);
    for (size_t j = 0; j < i; ++j) row[j] = (*this)(j, i);
  }
}

void Matrix::AddScaled(const Matrix& other, double scale) {
  SWSKETCH_CHECK_EQ(rows_, other.rows_);
  SWSKETCH_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

Matrix Matrix::Subtract(const Matrix& other) const {
  SWSKETCH_CHECK_EQ(rows_, other.rows_);
  SWSKETCH_CHECK_EQ(cols_, other.cols_);
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] - other.data_[i];
  }
  return out;
}

void Matrix::Scale(double s) {
  for (double& v : data_) v *= s;
}

double Matrix::FrobeniusNormSq() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

void Matrix::Apply(std::span<const double> x, std::span<double> y) const {
  SWSKETCH_CHECK_EQ(x.size(), cols_);
  SWSKETCH_CHECK_EQ(y.size(), rows_);
  // Four fused dot products per pass share each x[j] load.
  size_t i = 0;
  for (; i + 3 < rows_; i += 4) {
    const double* a0 = RowPtr(i);
    const double* a1 = RowPtr(i + 1);
    const double* a2 = RowPtr(i + 2);
    const double* a3 = RowPtr(i + 3);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = 0; j < cols_; ++j) {
      const double xj = x[j];
      s0 += a0[j] * xj;
      s1 += a1[j] * xj;
      s2 += a2[j] * xj;
      s3 += a3[j] * xj;
    }
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < rows_; ++i) {
    const double* a = RowPtr(i);
    double s = 0.0;
    for (size_t j = 0; j < cols_; ++j) s += a[j] * x[j];
    y[i] = s;
  }
}

void Matrix::ApplyTranspose(std::span<const double> x,
                            std::span<double> y) const {
  SWSKETCH_CHECK_EQ(x.size(), rows_);
  SWSKETCH_CHECK_EQ(y.size(), cols_);
  std::fill(y.begin(), y.end(), 0.0);
  // Fused accumulation over four rows halves the traffic on y.
  size_t i = 0;
  for (; i + 3 < rows_; i += 4) {
    const double x0 = x[i], x1 = x[i + 1], x2 = x[i + 2], x3 = x[i + 3];
    if (x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0) continue;
    const double* a0 = RowPtr(i);
    const double* a1 = RowPtr(i + 1);
    const double* a2 = RowPtr(i + 2);
    const double* a3 = RowPtr(i + 3);
    FusedAccumulate4(y.data(), a0, a1, a2, a3, x0, x1, x2, x3, 0, cols_);
  }
  for (; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    FusedAccumulate1(y.data(), RowPtr(i), xi, 0, cols_);
  }
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return std::numeric_limits<double>::infinity();
  }
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  }
  return m;
}

bool Matrix::ApproxEquals(const Matrix& other, double tol) const {
  return MaxAbsDiff(other) <= tol;
}

Matrix Matrix::VStack(const Matrix& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  SWSKETCH_CHECK_EQ(cols_, other.cols_);
  Matrix out = *this;
  out.data_.insert(out.data_.end(), other.data_.begin(), other.data_.end());
  out.rows_ += other.rows_;
  return out;
}

void Matrix::Serialize(ByteWriter* writer) const {
  writer->Put<uint64_t>(rows_);
  writer->Put<uint64_t>(cols_);
  writer->PutVector(data_);
}

Result<Matrix> Matrix::Deserialize(ByteReader* reader) {
  uint64_t rows = 0, cols = 0;
  std::vector<double> data;
  // Divide before multiplying: rows * cols can wrap for a corrupt header
  // (rows = 2^62, cols = 4 gives 0) and match an empty data vector.
  if (!reader->Get(&rows) || !reader->Get(&cols) ||
      !reader->GetVector(&data) ||
      (cols != 0 && rows > data.size() / cols) ||
      data.size() != rows * cols) {
    return Status::InvalidArgument("corrupt Matrix payload");
  }
  Matrix m(rows, cols);
  m.data_ = std::move(data);
  return m;
}

}  // namespace swsketch

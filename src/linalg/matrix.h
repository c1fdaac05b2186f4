// Dense row-major matrix of doubles: the storage type for windows, sketches
// and approximation outputs. Deliberately minimal: the library only needs
// append-row growth, Gram products, transposed multiplies and elementwise
// combination; heavy decompositions live in their own modules.
#ifndef SWSKETCH_LINALG_MATRIX_H_
#define SWSKETCH_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// Dense row-major matrix. Rows are contiguous; `Row(i)` is a cheap span.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix of zeros.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Builds from a nested initializer list; all inner lists must have the
  /// same length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Zero(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(size_t i, size_t j) { return data_[i * cols_ + j]; }
  double operator()(size_t i, size_t j) const { return data_[i * cols_ + j]; }

  std::span<double> Row(size_t i) { return {&data_[i * cols_], cols_}; }
  std::span<const double> Row(size_t i) const {
    return {&data_[i * cols_], cols_};
  }
  double* RowPtr(size_t i) { return &data_[i * cols_]; }
  const double* RowPtr(size_t i) const { return &data_[i * cols_]; }

  std::span<double> Data() { return {data_.data(), data_.size()}; }
  std::span<const double> Data() const { return {data_.data(), data_.size()}; }

  /// Appends a row; on the first append to an empty matrix the column count
  /// is adopted from the row, afterwards it must match.
  void AppendRow(std::span<const double> row);

  /// Appends `row` scaled by `scale`.
  void AppendRowScaled(std::span<const double> row, double scale);

  /// Reserves storage for `rows` rows (avoids reallocation in streaming
  /// loops).
  void ReserveRows(size_t rows) { data_.reserve(rows * cols_); }

  /// Sets every entry to zero, keeping the shape.
  void SetZero();

  /// Reshapes to rows x cols and zeroes every entry, reusing the existing
  /// allocation whenever it is large enough. The scratch-accepting kernels
  /// (GramInto / GramOuterInto / MultiplyRowsInto) call this on their
  /// output so a matrix recycled across calls never reallocates once it
  /// has seen its largest shape.
  void ResetShape(size_t rows, size_t cols);

  /// Keeps only the first k rows.
  void TruncateRows(size_t k);

  /// Returns the transposed matrix.
  Matrix Transpose() const;

  /// this * other. Register-tiled ikj loop (4-way k unroll); rows are
  /// partitioned over the shared thread pool when the product is large
  /// enough to amortize the fan-out (identical results either way).
  Matrix Multiply(const Matrix& other) const;

  /// this * other[other_row_begin : other_row_begin + cols(), :] — the same
  /// tiled kernel applied to a contiguous row slice of `other` without
  /// copying it. Batched ingest uses this to apply a sign/projection matrix
  /// to a sub-block of a larger row batch. Requires
  /// other_row_begin + cols() <= other.rows().
  Matrix MultiplyRows(const Matrix& other, size_t other_row_begin) const;

  /// Scratch-accepting Multiply: writes this * other into *out (reshaped
  /// and zeroed via ResetShape, so steady-state reuse is allocation-free).
  /// `out` must not alias this or `other`.
  void MultiplyInto(const Matrix& other, Matrix* out) const;

  /// Scratch-accepting MultiplyRows; same aliasing rule as MultiplyInto.
  void MultiplyRowsInto(const Matrix& other, size_t other_row_begin,
                        Matrix* out) const;

  /// A^T * A, a cols x cols symmetric PSD matrix. Cache-blocked over the
  /// upper triangle with 4-row accumulation, mirrored once at the end;
  /// column bands go to the shared thread pool above a flop threshold.
  /// The result is bit-identical for any worker count: every output entry
  /// is produced by exactly one task with a fixed accumulation order.
  Matrix Gram() const;

  /// Scratch-accepting Gram: writes A^T A into *out (reshaped and zeroed,
  /// allocation-free on reuse). `out` must not alias this.
  void GramInto(Matrix* out) const;

  /// Adds the upper triangle of A^T A to *out, a cols x cols matrix,
  /// leaving its strict lower triangle untouched: summing the Grams of
  /// several matrices this way and calling MirrorUpperToLower() once gives
  /// the Gram of their row stack without building it. Same kernel, banding
  /// and per-entry accumulation order as GramInto (which is ResetShape,
  /// this, then the mirror). `out` must not alias this.
  void AddGramUpperTo(Matrix* out) const;

  /// A * A^T, a rows x rows symmetric PSD matrix. Each entry is the 4-lane
  /// dot product of linalg/simd.h, computed in 2 x 4 register tiles on the
  /// CPU's best SIMD clone (same bits on every clone).
  Matrix GramOuter() const;

  /// Scratch-accepting GramOuter: writes A A^T into *out (reshaped and
  /// zeroed, allocation-free on reuse). `out` must not alias this.
  void GramOuterInto(Matrix* out) const;

  /// M += scale * v v^T for a square matrix with cols() == v.size().
  void AddOuterProduct(std::span<const double> v, double scale = 1.0);

  /// Upper-triangle-only rank-1 update: entries (i, j) with j >= i get
  /// += scale * v_i v_j; the strict lower triangle is left untouched.
  /// Callers accumulating many rank-1 terms should use this and call
  /// MirrorUpperToLower() once at the end instead of paying the mirror
  /// per update (AddOuterProduct = AddOuterProductUpper + mirror).
  void AddOuterProductUpper(std::span<const double> v, double scale = 1.0);

  /// Copies the upper triangle over the strict lower triangle, restoring
  /// symmetry after a run of AddOuterProductUpper calls.
  void MirrorUpperToLower();

  /// this += scale * other (shapes must match).
  void AddScaled(const Matrix& other, double scale);

  /// this - other.
  Matrix Subtract(const Matrix& other) const;

  /// Multiplies every entry by `s`.
  void Scale(double s);

  /// Sum of squared entries.
  double FrobeniusNormSq() const;

  /// y = A x (x has cols() entries, y gets rows() entries).
  void Apply(std::span<const double> x, std::span<double> y) const;

  /// y = A^T x (x has rows() entries, y gets cols() entries).
  void ApplyTranspose(std::span<const double> x, std::span<double> y) const;

  /// Max |a_ij - b_ij|; infinity when shapes differ.
  double MaxAbsDiff(const Matrix& other) const;

  /// True when shapes match and entries differ by at most `tol`.
  bool ApproxEquals(const Matrix& other, double tol) const;

  /// Vertical stack [this; other]; column counts must match (an empty
  /// matrix acts as the identity element).
  Matrix VStack(const Matrix& other) const;

  /// True when the fused dense kernels (Gram / Multiply / ApplyTranspose)
  /// accumulate through AVX2 fmadd chains on this host, as linalg's one
  /// cpuid probe found AVX2 and FMA. Selects the
  /// per-element accumulation formula the kernel tests pin; false means
  /// the plain mul+add fallback is active.
  static bool FusedKernelsUseFmaChains();

  /// Binary serialization (shape + row-major payload).
  void Serialize(ByteWriter* writer) const;
  static Result<Matrix> Deserialize(ByteReader* reader);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace swsketch

#endif  // SWSKETCH_LINALG_MATRIX_H_

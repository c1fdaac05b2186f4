// Random projection sketch (Appendix A): B = R A where R is ell x n with
// i.i.d. +/- 1/sqrt(ell) entries. Processed in streaming fashion: on row
// a_i, draw a fresh sign column r and add r * a_i to B. Additive merging of
// two sketches of equal ell is again a random projection of the stacked
// input, so the sketch is mergeable under addition.
#ifndef SWSKETCH_SKETCH_RANDOM_PROJECTION_H_
#define SWSKETCH_SKETCH_RANDOM_PROJECTION_H_

#include <cstdint>
#include <span>
#include <string>

#include "linalg/matrix.h"
#include "linalg/sparse_vector.h"
#include "sketch/matrix_sketch.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/random.h"

namespace swsketch {

/// +/- 1/sqrt(ell) dense random projection.
class RandomProjection : public MatrixSketch {
 public:
  RandomProjection(size_t dim, size_t ell, uint64_t seed = 1);

  void Append(std::span<const double> row, uint64_t id = 0) override;

  /// Batched append: materializes the ell x count sign block — drawing the
  /// exact same signs, in the same order, as `count` serial Appends — and
  /// applies it with the tiled MultiplyRows kernel. The projection is
  /// therefore identical as a linear map; only the floating-point
  /// accumulation order of the += differs from the serial path.
  void AppendBatch(const Matrix& m, size_t begin, size_t end,
                   uint64_t first_id = 0) override;

  /// Sparse fast path: O(ell * nnz) instead of O(ell * d). Draws the same
  /// sign column as the dense path, so results match bit-for-bit.
  void AppendSparse(const SparseVector& row, uint64_t id = 0);

  Matrix Approximation() const override { return b_; }
  size_t RowsStored() const override { return b_.rows(); }
  size_t dim() const override { return dim_; }
  std::string name() const override { return "RP"; }

  size_t ell() const { return b_.rows(); }

  /// Adds the other's projection into this one; shapes must match.
  void MergeWith(const RandomProjection& other);

  /// True when `other` has this sketch's dim and ell (so the two merge);
  /// loaders hold nested blocks to their factory's config with it.
  bool SameConfig(const RandomProjection& other) const {
    return dim_ == other.dim_ && ell() == other.ell();
  }

  /// Checkpoint/resume: includes the sign-generator state so the resumed
  /// sketch continues the exact same projection.
  void Serialize(ByteWriter* writer) const;
  static Result<RandomProjection> Deserialize(ByteReader* reader);

 private:
  size_t dim_;
  Matrix b_;  // ell x dim.
  Rng rng_;
  double scale_;  // 1/sqrt(ell).
};

}  // namespace swsketch

#endif  // SWSKETCH_SKETCH_RANDOM_PROJECTION_H_

// Feature-hashing ("hashing trick" / Clarkson-Woodruff) sketch, Appendix A:
// B = S A with S an ell x n sparse sign matrix: S[h(i), i] = g(i), zero
// elsewhere. On row a_i, add g(i) * a_i into bucket row h(i).
//
// Mergeability (Appendix A) requires the two sketches to share (h, g) and
// to see globally distinct row ids, which is why Append takes the arrival
// index: the LM/DI frameworks feed every block sketch the stream-global id.
#ifndef SWSKETCH_SKETCH_HASH_SKETCH_H_
#define SWSKETCH_SKETCH_HASH_SKETCH_H_

#include <cstdint>
#include <span>
#include <string>

#include "linalg/matrix.h"
#include "linalg/sparse_vector.h"
#include "sketch/matrix_sketch.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// 2-universal hash family over 64-bit keys (multiply-shift style, seeded).
class HashFamily {
 public:
  explicit HashFamily(uint64_t seed);

  /// Bucket in [0, buckets).
  size_t Bucket(uint64_t key, size_t buckets) const;

  /// Sign in {-1, +1}.
  double Sign(uint64_t key) const;

 private:
  uint64_t Mix(uint64_t key) const;

  uint64_t a1_, a2_, b_;
  uint64_t sign_a1_, sign_a2_, sign_b_;
};

/// Sparse-sign (CountSketch-style) matrix sketch.
class HashSketch : public MatrixSketch {
 public:
  /// Sketches with equal `seed` (and ell) share hash functions and are
  /// mergeable by addition.
  HashSketch(size_t dim, size_t ell, uint64_t seed = 1);

  void Append(std::span<const double> row, uint64_t id) override;

  /// Batched append: row i scatters with id first_id + (i - begin). The
  /// scatter order matches the serial loop exactly, so the result is
  /// bit-identical; the win is one virtual dispatch (and hash/bucket
  /// pointer setup kept hot) per block instead of per row.
  void AppendBatch(const Matrix& m, size_t begin, size_t end,
                   uint64_t first_id) override;

  /// Sparse fast path: O(nnz) signed scatter into the bucket row.
  void AppendSparse(const SparseVector& row, uint64_t id);

  Matrix Approximation() const override { return b_; }
  size_t RowsStored() const override { return b_.rows(); }
  size_t dim() const override { return dim_; }
  std::string name() const override { return "HASH"; }

  size_t ell() const { return b_.rows(); }
  uint64_t seed() const { return seed_; }

  /// this += other. Requires matching dim, ell and seed.
  void MergeWith(const HashSketch& other);

  /// True when `other` has this sketch's dim, ell and seed (so the two
  /// merge); loaders hold nested blocks to their factory's config with it.
  bool SameConfig(const HashSketch& other) const {
    return dim_ == other.dim_ && ell() == other.ell() && seed_ == other.seed_;
  }

  /// Checkpoint/resume: the hash family is rebuilt from the seed.
  void Serialize(ByteWriter* writer) const;
  static Result<HashSketch> Deserialize(ByteReader* reader);

 private:
  size_t dim_;
  uint64_t seed_;
  HashFamily hash_;
  Matrix b_;  // ell x dim.
};

}  // namespace swsketch

#endif  // SWSKETCH_SKETCH_HASH_SKETCH_H_

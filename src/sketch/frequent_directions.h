// Frequent Directions (Liberty, KDD'13): the deterministic streaming matrix
// sketch the paper builds LM-FD and DI-FD on. Maintains B with at most
// `ell` rows; when full, a shrink zeroes the smallest directions so that
// ||A^T A - B^T B|| <= shed_mass, where each shrink subtracting lambda
// removes at least shrink_rank * lambda of Frobenius mass, giving
// shed_mass <= ||A||_F^2 / shrink_rank (= 2 ||A||_F^2 / ell at the paper's
// default shrink position ell/2).
//
// The shrink never needs the singular vectors of B — only the shrunk
// spectrum re-expressed in B's row space. It therefore eigendecomposes the
// small-side Gram (B B^T when B is wide, n x n with n <= buffer_factor *
// ell << d) and rebuilds B' = D W^T B directly, where D = diag(sqrt(max(
// sigma^2 - lambda, 0)) / sigma): O(n^2 d) for the Gram and the product
// plus O(n^3) for the eigensolve, with no U/V recovery and, via one
// reusable workspace per thread, no heap allocation in steady state. The
// eigensolver and the numerical rank are linalg's (TridiagEigen,
// NumericalRank).
//
// Amortized shrinking (Desai, Ghashami, Phillips, "Improved Practical
// Matrix Sketching with Guarantees"): with buffer_factor f > 1 the sketch
// buffers up to f * ell rows before shrinking, trading space for fewer SVD
// invocations. The guarantee is unchanged — each shrink still subtracts
// sigma_{shrink_rank}^2 and the trace argument only needs the buffer to
// hold at least shrink_rank rows — but shrinks happen every
// (f * ell - shrink_rank + 1) appends instead of every (ell - shrink_rank
// + 1), roughly halving per-row update cost at f = 2.
//
// Mergeable (Section 6.1): two sketches of equal ell stack and shrink back
// with sigma_{ell+1}^2 so at most ell rows survive, without exceeding the
// summed error budgets. MergeAll folds m sketches at once: either by one
// shrink of all their rows, which sheds lambda once instead of m - 1
// times, or by the pairwise MergeWith tree, whichever an op count
// predicts to be cheaper (see MergeAll).
#ifndef SWSKETCH_SKETCH_FREQUENT_DIRECTIONS_H_
#define SWSKETCH_SKETCH_FREQUENT_DIRECTIONS_H_

#include <cstdint>
#include <span>
#include <string>

#include "linalg/matrix.h"
#include "linalg/sparse_vector.h"
#include "sketch/matrix_sketch.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// Deterministic Frequent Directions sketch.
class FrequentDirections : public MatrixSketch {
 public:
  struct Options {
    /// Maximum rows kept by the sketch (l in the paper). Must be >= 2.
    size_t ell = 16;
    /// 1-indexed singular value whose square is subtracted on shrink.
    /// 0 means the paper's default ceil(ell / 2) ("FD with ell/2 empty rows
    /// after each shrink"). Must be <= ell.
    size_t shrink_rank = 0;
    /// Amortization: buffer up to buffer_factor * ell rows before
    /// shrinking (in [1, kMaxBufferFactor]; 1 disables buffering).
    /// Approximation() and RowsStored() then transiently report up to that
    /// many rows.
    double buffer_factor = 1.0;
  };

  /// Largest accepted buffer_factor. It keeps buffer_factor * ell a
  /// defined size_t for any ell and stays above the factor DS-FD derives
  /// for its frame sketches (at most 0.32 * dim / frame ell).
  static constexpr double kMaxBufferFactor = 1e6;

  FrequentDirections(size_t dim, Options options);
  FrequentDirections(size_t dim, size_t ell)
      : FrequentDirections(dim, Options{.ell = ell}) {}

  void Append(std::span<const double> row, uint64_t id = 0) override;

  /// Batched append. When the buffer is at least d rows tall
  /// (capacity >= dim, where the shrink cost is governed by d, not the row
  /// count) the whole block is appended first and a single deferred shrink
  /// restores the capacity bound — same guarantee (the one shrink sheds
  /// >= shrink_rank * lambda), measured ~9x fewer SVD milliseconds per row
  /// at ell = d = 64. When capacity < dim the SVD cost is cubic in the row
  /// count, so deferral would *lose*; the batch then replays the serial
  /// per-row schedule and is bit-identical to repeated Append.
  void AppendBatch(const Matrix& m, size_t begin, size_t end,
                   uint64_t first_id = 0) override;

  /// Sparse fast path: O(nnz) scatter instead of an O(d) copy (the shrink
  /// cost is unchanged).
  void AppendSparse(const SparseVector& row, uint64_t id = 0);

  /// Appends every row of `m`, routed through AppendBatch in
  /// buffer-capacity-sized chunks so transient memory stays O(capacity)
  /// while the tall regime still gets its deferred-shrink schedule.
  void AppendMatrix(const Matrix& m);

  Matrix Approximation() const override { return b_; }
  size_t RowsStored() const override { return b_.rows(); }
  size_t dim() const override { return dim_; }
  std::string name() const override { return "FD"; }

  size_t ell() const { return options_.ell; }
  size_t shrink_rank() const { return shrink_rank_; }

  /// Maximum rows the buffer holds before a shrink is forced.
  size_t buffer_capacity() const { return capacity_; }

  /// Number of SVD-based shrinks performed so far (amortization metric).
  size_t shrink_count() const { return shrink_count_; }

  /// Total spectral mass subtracted by shrinks so far. The FD guarantee is
  /// ||A^T A - B^T B|| <= shed_mass() <= ||A||_F^2 / shrink_rank.
  double shed_mass() const { return shed_mass_; }

  /// Sum of squared norms of everything appended (= ||A||_F^2).
  double input_mass() const { return input_mass_; }

  /// True when `other` has this sketch's dim, ell, shrink rank and buffer
  /// capacity (so the two merge and take the same appends); loaders hold
  /// nested blocks to their factory's config with it.
  bool SameConfig(const FrequentDirections& other) const {
    return dim_ == other.dim_ && options_.ell == other.options_.ell &&
           shrink_rank_ == other.shrink_rank_ &&
           capacity_ == other.capacity_;
  }

  /// Merges `other` into this sketch (Section 6.1): stack, SVD, shrink with
  /// sigma_{ell+1}^2 so the merged size is at most ell. Requires matching
  /// dim and ell. Works in place on this sketch's buffer.
  void MergeWith(const FrequentDirections& other);

  /// N-way merge: an FD sketch of the rows of every part stacked, with at
  /// most ell rows (a single part is returned as is). Requires a non-empty
  /// span of sketches with matching dim and ell; the result carries the
  /// first part's config. Two routes, chosen by an op count of dim, ell,
  /// the part count m and the stacked row count n, never by an option:
  ///  - tall: sum the d x d Grams B_i^T B_i into the thread's shrink
  ///    workspace (the rows are never stacked), run one eigensolve and
  ///    keep at most ell rows with lambda = sigma_{ell+1}^2 — Rebuild's
  ///    tall branch. Costs about n d^2 / 2 + w_t d^3 madds, w_t the weight
  ///    of an eigensolve that keeps ell of d vectors, so it wins when d is
  ///    small next to the stacked rows;
  ///  - tree: the PairwiseMergeTree of MergeWith (util/parallel.h),
  ///    (m - 1) 2ell x 2ell shrinks of about 4 ell^2 d + 8 w ell^3 madds
  ///    each, byte-identical to merging pairwise by hand. Also taken when
  ///    n <= ell, where no merge shrinks.
  /// Either way ||A^T A - B^T B||_2 <= shed_mass(), the parts' shed mass
  /// plus what the merge sheds, and input_mass() is the parts' sum. Every
  /// call counts fd.merge_route_tall or fd.merge_route_tree.
  static FrequentDirections MergeAll(
      std::span<const FrequentDirections* const> parts);

  /// Forces a shrink now (exposed for tests).
  void ShrinkNow();

  /// Checkpoint/resume: full sketch state (format version 2; version-1
  /// payloads from before amortized buffering are not readable).
  void Serialize(ByteWriter* writer) const;
  static Result<FrequentDirections> Deserialize(ByteReader* reader);

 private:
  // Resolves the options like the public constructor but adopts `b` as
  // the buffer instead of reserving capacity rows (Deserialize: a wire
  // ell then costs no memory before the payload is checked).
  FrequentDirections(size_t dim, Options options, Matrix b);

  // Shrinks the current buffer with lambda = sigma_{rank}^2 (1-indexed;
  // values beyond the actual rank mean lambda = 0), rewriting b_ in place.
  void ShrinkWithRank(size_t rank);

  // Rebuilds b_ in place from the shrunk spectrum, keeping at most max_rows
  // rows: small-side Gram eigendecomposition, B' = D W^T B. Matches a
  // ThinSvd-based shrink to ~ulp on the wide (rows <= dim) route: ThinSvd
  // takes the same Gram-eigen path internally there. With `parts`
  // non-empty the spectrum is that of the parts' rows stacked, read off
  // the sum of their d x d Grams on the tall route, and b_ is only the
  // output (MergeAll's tall route).
  void Rebuild(size_t rank, size_t max_rows,
               std::span<const FrequentDirections* const> parts = {});

  size_t dim_;
  Options options_;
  size_t shrink_rank_;  // Resolved (options_.shrink_rank or ell/2).
  size_t capacity_;     // Resolved buffer rows: max(ell, buffer_factor*ell).
  Matrix b_;            // Exactly the occupied rows (<= capacity_) x dim.
  size_t shrink_count_ = 0;
  double shed_mass_ = 0.0;
  double input_mass_ = 0.0;
};

}  // namespace swsketch

#endif  // SWSKETCH_SKETCH_FREQUENT_DIRECTIONS_H_

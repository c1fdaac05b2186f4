// Interface for sliding-window matrix sketches: the paper's problem
// statement (Section 1). A sketch continuously consumes timestamped rows
// and can at any moment produce an approximation B for the matrix A_W of
// the rows currently in the window.
#ifndef SWSKETCH_CORE_SLIDING_WINDOW_SKETCH_H_
#define SWSKETCH_CORE_SLIDING_WINDOW_SKETCH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse_vector.h"
#include "stream/window.h"
#include "util/logging.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// Continuously queryable sliding-window matrix sketch.
class SlidingWindowSketch {
 public:
  virtual ~SlidingWindowSketch() = default;

  /// Consumes a row arriving at time `ts` (sequence windows: arrival
  /// index). Timestamps must be non-decreasing.
  virtual void Update(std::span<const double> row, double ts) = 0;

  /// Sparse-row variant. The default densifies and calls Update;
  /// frameworks whose update fans a row into many block sketches (DI)
  /// override it with an O(nnz)-per-sketch fast path.
  virtual void UpdateSparse(const SparseVector& row, double ts) {
    const std::vector<double> dense = row.ToDense();
    Update(dense, ts);
  }

  /// Batched variant: consumes rows.rows() rows in one call; ts[i] is the
  /// timestamp of rows.Row(i) and must be non-decreasing (continuing from
  /// any previous Update). Window semantics are identical to feeding the
  /// rows one at a time; backends override the default row loop with block
  /// fast paths. Deterministic backends produce bit-identical state to the
  /// serial path unless their override documents otherwise; randomized
  /// backends draw the same randomness per row but may accumulate in a
  /// different floating-point order.
  virtual void UpdateBatch(const Matrix& rows, std::span<const double> ts) {
    SWSKETCH_CHECK_EQ(rows.rows(), ts.size());
    for (size_t i = 0; i < rows.rows(); ++i) Update(rows.Row(i), ts[i]);
  }

  /// Moves the window forward to `now` without an arrival (time-based
  /// windows slide between arrivals). Default: remembers `now` for Query.
  virtual void AdvanceTo(double now) = 0;

  /// Approximation B for the current window. May expire internal state
  /// (hence non-const).
  virtual Matrix Query() = 0;

  /// Completes any deferred or asynchronous ingest: after Flush() returns,
  /// Query() and RowsStored() observe every row already passed to Update /
  /// UpdateBatch. Synchronous sketches are trivially flushed (default
  /// no-op); the sharded ingest wrapper overrides this to drain its writer
  /// queues.
  virtual void Flush() {}

  /// Monotone version of the queryable state: advances whenever a mutation
  /// (row ingest, window advance, deserialization) may change what Query()
  /// returns, and holds steady while the sketch is quiescent. Wrappers key
  /// result caches on it. 0 means "not tracked" — callers must then assume
  /// every query is cold.
  virtual uint64_t StateVersion() const { return 0; }

  /// Rows currently materialized by the sketch: the paper's "sketch size".
  virtual size_t RowsStored() const = 0;

  /// Row dimensionality d.
  virtual size_t dim() const = 0;

  virtual std::string name() const = 0;

  /// The window this sketch maintains.
  virtual const WindowSpec& window() const = 0;

  /// Checkpoints the full sketch state: a (tag, version, config) wire
  /// header, then the state payload. Unimplemented for algorithms without
  /// serialization support. Reload with DeserializeSlidingWindowSketch or
  /// SketchPrototype::DeserializeAt (factory.h).
  virtual Status SerializeTo(ByteWriter*) const {
    return Status::Unimplemented(name() + " does not support serialization");
  }

  /// Reads the state payload that follows the wire header into this
  /// freshly constructed, empty sketch. Only the factory's load path calls
  /// it, after building this instance from the header it validated; on a
  /// corrupt payload it returns InvalidArgument and the caller discards
  /// the instance.
  virtual Status LoadState(ByteReader*) {
    return Status::Unimplemented(name() + " does not support serialization");
  }
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_SLIDING_WINDOW_SKETCH_H_

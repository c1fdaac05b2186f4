// Sliding-window definitions shared by all sketches.
#ifndef SWSKETCH_STREAM_WINDOW_H_
#define SWSKETCH_STREAM_WINDOW_H_

#include <cstdint>
#include <string>

#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// The paper's two window models (Section 1).
enum class WindowType {
  kSequence,  // Last N rows.
  kTime,      // Rows with timestamp in (t - delta, t].
};

/// Immutable description of a sliding window.
class WindowSpec {
 public:
  /// Sequence-based window over the most recent `n` rows. Internally a
  /// sequence window is a time window over arrival indices, so sketches
  /// handle both uniformly.
  static WindowSpec Sequence(uint64_t n);

  /// Time-based window of span `delta`.
  static WindowSpec Time(double delta);

  WindowType type() const { return type_; }

  /// Window extent: N for sequence windows, delta for time windows, in the
  /// shared timestamp coordinate.
  double extent() const { return extent_; }

  /// Start of the window (inclusive) for current time `now`: rows with
  /// ts > now - extent are live; equivalently ts >= Start(now).
  /// For a sequence window with 0-based index timestamps and current index
  /// `now`, live rows are indices in [now - N + 1, now].
  double Start(double now) const;

  /// True if a row with timestamp `ts` is inside the window at time `now`.
  bool Contains(double ts, double now) const { return ts >= Start(now); }

  std::string ToString() const;

  bool operator==(const WindowSpec&) const = default;

  /// Largest sequence extent a window accepts off the wire: 2^53, the
  /// range in which a double holds every row count exactly.
  static constexpr double kMaxSequenceExtent = 9007199254740992.0;

  void Serialize(ByteWriter* writer) const;
  static Result<WindowSpec> Deserialize(ByteReader* reader);

 private:
  WindowSpec(WindowType type, double extent) : type_(type), extent_(extent) {}

  WindowType type_;
  double extent_;
};

}  // namespace swsketch

#endif  // SWSKETCH_STREAM_WINDOW_H_

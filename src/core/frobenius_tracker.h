// Tracks ||A_W||_F^2 (the sum of squared row norms over the window) for the
// sampling sketches. Two modes, both discussed in Section 5.1:
//  * kExponentialHistogram: the sublinear-space (1 +/- eps) approximation;
//  * kExact: stores one scalar per window row (much smaller than the rows
//    themselves, as the paper notes, but linear space).
#ifndef SWSKETCH_CORE_FROBENIUS_TRACKER_H_
#define SWSKETCH_CORE_FROBENIUS_TRACKER_H_

#include <deque>
#include <utility>
#include <vector>

#include "util/exponential_histogram.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace swsketch {

/// Sliding-window sum of squared norms.
class FrobeniusTracker {
 public:
  enum class Mode { kExponentialHistogram, kExact };

  FrobeniusTracker(Mode mode, double eps)
      : mode_(mode), eh_(eps) {}

  void Add(double norm_sq, double ts) {
    if (mode_ == Mode::kExponentialHistogram) {
      eh_.Add(norm_sq, ts);
    } else {
      exact_.emplace_back(ts, norm_sq);
      exact_sum_ += norm_sq;
    }
  }

  /// Expires state for windows starting at `window_start`.
  void EvictBefore(double window_start) {
    if (mode_ == Mode::kExponentialHistogram) {
      eh_.EvictBefore(window_start);
      return;
    }
    while (!exact_.empty() && exact_.front().first < window_start) {
      exact_sum_ -= exact_.front().second;
      exact_.pop_front();
    }
  }

  /// Estimated window sum for window start `window_start`.
  double Estimate(double window_start) const {
    if (mode_ == Mode::kExponentialHistogram) {
      return eh_.Estimate(window_start);
    }
    double s = exact_sum_;
    for (const auto& [ts, w] : exact_) {
      if (ts >= window_start) break;
      s -= w;
    }
    return s;
  }

  /// Auxiliary storage used (EH boundaries or stored scalars) — counted
  /// separately from sketch rows in reports.
  size_t AuxiliarySize() const {
    return mode_ == Mode::kExponentialHistogram ? eh_.NumBuckets()
                                                : exact_.size();
  }

  void Serialize(ByteWriter* writer) const {
    writer->Put<uint8_t>(mode_ == Mode::kExponentialHistogram ? 0 : 1);
    eh_.Serialize(writer);
    std::vector<TsValue> flat;
    flat.reserve(exact_.size());
    for (const auto& [ts, v] : exact_) flat.push_back(TsValue{ts, v});
    writer->PutVector(flat);
    writer->Put(exact_sum_);
  }

  /// Loads into a tracker built with the payload's mode and eps; returns
  /// false on a mismatch or a corrupt payload.
  bool Deserialize(ByteReader* reader) {
    const double eps = eh_.eps();
    uint8_t mode = 0;
    std::vector<TsValue> flat;
    if (!reader->Get(&mode) || (mode != 0) != (mode_ == Mode::kExact) ||
        !eh_.Deserialize(reader) || eh_.eps() != eps ||
        !reader->GetVector(&flat) || !reader->Get(&exact_sum_)) {
      return false;
    }
    exact_.clear();
    for (const auto& e : flat) exact_.emplace_back(e.ts, e.value);
    return true;
  }

 private:
  struct TsValue {
    double ts;
    double value;
  };

  Mode mode_;
  ExponentialHistogram eh_;
  std::deque<std::pair<double, double>> exact_;
  double exact_sum_ = 0.0;
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_FROBENIUS_TRACKER_H_

#include "util/exponential_histogram.h"

#include <cmath>
#include <limits>
#include <vector>

#include "util/logging.h"

namespace swsketch {

ExponentialHistogram::ExponentialHistogram(double eps)
    : eps_(eps), last_ts_(-std::numeric_limits<double>::infinity()) {
  SWSKETCH_CHECK_GT(eps, 0.0);
  SWSKETCH_CHECK_LT(eps, 1.0);
}

void ExponentialHistogram::Add(double value, double ts) {
  SWSKETCH_CHECK_GT(value, 0.0);
  SWSKETCH_CHECK_GE(ts, last_ts_);
  last_ts_ = ts;
  Boundary nb;
  nb.start_ts = ts;
  nb.suffix_sum = value;
  nb.adjacent_to_next = false;
  if (!boundaries_.empty()) boundaries_.back().adjacent_to_next = true;
  boundaries_.push_back(nb);
  Compact(value);
}

void ExponentialHistogram::Compact(double added) {
  // Greedy pass from the oldest boundary: starting at i, find the youngest
  // j > i + 1 with s_j >= (1 - eps) * s_i and delete everything strictly
  // between them. Runs of arrival-adjacent boundaries collapse too, since
  // adjacency only protects a boundary from deletion when it is needed to
  // certify exactness; after deleting the middle, the survivors i and j
  // still satisfy the smooth-histogram invariant via the ratio test.
  //
  // This runs on EVERY add (the tracker sits on sketch ingest hot paths),
  // so it is one fused in-place pass: `added` is the value of the
  // just-appended arrival, folded into each older boundary's suffix sum as
  // the pass visits it, and survivors slide toward the front with the tail
  // erased. The youngest boundary above the threshold is found by a
  // forward walk (suffix sums are strictly decreasing, and the walk
  // telescopes with the outer loop, keeping the pass linear). Suffix-sum
  // arithmetic (one `+ added` rounding per boundary) and deletion
  // decisions are exactly those of the textbook
  // increment-all-then-rebuild formulation, so the boundary evolution —
  // and with it the serialized bytes — is unchanged; only the constant
  // factor is (one sequential pass, zero allocations).
  const size_t n = boundaries_.size();
  // updated(j): boundary j's suffix sum with the new arrival folded in.
  // The just-appended boundary (j == n - 1) already carries exactly the
  // new value.
  const auto updated = [&](size_t j) {
    return j + 1 == n ? boundaries_[j].suffix_sum
                      : boundaries_[j].suffix_sum + added;
  };
  size_t i = 0;
  size_t w = 0;  // Next write slot; survivors so far live in [0, w).
  while (i < n) {
    const double si = updated(i);
    if (w != i) boundaries_[w] = boundaries_[i];
    boundaries_[w].suffix_sum = si;
    if (i + 1 >= n) {
      ++w;
      break;
    }
    const double threshold = (1.0 - eps_) * si;
    size_t j = i + 1;
    while (j + 1 < n && updated(j + 1) >= threshold) ++j;
    // Record whether the next kept boundary is the immediate next arrival.
    boundaries_[w].adjacent_to_next =
        (j == i + 1) && boundaries_[w].adjacent_to_next;
    ++w;
    i = j;
  }
  boundaries_.erase(boundaries_.begin() + static_cast<ptrdiff_t>(w),
                    boundaries_.end());
}

double ExponentialHistogram::Estimate(double window_start) const {
  for (const auto& b : boundaries_) {
    if (b.start_ts >= window_start) return b.suffix_sum;
  }
  return 0.0;
}

void ExponentialHistogram::EvictBefore(double window_start) {
  while (!boundaries_.empty() && boundaries_.front().start_ts < window_start) {
    boundaries_.pop_front();
  }
}

double ExponentialHistogram::OldestSuffixSum() const {
  return boundaries_.empty() ? 0.0 : boundaries_.front().suffix_sum;
}

void ExponentialHistogram::Serialize(ByteWriter* writer) const {
  writer->Put(eps_);
  writer->Put(last_ts_);
  // Field by field, never the raw struct: Boundary has padding after the
  // bool, and memcpy'ing it would leak uninitialized bytes into the
  // payload (caught by the golden-fixture byte-stability tests).
  writer->Put<uint64_t>(boundaries_.size());
  for (const Boundary& b : boundaries_) {
    writer->Put(b.start_ts);
    writer->Put(b.suffix_sum);
    writer->Put<uint8_t>(b.adjacent_to_next ? 1 : 0);
  }
}

bool ExponentialHistogram::Deserialize(ByteReader* reader) {
  // The clock must be one Add can still advance from: -inf (nothing added
  // yet) or finite.
  uint64_t n = 0;
  if (!reader->Get(&eps_) || !reader->Get(&last_ts_) ||
      std::isnan(last_ts_) ||
      last_ts_ == std::numeric_limits<double>::infinity() || !reader->Get(&n)) {
    return false;
  }
  boundaries_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    Boundary b;
    uint8_t adjacent = 0;
    if (!reader->Get(&b.start_ts) || !reader->Get(&b.suffix_sum) ||
        !reader->Get(&adjacent)) {
      return false;
    }
    b.adjacent_to_next = adjacent != 0;
    boundaries_.push_back(b);
  }
  return true;
}

}  // namespace swsketch

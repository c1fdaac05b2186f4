// SWOR: sliding-window row sampling WITHOUT replacement (Algorithm 5.2),
// plus the SWOR-ALL variant evaluated in Section 8.
//
// A single candidate queue stores (row, log-priority, rank), where rank is
// the row's priority rank within [t_j, now]. A row can only enter the
// window top-ell if it is top-ell in every suffix starting at its own
// arrival, so candidates with rank > ell are discarded. Query extracts the
// top-ell candidates by priority (SWOR) or uses every candidate (SWOR-ALL)
// and rescales by ||A||_F / sqrt(sum of selected squared norms).
#ifndef SWSKETCH_CORE_SWOR_H_
#define SWSKETCH_CORE_SWOR_H_

#include <cstdint>
#include <deque>
#include <string>

#include "core/frobenius_tracker.h"
#include "core/sliding_window_sketch.h"
#include "stream/row.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// Sampling-without-replacement sliding-window sketch (sequence and time
/// windows).
class SworSketch : public SlidingWindowSketch {
 public:
  enum class QueryMode {
    kTopEll,  // SWOR: the ell window samples.
    kAll,     // SWOR-ALL: every candidate row.
  };

  struct Options {
    size_t ell = 64;
    QueryMode query_mode = QueryMode::kTopEll;
    double frobenius_eps = 0.05;
    bool exact_frobenius = false;
    uint64_t seed = 1;
  };

  SworSketch(size_t dim, WindowSpec window, Options options);

  void Update(std::span<const double> row, double ts) override;

  /// Bit-identical to the serial loop. Priority draws and EH evictions stay
  /// per-row; only the queue-front expiry scan is deferred to one pass at
  /// the end of the block. Safe because rank bumps are per-candidate
  /// (dominated-by-new-arrival only — candidates never interact), so stale
  /// expired entries lingering at the front never change a survivor's rank,
  /// and they still form a timestamp-ordered prefix for the final expiry.
  void UpdateBatch(const Matrix& rows, std::span<const double> ts) override;

  void AdvanceTo(double now) override;
  Matrix Query() override;
  size_t RowsStored() const override { return queue_.size(); }
  size_t dim() const override { return dim_; }
  std::string name() const override {
    return options_.query_mode == QueryMode::kAll ? "SWOR-ALL" : "SWOR";
  }
  const WindowSpec& window() const override { return window_; }

  size_t AuxiliarySize() const { return frobenius_.AuxiliarySize(); }

  /// Checkpoint/resume: Serialize writes the wire header core/factory.h
  /// reads back, then the state LoadState reads.
  static constexpr uint32_t kSerialTag = 0x53574F01;
  void Serialize(ByteWriter* writer) const;
  Status SerializeTo(ByteWriter* writer) const override {
    Serialize(writer);
    return Status::OK();
  }
  Status LoadState(ByteReader* reader) override;

 private:
  struct Candidate {
    SharedRow row;
    double log_priority;
    size_t rank;  // Priority rank within [row->ts, now], 1-based.
  };

  void Expire(double now);

  size_t dim_;
  WindowSpec window_;
  Options options_;
  Rng rng_;
  std::deque<Candidate> queue_;
  FrobeniusTracker frobenius_;
  double now_ = 0.0;
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_SWOR_H_

// SWR: sliding-window row sampling WITH replacement (Algorithm 5.1).
//
// One monotonic candidate deque per independent sample. A row a_t gets a
// priority rho_t = u^{1/||a_t||^2} (kept in log space); a stored row stays
// a candidate exactly while its priority is the maximum over [t_j, now],
// so the deque holds strictly decreasing priorities from oldest to newest:
// arrivals pop dominated candidates from the back, expiry pops from the
// front, and the front is always the window's sample.
//
// Expected candidates per deque: O(log NR) (Lemma 5.1); with ell deques the
// sketch stores O(ell log NR) candidate entries, while the actual rows are
// shared across deques via SharedRow.
#ifndef SWSKETCH_CORE_SWR_H_
#define SWSKETCH_CORE_SWR_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/frobenius_tracker.h"
#include "core/sliding_window_sketch.h"
#include "stream/row.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// Sampling-with-replacement sliding-window sketch (works for sequence and
/// time windows).
class SwrSketch : public SlidingWindowSketch {
 public:
  struct Options {
    /// Number of independent samples (ell). Theory: ell = O(d / eps^2).
    size_t ell = 64;
    /// Relative error of the exponential histogram tracking ||A||_F^2.
    double frobenius_eps = 0.05;
    /// Track ||A||_F^2 exactly (one scalar per window row) instead of the
    /// EH; the paper notes this option for when norms fit in memory.
    bool exact_frobenius = false;
    uint64_t seed = 1;
  };

  SwrSketch(size_t dim, WindowSpec window, Options options);

  void Update(std::span<const double> row, double ts) override;

  /// Bit-identical to the serial loop. Priority draws stay row-major and
  /// the EH evictions stay per-row (bucket merge cascades depend on
  /// eviction timing), but the per-chain *front* expiry scans — pure
  /// removals of a timestamp-ordered prefix, which commute with the
  /// back-side dominance pops — are deferred to one pass at the end of the
  /// block, saving ell deque checks per row.
  void UpdateBatch(const Matrix& rows, std::span<const double> ts) override;

  void AdvanceTo(double now) override;
  Matrix Query() override;
  size_t RowsStored() const override;
  size_t dim() const override { return dim_; }
  std::string name() const override { return "SWR"; }
  const WindowSpec& window() const override { return window_; }

  /// Number of distinct rows currently referenced (shared storage).
  size_t UniqueRowsStored() const;

  /// Auxiliary scalars used by the Frobenius tracker.
  size_t AuxiliarySize() const { return frobenius_.AuxiliarySize(); }

  /// Checkpoint/resume: Serialize writes the wire header core/factory.h
  /// reads back, then the state LoadState reads. Candidate rows shared
  /// across chains are duplicated in the payload; on load every candidate
  /// owns its row.
  static constexpr uint32_t kSerialTag = 0x53575201;
  void Serialize(ByteWriter* writer) const;
  Status SerializeTo(ByteWriter* writer) const override {
    Serialize(writer);
    return Status::OK();
  }
  Status LoadState(ByteReader* reader) override;

  /// One independent sample with its priority (distributed merging:
  /// priorities are max-stable across disjoint sub-streams).
  struct ChainSample {
    SharedRow row;
    double log_priority;
  };

  /// Current per-chain window samples; empty optionals for empty chains.
  /// Expires state as of the last seen timestamp.
  std::vector<std::optional<ChainSample>> ChainSamples();

  /// Current window ||A||_F^2 estimate (exact or EH, per options).
  double FrobeniusSqEstimate();

  size_t ell() const { return chains_.size(); }

 private:
  struct Candidate {
    SharedRow row;
    double log_priority;
  };

  void Expire(double now);

  size_t dim_;
  WindowSpec window_;
  Options options_;
  Rng rng_;
  std::vector<std::deque<Candidate>> chains_;
  FrobeniusTracker frobenius_;
  double now_ = 0.0;
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_SWR_H_

// Sliding-window row sampling (Algorithms 5.1 and 5.2) as one priority
// window: a row a_t gets the priority rho_t = u^{1/||a_t||^2} (kept in log
// space) and stays a candidate while its priority is in the top `keep` of
// [t, now]. Each candidate carries that rank; an arrival with a higher
// priority bumps it, and a candidate bumped past `keep` can never re-enter
// the window's top `keep`, so it is dropped. Expiry pops a timestamp-ordered
// prefix from the front.
//
// The scheme fixes the chain shape:
//  - swr (Algorithm 5.1, with replacement): ell chains of keep 1, so each
//    chain is a monotone deque whose front is one independent sample. The
//    rows themselves are shared across chains (SharedRow).
//  - swor (Algorithm 5.2, without replacement): one chain of keep ell;
//    Query returns its top-ell candidates.
//  - swor-all (the Section 8 variant): the same chain, but Query returns
//    every candidate under one common scale.
// Expected candidates: O(log NR) per swr chain (Lemma 5.1), O(ell log NR)
// for the swor chain. ||A_W||_F^2 comes from a FrobeniusTracker (EH or
// exact).
#ifndef SWSKETCH_CORE_WINDOW_SAMPLER_H_
#define SWSKETCH_CORE_WINDOW_SAMPLER_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "core/frobenius_tracker.h"
#include "core/sliding_window_sketch.h"
#include "stream/row.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

struct SamplerMetrics;

/// Priority-window row sampler over sequence or time windows.
class WindowSampler : public SlidingWindowSketch {
 public:
  enum class Scheme : uint8_t {
    kSwr,      // ell chains keeping 1: samples with replacement.
    kSwor,     // One chain keeping ell: the ell window samples.
    kSworAll,  // One chain keeping ell: every candidate row.
  };

  struct Options {
    /// Samples per query (ell). Theory: ell = O(d / eps^2).
    size_t ell = 64;
    Scheme scheme = Scheme::kSwr;
    /// Relative error of the exponential histogram tracking ||A||_F^2.
    double frobenius_eps = 0.05;
    /// Track ||A||_F^2 exactly (one scalar per window row) instead of the
    /// EH; the paper notes this option for when norms fit in memory.
    bool exact_frobenius = false;
    uint64_t seed = 1;
  };

  WindowSampler(size_t dim, WindowSpec window, Options options);

  void Update(std::span<const double> row, double ts) override;

  /// Bit-identical to the serial loop. Priority draws and EH evictions stay
  /// per-row (bucket merges depend on when mass leaves); only the chain
  /// front expiry is deferred to one pass at the end of the block. Safe
  /// because a rank bump compares one candidate with the arrival alone, so
  /// stale entries at a front never change a survivor, and they still form
  /// a timestamp-ordered prefix for the final expiry.
  void UpdateBatch(const Matrix& rows, std::span<const double> ts) override;

  void AdvanceTo(double now) override;
  Matrix Query() override;
  /// Paper accounting: every candidate entry counts as a stored row (each
  /// swr chain conceptually owns its queue).
  size_t RowsStored() const override;
  size_t dim() const override { return dim_; }
  std::string name() const override;
  const WindowSpec& window() const override { return window_; }

  /// Number of distinct rows currently referenced (shared storage).
  size_t UniqueRowsStored() const;

  /// Auxiliary scalars used by the Frobenius tracker.
  size_t AuxiliarySize() const { return frobenius_.AuxiliarySize(); }

  size_t ell() const { return options_.ell; }
  Scheme scheme() const { return options_.scheme; }

  /// Checkpoint/resume: Serialize writes the wire header core/factory.h
  /// reads back, then the state LoadState reads. swr writes kSerialTag
  /// with a chain count and no ranks; swor and swor-all write
  /// kSworSerialTag with a swor-all flag and a rank per candidate. Rows
  /// shared across chains are duplicated in the payload; on load every
  /// candidate owns its row.
  static constexpr uint32_t kSerialTag = 0x53575201;      // "SWR\x01"
  static constexpr uint32_t kSworSerialTag = 0x53574F01;  // "SWO\x01"
  void Serialize(ByteWriter* writer) const;
  Status SerializeTo(ByteWriter* writer) const override {
    Serialize(writer);
    return Status::OK();
  }
  Status LoadState(ByteReader* reader) override;

  /// The union-window sample of `samplers`: samplers over disjoint
  /// sub-streams of one window, with one scheme, ell and dim. Per chain it
  /// keeps the top-keep candidates across the samplers. That is
  /// max-stable: a row in the union window's top keep is also in its own
  /// sampler's top keep. ||A||_F^2 is the sum of the samplers' estimates.
  /// One sampler gives its own Query() exactly. Each sampler expires to its
  /// own latest timestamp; callers align them first.
  static Matrix PriorityUnionQuery(std::span<WindowSampler* const> samplers);

 private:
  struct Candidate {
    SharedRow row;
    double log_priority;
    size_t rank;  // Priority rank within [row->ts, now], 1-based.
  };

  /// Draws a priority per chain for a row of weight w and admits it.
  void Ingest(std::span<const double> row, double w, double ts);
  void Expire(double now);

  size_t dim_;
  WindowSpec window_;
  Options options_;
  size_t keep_;  // Candidates each chain keeps: 1 (swr) or ell.
  const SamplerMetrics* metrics_;
  Rng rng_;
  std::vector<std::deque<Candidate>> chains_;
  FrobeniusTracker frobenius_;
  double now_ = 0.0;
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_WINDOW_SAMPLER_H_

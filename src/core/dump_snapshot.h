// DS-FD (dump-snapshot Frequent Directions): the optimal-space sliding-
// window FD of "Optimal Matrix Sketching over Sliding Windows" (PAPERS.md,
// arXiv 2405.07792), reconstructed on this library's FD core.
//
// Where LM-FD covers the window with O(log) levels of closed FD blocks,
// DS-FD keeps ONE live FD per time *frame* and exploits FD's monotone
// per-direction error: for two states C (earlier) and B (later) of the
// same FD instance, B^T B - C^T C approximates the Gram of the rows that
// arrived in between, with spectral error bounded by the shrink mass shed
// between the two states. So the window Gram is
//
//     sum_{fully live frames j} B_j^T B_j  +  (B_s^T B_s - C_i^T C_i)
//
// where B_s is the unique frame straddling the window start and C_i is a
// *snapshot* of that frame's FD taken just before the window start. Only
// the boundary granularity costs anything: rows that arrived between the
// snapshot instant t_i and the window start leak into the estimate.
//
// Structure:
//  * Frames tile time: the active frame ingests every row into its own
//    FD (one FD append per row — no cascade of merges), and is cut once
//    its span covers a full window extent, so at most one frozen frame
//    can straddle the window start and at most ~3 frames are ever alive.
//  * The dump/snapshot ladder: while a frame is active, a snapshot of its
//    FD state is dumped every time the frame accretes Theta = F_hat / k
//    of squared-norm mass, where F_hat is the FrobeniusTracker estimate
//    of the current window mass (the "Frobenius-norm level" quantum) and
//    k = Options::snapshots_per_window. The boundary leak is < Theta.
//  * Snapshots are spectrally truncated: a snapshot is only ever used as
//    the subtrahend C_i with Theta-scale slack already conceded, and only
//    ONE snapshot is subtracted per query, so directions with eigenvalue
//    below snapshot_trunc * Theta are dropped at dump time (error <= the
//    largest dropped eigenvalue, not the sum). This is what makes the
//    ladder O(k) rows total instead of O(k * ell): early snapshots of a
//    frame hold only the few directions above the level quantum.
//  * Eviction: a frame dies when its last row expires; a snapshot dies
//    when a newer snapshot also lies before the window start (the newest
//    expired snapshot is exactly C_i and must be retained).
//
// Query assembles the signed stack [B_j...; B_s; -C_i] and extracts the
// best rank-<=ell PSD approximation *restricted to the stack's row span*:
// with S the stacked rows, J the signs, A = S S^T = W Lambda W^T, the
// orthonormal row-span basis is Q = Lambda^{-1/2} W^T S and the restricted
// target Q (S^T J S) Q^T works out to M_{bc} = sqrt(lambda_b lambda_c) *
// sum_a J_a W_{ab} W_{ac} — an m x m problem (m <= ~4 ell) that never
// touches a d x d matrix, mirroring the FD Gram-eigen shrink. Positive
// eigenpairs of M give the output rows. Subtracting a snapshot can leave
// the difference slightly indefinite (both states are shrunk); the PSD
// projection is what makes that safe.
//
// Space: ~3 frame FDs + O(k) snapshot rows = O((ell + k) d) resident —
// no log factor. Update: one FD append + one EH add per row. Query:
// O(m^2 d + m^3) cold, cached until the next mutation.
#ifndef SWSKETCH_CORE_DUMP_SNAPSHOT_H_
#define SWSKETCH_CORE_DUMP_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/frobenius_tracker.h"
#include "core/sliding_window_sketch.h"
#include "sketch/frequent_directions.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/versioned_cache.h"

namespace swsketch {

/// Dump-snapshot FD sliding-window sketch (sequence and time windows).
class DsFd : public SlidingWindowSketch {
 public:
  struct Options {
    /// Output sketch size (rows returned by Query is at most ell).
    size_t ell = 16;
    /// Snapshot ladder density k: a snapshot is dumped every
    /// F_hat / k of window mass, so the boundary leak is about 1/k of
    /// the window's squared Frobenius norm. 0 (the default) auto-scales
    /// with the sketch size, k = max(8, 3*ell/8): the ladder quantum
    /// then tracks the FD error floor ~1/ell instead of wasting dumps
    /// (small ell, shed-dominated) or starving the boundary (large ell,
    /// leak-dominated).
    size_t snapshots_per_window = 0;
    /// Spectral truncation of dumped snapshots: directions below
    /// snapshot_trunc * (F_hat / k) are dropped (see file comment).
    /// 0 disables truncation (snapshots keep up to ell rows each).
    double snapshot_trunc = 0.25;
    /// Internal frame-FD oversize: each frame's FD runs at
    /// round(frame_ell_factor * ell) directions — capped at (dim + 1) / 2,
    /// past which the Gram small-side advantage is gone — while Query
    /// still caps its output at ell. The straddle estimate
    /// B_s^T B_s - C_i^T C_i pays the shrink mass shed *between* the two
    /// states, which scales like 1/(frame ell); oversizing the internal
    /// frame cuts that boundary error at a modest space cost that stays
    /// O(ell * d). Must be >= 1.
    double frame_ell_factor = 1.5;
    /// buffer_factor for the per-frame FD instances (see
    /// FrequentDirections::Options::buffer_factor). The resolved buffer
    /// capacity is additionally capped at 16 * dim / 25 rows, keeping the
    /// shrink eigensolve well clear of the d x d crossover. Defaults to
    /// 3 — frames are long-lived single-writer FDs, so amortizing the
    /// shrink cadence buys update time for resident rows the
    /// dump-snapshot layout has to spare.
    double fd_buffer_factor = 3.0;
    /// FrobeniusTracker accuracy for the window-mass estimate F_hat.
    double frobenius_eps = 0.05;
    /// Exact window-mass tracking instead of the EH estimate.
    bool exact_frobenius = false;
  };

  // Handles into the global registry under the "ds_fd." scope. Resolved
  // once at construction; instances share counters by name. Ledgers
  // (checked by metrics_invariants_test):
  //   frames_opened + frames_loaded
  //     == frames_expired + frames_discarded + live_frames
  //   snapshots_taken + snapshots_loaded
  //     == snapshots_evicted + snapshots_discarded + live_snapshots
  //   queries == query_cache_hits + query_cache_misses
  // Public so SketchPrototype can resolve the set once and stamp it into
  // every arena-constructed tenant (same contract as LM's MetricSet).
  struct MetricSet {
    explicit MetricSet(const MetricScope& scope)
        : rows_ingested(scope.counter("rows_ingested")),
          frames_opened(scope.counter("frames_opened")),
          frames_expired(scope.counter("frames_expired")),
          frames_loaded(scope.counter("frames_loaded")),
          frames_discarded(scope.counter("frames_discarded")),
          snapshots_taken(scope.counter("snapshots_taken")),
          snapshots_evicted(scope.counter("snapshots_evicted")),
          snapshots_loaded(scope.counter("snapshots_loaded")),
          snapshots_discarded(scope.counter("snapshots_discarded")),
          queries(scope.counter("queries")),
          query_cache_hits(scope.counter("query_cache_hits")),
          query_cache_misses(scope.counter("query_cache_misses")),
          reloads(scope.counter("reloads")),
          heavy_tail_warnings(scope.counter("heavy_tail_warnings")),
          live_frames(scope.gauge("live_frames")),
          live_snapshots(scope.gauge("live_snapshots")),
          snapshot_rows(scope.histogram("snapshot_rows")) {}
    Counter* rows_ingested;
    Counter* frames_opened;
    Counter* frames_expired;
    Counter* frames_loaded;
    Counter* frames_discarded;
    Counter* snapshots_taken;
    Counter* snapshots_evicted;
    Counter* snapshots_loaded;
    Counter* snapshots_discarded;
    Counter* queries;
    Counter* query_cache_hits;
    Counter* query_cache_misses;
    Counter* reloads;
    /// Bumped once per instance lifetime when the observed squared-norm
    /// ratio crosses kHeavyTailNormSqRatio (see its doc comment).
    Counter* heavy_tail_warnings;
    Gauge* live_frames;
    Gauge* live_snapshots;
    Histogram* snapshot_rows;
  };

  DsFd(size_t dim, WindowSpec window, Options options);

  /// Mass-construction overload (SketchPrototype): pre-resolved metric
  /// handles instead of per-instance registry probes.
  DsFd(size_t dim, WindowSpec window, Options options,
       const MetricSet& metrics);

  // Move-only: the destructor settles the live gauges for whatever this
  // instance still holds, and moving leaves the source's frames_ empty
  // (vector move guarantee) so each frame/snapshot is settled exactly
  // once.
  DsFd(DsFd&&) = default;
  ~DsFd() override;

  void Update(std::span<const double> row, double ts) override;

  /// Block fast path: per-row trigger bookkeeping (expiry, tracker,
  /// snapshot/cut decisions) with the FD appends of each trigger-free run
  /// batched through FrequentDirections::AppendBatch. Structural
  /// decisions (frames, snapshots) are identical to per-row Update; the
  /// FD buffer bytes are bit-identical whenever AppendBatch replays the
  /// serial schedule (buffer capacity < dim — see its contract).
  void UpdateBatch(const Matrix& rows, std::span<const double> ts) override;

  void AdvanceTo(double now) override;

  /// Signed-stack PSD projection described in the file comment. At most
  /// ell rows. Cached until the next mutation.
  Matrix Query() override;

  uint64_t StateVersion() const override { return mutation_version_; }

  /// Resident rows: every frame's FD buffer plus every retained snapshot
  /// row (the honest space figure the harness reports).
  size_t RowsStored() const override;

  size_t dim() const override { return dim_; }
  std::string name() const override { return "DS-FD"; }
  const WindowSpec& window() const override { return window_; }

  size_t num_frames() const { return frames_.size(); }
  size_t num_snapshots() const;
  const Options& options() const { return options_; }

  /// Squared-norm ratio (max / min over positive-norm rows ingested by
  /// this instance) at which DS-FD's boundary-leak weak spot becomes a
  /// real accuracy risk: the ladder quantum Theta = F_hat / k is sized
  /// for the window's aggregate mass, so with row-norm ratio R ~ 1e4+
  /// (squared ratio 1e8+) a single heavy row rivals Theta and expiring it
  /// can leak an order-1 fraction of a snapshot into the answer
  /// (EXPERIMENTS.md, PAMAP known limitation; use lm-fd there). Crossing
  /// this threshold bumps heavy_tail_warnings once per instance.
  static constexpr double kHeavyTailNormSqRatio = 1e8;

  /// Resolved internals (options after dim-aware auto-scaling).
  size_t frame_ell() const { return frame_ell_; }
  size_t frame_capacity() const { return frame_capacity_; }
  size_t ladder_k() const { return ladder_k_; }

  /// Version 1 DS-FD wire format (v2 container conventions: framed
  /// header, explicit sizes; FD payloads use the FD tag's own format).
  /// Serialize writes the wire header core/factory.h reads back, then the
  /// state LoadState reads: clock, tracker, frames and their snapshots.
  static constexpr uint32_t kSerialTag = 0x44534601;  // "DSF\x01"
  void Serialize(ByteWriter* writer) const;
  Status SerializeTo(ByteWriter* writer) const override {
    Serialize(writer);
    return Status::OK();
  }
  Status LoadState(ByteReader* reader) override;

 private:
  struct Snapshot {
    double ts = 0.0;          // Dump instant: covers rows with ts' <= ts.
    double frame_mass = 0.0;  // Frame mass ingested up to the dump.
    Matrix rows;              // Truncated FD state at the dump instant.
  };

  struct Frame {
    FrequentDirections fd;
    double birth = 0.0;  // ts of the frame's first row.
    double last = 0.0;   // ts of the frame's newest row.
    double mass = 0.0;   // Squared-norm mass ingested into the frame.
    double mass_since_snapshot = 0.0;
    bool frozen = false;  // Cut: no longer ingests.
    std::vector<Snapshot> snapshots;  // ts-ascending.
  };

  FrequentDirections MakeFrameFd() const;
  Frame& OpenFrame(double ts);
  /// Whether a row at `ts` appended to `frame` closes it (see Update).
  bool CutsFrame(const Frame& frame, double ts) const;
  void NoteRowNorm(double norm_sq);
  void Expire(double now);
  void EvictFrontSnapshots(double window_start);
  void ThinLadder(Frame& frame, double spacing);
  double SnapshotSpacing() const;
  void DumpSnapshot(Frame& frame, double ts);

  // Cold Query() path: stacks every frame's FD approximation, subtracts
  // the straddling frame's newest expired snapshot, and projects
  // (CompressSigned in dump_snapshot.cc).
  Matrix ProjectWindow();

  size_t dim_;
  WindowSpec window_;
  Options options_;
  // Dim-aware resolution of the options (see the Options doc comments):
  // frame_ell_ = round(frame_ell_factor * ell) in [ell, (dim + 1) / 2],
  // frame_capacity_ = fd_buffer_factor * frame_ell_ capped at 16 dim / 25,
  // ladder_k_ = snapshots_per_window or max(8, 3 ell / 8) when auto.
  size_t frame_ell_ = 0;
  size_t frame_capacity_ = 0;
  size_t ladder_k_ = 0;
  MetricSet metrics_;

  std::vector<Frame> frames_;  // Oldest first; back() may be active.
  FrobeniusTracker tracker_;
  double now_ = 0.0;
  uint64_t next_id_ = 0;

  // Heavy-tail detector state (kHeavyTailNormSqRatio). Lifetime extrema,
  // deliberately NOT serialized: a reloaded instance re-derives the ratio
  // from the rows it sees (keeping the v1 wire format byte-stable).
  double max_row_norm_sq_ = 0.0;
  double min_row_norm_sq_ = 0.0;  // 0 = no positive-norm row seen yet.
  bool heavy_tail_warned_ = false;

  uint64_t mutation_version_ = 0;
  // Query() result, keyed on mutation_version_ (StateVersion()).
  VersionedCache<uint64_t, Matrix> result_cache_;
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_DUMP_SNAPSHOT_H_

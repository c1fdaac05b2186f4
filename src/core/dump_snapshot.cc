#include "core/dump_snapshot.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/tridiag_eigen.h"
#include "linalg/vector_ops.h"
#include "util/logging.h"

namespace swsketch {

namespace {

constexpr size_t kNoRun = static_cast<size_t>(-1);

FrobeniusTracker MakeTracker(const DsFd::Options& options) {
  return FrobeniusTracker(options.exact_frobenius
                              ? FrobeniusTracker::Mode::kExact
                              : FrobeniusTracker::Mode::kExponentialHistogram,
                          options.frobenius_eps);
}

// Reusable workspace of the signed-stack projection: one per thread
// (ProjectWindow's thread_local), safe for the reasons the FD shrink
// workspace is (frequent_directions.cc).
struct CompressScratch {
  Matrix stack;                  // Stacked signed rows (m x d).
  std::vector<double> signs;     // +1 / -1 per stacked row.
  Matrix gram;                   // A = S S^T (m x m).
  SymmetricEigenScratch eigen_a;
  Matrix restricted;             // M (r x r).
  SymmetricEigenScratch eigen_m;
  Matrix coeff;                  // Output coefficients (rows x r).
  Matrix basis;                  // Y = W_r^T S (r x d).
};

// Emits the best rank-<=max_rows PSD approximation of
// sum_a signs[a] * stack_a^T stack_a restricted to the stack's row span,
// dropping eigenvalues past the numerical rank. Deterministic.
Matrix CompressSigned(CompressScratch& s, size_t dim, size_t max_rows) {
  const Matrix& stack = s.stack;
  const size_t m = stack.rows();
  if (m == 0 || max_rows == 0) return Matrix(0, dim);
  SWSKETCH_CHECK_EQ(s.signs.size(), m);

  // A = S S^T, the m x m row-space Gram (never a d x d system).
  stack.GramOuterInto(&s.gram);
  const SymmetricEigen& ea = TridiagEigen(s.gram, &s.eigen_a);
  // Same numerical rank as the FD shrink, so degenerate stacks retain the
  // same directions as the sketches they came from.
  const size_t r = NumericalRank(ea);
  if (r == 0) return Matrix(0, dim);

  // Restricted signed target M = Q (S^T J S) Q^T for the orthonormal
  // row-span basis Q = Lambda^{-1/2} W^T S, which collapses to
  // M_{bc} = sqrt(lambda_b lambda_c) sum_a J_a W_{ab} W_{ac}.
  s.restricted.ResetShape(r, r);
  s.restricted.SetZero();
  for (size_t a = 0; a < m; ++a) {
    const double ja = s.signs[a];
    for (size_t b = 0; b < r; ++b) {
      const double coef = ja * ea.eigenvectors(a, b);
      if (coef == 0.0) continue;
      for (size_t c = b; c < r; ++c) {
        s.restricted(b, c) += coef * ea.eigenvectors(a, c);
      }
    }
  }
  for (size_t b = 0; b < r; ++b) {
    const double sb = std::sqrt(ea.eigenvalues[b]);
    for (size_t c = b; c < r; ++c) {
      s.restricted(b, c) *= sb * std::sqrt(ea.eigenvalues[c]);
    }
  }
  s.restricted.MirrorUpperToLower();

  // M is indefinite; its numerical rank counts only the positive head.
  const SymmetricEigen& em = TridiagEigen(s.restricted, &s.eigen_m);
  const size_t k = std::min(NumericalRank(em), max_rows);
  if (k == 0) return Matrix(0, dim);

  // Y = W_r^T S re-expresses the basis in R^d; output row j is
  // sqrt(sigma_j) u_j^T Q = sum_b (sqrt(sigma_j) U_{bj} / sqrt(lambda_b))
  // y_b, assembled as one k x r by r x d multiply.
  s.coeff.ResetShape(r, m);
  for (size_t b = 0; b < r; ++b) {
    for (size_t a = 0; a < m; ++a) s.coeff(b, a) = ea.eigenvectors(a, b);
  }
  s.coeff.MultiplyRowsInto(stack, 0, &s.basis);  // basis = W_r^T S.
  s.coeff.ResetShape(k, r);
  for (size_t j = 0; j < k; ++j) {
    const double sj = std::sqrt(em.eigenvalues[j]);
    for (size_t b = 0; b < r; ++b) {
      s.coeff(j, b) =
          sj * em.eigenvectors(b, j) / std::sqrt(ea.eigenvalues[b]);
    }
  }
  Matrix out;
  s.coeff.MultiplyRowsInto(s.basis, 0, &out);
  return out;
}

}  // namespace

DsFd::DsFd(size_t dim, WindowSpec window, Options options)
    : DsFd(dim, window, options,
           MetricSet(MetricScope(MetricScope::Slug("DS-FD")))) {}

DsFd::DsFd(size_t dim, WindowSpec window, Options options,
           const MetricSet& metrics)
    : dim_(dim),
      window_(window),
      options_(options),
      metrics_(metrics),
      tracker_(MakeTracker(options)) {
  SWSKETCH_CHECK_GE(options_.ell, 2u);
  SWSKETCH_CHECK_GE(options_.fd_buffer_factor, 1.0);
  SWSKETCH_CHECK_GE(options_.snapshot_trunc, 0.0);
  SWSKETCH_CHECK_GE(options_.frame_ell_factor, 1.0);
  SWSKETCH_CHECK_GT(options_.frobenius_eps, 0.0);
  frame_ell_ = std::clamp(
      static_cast<size_t>(std::lround(options_.frame_ell_factor *
                                      static_cast<double>(options_.ell))),
      options_.ell, std::max(options_.ell, (dim_ + 1) / 2));
  // Frame shrinks are Gram eigensolves on capacity-sized systems, so the
  // capacity cap keeps them well under dim (16/25 ~ 0.64 of dim).
  frame_capacity_ = std::clamp(
      static_cast<size_t>(options_.fd_buffer_factor *
                          static_cast<double>(frame_ell_)),
      frame_ell_, std::max(frame_ell_, 16 * dim_ / 25));
  ladder_k_ = options_.snapshots_per_window != 0
                  ? options_.snapshots_per_window
                  : std::max<size_t>(8, 3 * options_.ell / 8);
}

DsFd::~DsFd() {
  const size_t nf = frames_.size();
  const size_t ns = num_snapshots();
  if (nf != 0) {
    metrics_.frames_discarded->Add(nf);
    metrics_.live_frames->Add(-static_cast<int64_t>(nf));
  }
  if (ns != 0) {
    metrics_.snapshots_discarded->Add(ns);
    metrics_.live_snapshots->Add(-static_cast<int64_t>(ns));
  }
}

size_t DsFd::num_snapshots() const {
  size_t n = 0;
  for (const Frame& f : frames_) n += f.snapshots.size();
  return n;
}

size_t DsFd::RowsStored() const {
  size_t n = 0;
  for (const Frame& f : frames_) {
    n += f.fd.RowsStored();
    for (const Snapshot& s : f.snapshots) n += s.rows.rows();
  }
  return n;
}

FrequentDirections DsFd::MakeFrameFd() const {
  // buffer_factor chosen so FD's truncating capacity resolution lands on
  // exactly frame_capacity_ rows.
  return FrequentDirections(
      dim_,
      FrequentDirections::Options{
          .ell = frame_ell_,
          .buffer_factor = (static_cast<double>(frame_capacity_) + 0.5) /
                           static_cast<double>(frame_ell_)});
}

DsFd::Frame& DsFd::OpenFrame(double ts) {
  frames_.push_back(
      Frame{.fd = MakeFrameFd(), .birth = ts, .last = ts, .snapshots = {}});
  metrics_.frames_opened->Add();
  metrics_.live_frames->Add(1);
  return frames_.back();
}

void DsFd::Expire(double now) {
  const double start = window_.Start(now);
  tracker_.EvictBefore(start);
  while (!frames_.empty() && frames_.front().last < start) {
    const size_t ns = frames_.front().snapshots.size();
    if (ns != 0) {
      metrics_.snapshots_evicted->Add(ns);
      metrics_.live_snapshots->Add(-static_cast<int64_t>(ns));
    }
    metrics_.frames_expired->Add();
    metrics_.live_frames->Add(-1);
    frames_.erase(frames_.begin());
  }
  if (!frames_.empty()) EvictFrontSnapshots(start);
}

void DsFd::EvictFrontSnapshots(double window_start) {
  // A snapshot may be dropped once its successor also lies before the
  // window start: the newest expired snapshot is exactly the C_i the next
  // query subtracts and must survive. Only the front frame can hold
  // expired snapshots (later frames are born after the front's last row).
  std::vector<Snapshot>& sn = frames_.front().snapshots;
  size_t drop = 0;
  while (drop + 1 < sn.size() && sn[drop + 1].ts < window_start) ++drop;
  if (drop != 0) {
    sn.erase(sn.begin(), sn.begin() + static_cast<ptrdiff_t>(drop));
    metrics_.snapshots_evicted->Add(drop);
    metrics_.live_snapshots->Add(-static_cast<int64_t>(drop));
  }
}

double DsFd::SnapshotSpacing() const {
  const double fhat = tracker_.Estimate(window_.Start(now_));
  return std::max(fhat, 1e-300) / static_cast<double>(ladder_k_);
}

void DsFd::DumpSnapshot(Frame& frame, double ts) {
  const double spacing = SnapshotSpacing();
  // Flush the frame FD so its rows are the diagonalized post-shrink state
  // (mutually orthogonal, squared norm = shrunk eigenvalue). Spectral
  // truncation is then a free row-norm filter — no extra eigensolve on
  // the ingest path; the forced shrink is work the frame FD was about to
  // do anyway (dumps are rarer than the amortized shrink cadence).
  frame.fd.ShrinkNow();
  const Matrix& b = frame.fd.Approximation();
  const double cutoff = options_.snapshot_trunc * spacing;
  Matrix snap(0, dim_);
  snap.ReserveRows(b.rows());
  for (size_t i = 0; i < b.rows(); ++i) {
    const double w = NormSq(b.Row(i));
    if (w > 0.0 && w >= cutoff) snap.AppendRow(b.Row(i));
  }
  metrics_.snapshot_rows->Record(snap.rows());
  frame.snapshots.push_back(Snapshot{ts, frame.mass, std::move(snap)});
  frame.mass_since_snapshot = 0.0;
  metrics_.snapshots_taken->Add();
  metrics_.live_snapshots->Add(1);
  ThinLadder(frame, spacing);
}

void DsFd::ThinLadder(Frame& frame, double spacing) {
  // Re-thin against the CURRENT quantum. Early in a frame's life the
  // window-mass estimate (and with it the quantum) is still small, so the
  // ladder is dumped geometrically dense; without thinning the startup
  // transient holds O(log) snapshots instead of O(k). Dropping an interior
  // snapshot is safe while the frame mass between its retained neighbours
  // stays <= spacing: any window start landing in the merged gap still
  // finds a snapshot at most one quantum of mass behind it, which is the
  // dump-time leak bound. The newest snapshot is never dropped (it is the
  // freshest pre-cut state the next straddle will subtract). Only the
  // active frame is thinned, and while a frame is active none of its
  // snapshots can lie before the window start (the frame freezes at the
  // first update where its birth falls behind the start), so thinning
  // never removes a snapshot a query could already need.
  std::vector<Snapshot>& sn = frame.snapshots;
  if (sn.size() < 2) return;
  std::vector<Snapshot> kept;
  kept.reserve(sn.size());
  double last_kept_mass = 0.0;
  for (size_t i = 0; i + 1 < sn.size(); ++i) {
    if (sn[i + 1].frame_mass - last_kept_mass <= spacing) continue;
    last_kept_mass = sn[i].frame_mass;
    kept.push_back(std::move(sn[i]));
  }
  kept.push_back(std::move(sn.back()));
  if (kept.size() != sn.size()) {
    const size_t dropped = sn.size() - kept.size();
    metrics_.snapshots_evicted->Add(dropped);
    metrics_.live_snapshots->Add(-static_cast<int64_t>(dropped));
  }
  sn = std::move(kept);
}

void DsFd::NoteRowNorm(double norm_sq) {
  if (min_row_norm_sq_ == 0.0 || norm_sq < min_row_norm_sq_) {
    min_row_norm_sq_ = norm_sq;
  }
  if (norm_sq > max_row_norm_sq_) max_row_norm_sq_ = norm_sq;
  if (!heavy_tail_warned_ &&
      max_row_norm_sq_ >= kHeavyTailNormSqRatio * min_row_norm_sq_) {
    heavy_tail_warned_ = true;
    metrics_.heavy_tail_warnings->Add();
  }
}

void DsFd::Update(std::span<const double> row, double ts) {
  SWSKETCH_CHECK_EQ(row.size(), dim_);
  SWSKETCH_CHECK_GE(ts, now_);
  ++mutation_version_;
  now_ = ts;
  Expire(ts);
  const double w = IngestWeight(row);
  if (w <= 0.0) return;
  metrics_.rows_ingested->Add();
  NoteRowNorm(w);
  tracker_.Add(w, ts);
  if (frames_.empty() || frames_.back().frozen) OpenFrame(ts);
  Frame& f = frames_.back();
  f.fd.Append(row, next_id_++);
  f.last = ts;
  f.mass += w;
  f.mass_since_snapshot += w;
  if (f.mass_since_snapshot >= SnapshotSpacing()) DumpSnapshot(f, ts);
  if (CutsFrame(f, ts)) f.frozen = true;
}

bool DsFd::CutsFrame(const Frame& frame, double ts) const {
  // Cut once the frame alone spans a full window extent: every older
  // frame is then strictly older than any window starting at or after
  // `ts`, so at most this frame ever straddles the window start. Rows at
  // the frame's birth timestamp never cut it: where the extent is below
  // that timestamp's ulp, Start(ts) == ts and the rule would otherwise
  // open one frame per row, yet such a frame holds no row before the
  // window start.
  return frame.birth < ts && frame.birth <= window_.Start(ts);
}

void DsFd::UpdateBatch(const Matrix& rows, std::span<const double> ts) {
  SWSKETCH_CHECK_EQ(rows.rows(), ts.size());
  if (rows.rows() != 0) SWSKETCH_CHECK_EQ(rows.cols(), dim_);
  // Per-row trigger bookkeeping, batched FD appends: rows destined for
  // the active frame accumulate in [run_begin, i) and flush through
  // AppendBatch at the first structural trigger (snapshot, cut, frame
  // open, expiry of the active frame, zero-norm row). Trigger decisions
  // depend only on timestamps and masses — never on FD buffer contents —
  // so the frame/snapshot structure is identical to per-row Update.
  size_t run_begin = kNoRun;
  uint64_t run_first_id = 0;
  const auto flush = [&](size_t end) {
    if (run_begin == kNoRun) return;
    frames_.back().fd.AppendBatch(rows, run_begin, end, run_first_id);
    run_begin = kNoRun;
  };
  for (size_t i = 0; i < rows.rows(); ++i) {
    const double t = ts[i];
    SWSKETCH_CHECK_GE(t, now_);
    ++mutation_version_;
    now_ = t;
    // A time gap inside the batch can expire the active frame itself;
    // its staged rows must land before the frame is destroyed.
    if (!frames_.empty() && frames_.back().last < window_.Start(t)) flush(i);
    Expire(t);
    const double w = IngestWeight(rows.Row(i));
    if (w <= 0.0) {
      flush(i);  // The row itself is never appended.
      continue;
    }
    metrics_.rows_ingested->Add();
    NoteRowNorm(w);
    tracker_.Add(w, t);
    if (frames_.empty() || frames_.back().frozen) {
      flush(i);  // No-op unless the previous frame still has staged rows.
      OpenFrame(t);
    }
    Frame& f = frames_.back();
    if (run_begin == kNoRun) {
      run_begin = i;
      run_first_id = next_id_;
    }
    ++next_id_;
    f.last = t;
    f.mass += w;
    f.mass_since_snapshot += w;
    const bool snap = f.mass_since_snapshot >= SnapshotSpacing();
    const bool cut = CutsFrame(f, t);
    if (snap || cut) {
      flush(i + 1);
      if (snap) DumpSnapshot(f, t);
      if (cut) f.frozen = true;
    }
  }
  flush(rows.rows());
}

void DsFd::AdvanceTo(double now) {
  SWSKETCH_CHECK_GE(now, now_);
  ++mutation_version_;
  now_ = now;
  Expire(now);
}

Matrix DsFd::Query() {
  metrics_.queries->Add();
  Expire(now_);
  // Empty window: an empty approximation (counted as a miss so
  // hits + misses == queries stays exact).
  if (frames_.empty()) {
    metrics_.query_cache_misses->Add();
    return Matrix(0, dim_);
  }
  return result_cache_.GetOrCompute(
      mutation_version_, metrics_.query_cache_hits,
      metrics_.query_cache_misses, [this] { return ProjectWindow(); });
}

Matrix DsFd::ProjectWindow() {
  const double start = window_.Start(now_);
  thread_local CompressScratch s;
  s.stack.ResetShape(0, dim_);
  s.signs.clear();
  size_t total = 0;
  for (const Frame& f : frames_) total += f.fd.RowsStored();
  s.stack.ReserveRows(total + options_.ell);
  for (const Frame& f : frames_) {
    const Matrix b = f.fd.Approximation();
    for (size_t i = 0; i < b.rows(); ++i) {
      s.stack.AppendRow(b.Row(i));
      s.signs.push_back(1.0);
    }
  }
  // Only the oldest frame can straddle the window start; subtract its
  // newest expired snapshot to cancel the pre-window prefix.
  const Frame& front = frames_.front();
  if (front.birth < start) {
    const Snapshot* c = nullptr;
    for (auto it = front.snapshots.rbegin(); it != front.snapshots.rend();
         ++it) {
      if (it->ts < start) {
        c = &*it;
        break;
      }
    }
    if (c != nullptr) {
      for (size_t i = 0; i < c->rows.rows(); ++i) {
        s.stack.AppendRow(c->rows.Row(i));
        s.signs.push_back(-1.0);
      }
    }
  }

  return CompressSigned(s, dim_, options_.ell);
}

void DsFd::Serialize(ByteWriter* writer) const {
  WriteHeader(writer, kSerialTag, 1);
  writer->Put<uint64_t>(dim_);
  window_.Serialize(writer);
  writer->Put<uint64_t>(options_.ell);
  writer->Put<uint64_t>(options_.snapshots_per_window);
  writer->Put(options_.snapshot_trunc);
  writer->Put(options_.frame_ell_factor);
  writer->Put(options_.fd_buffer_factor);
  writer->Put(options_.frobenius_eps);
  writer->Put<uint8_t>(options_.exact_frobenius ? 1 : 0);
  writer->Put(now_);
  writer->Put<uint64_t>(next_id_);
  tracker_.Serialize(writer);
  writer->Put<uint64_t>(frames_.size());
  for (const Frame& f : frames_) {
    writer->Put(f.birth);
    writer->Put(f.last);
    writer->Put(f.mass);
    writer->Put(f.mass_since_snapshot);
    writer->Put<uint8_t>(f.frozen ? 1 : 0);
    f.fd.Serialize(writer);
    writer->Put<uint64_t>(f.snapshots.size());
    for (const Snapshot& sn : f.snapshots) {
      writer->Put(sn.ts);
      writer->Put(sn.frame_mass);
      sn.rows.Serialize(writer);
    }
  }
}

Status DsFd::LoadState(ByteReader* reader) {
  const auto corrupt = [] {
    return Status::InvalidArgument("corrupt DsFd payload");
  };
  double now = 0.0;
  uint64_t next_id = 0, nframes = 0;
  FrobeniusTracker tracker = MakeTracker(options_);
  if (!reader->Get(&now) || !std::isfinite(now) || !reader->Get(&next_id) ||
      !tracker.Deserialize(reader) || !reader->Get(&nframes)) {
    return corrupt();
  }
  // Frames and snapshots are pushed as they parse: no wire count sizes a
  // buffer, so a corrupt count runs out of payload instead of memory.
  const FrequentDirections like = MakeFrameFd();
  std::vector<Frame> frames;
  for (uint64_t i = 0; i < nframes; ++i) {
    double birth = 0.0, last = 0.0, mass = 0.0, since = 0.0;
    uint8_t frozen = 0;
    if (!reader->Get(&birth) || !reader->Get(&last) || !reader->Get(&mass) ||
        !reader->Get(&since) || !reader->Get(&frozen) || last < birth) {
      return corrupt();
    }
    auto fd = FrequentDirections::Deserialize(reader);
    if (!fd.ok()) return fd.status();
    if (!fd->SameConfig(like)) return corrupt();
    Frame frame{.fd = std::move(fd.take()), .birth = birth, .last = last,
                .mass = mass, .mass_since_snapshot = since,
                .frozen = frozen != 0, .snapshots = {}};
    uint64_t nsnaps = 0;
    if (!reader->Get(&nsnaps)) return corrupt();
    for (uint64_t j = 0; j < nsnaps; ++j) {
      double ts = 0.0, fm = 0.0;
      if (!reader->Get(&ts) || !reader->Get(&fm)) return corrupt();
      auto rows = Matrix::Deserialize(reader);
      if (!rows.ok()) return rows.status();
      if (!rows->empty() && rows->cols() != dim_) return corrupt();
      frame.snapshots.push_back(Snapshot{ts, fm, std::move(rows.take())});
    }
    frames.push_back(std::move(frame));
  }
  now_ = now;
  next_id_ = next_id;
  tracker_ = std::move(tracker);
  frames_ = std::move(frames);
  // Ledger: loaded frames/snapshots enter the live gauges through the
  // *_loaded counters so conservation holds across checkpoint/restore.
  const size_t ns = num_snapshots();
  if (!frames_.empty()) {
    metrics_.frames_loaded->Add(frames_.size());
    metrics_.live_frames->Add(static_cast<int64_t>(frames_.size()));
  }
  if (ns != 0) {
    metrics_.snapshots_loaded->Add(ns);
    metrics_.live_snapshots->Add(static_cast<int64_t>(ns));
  }
  metrics_.reloads->Add();
  ++mutation_version_;
  return Status::OK();
}

}  // namespace swsketch

// Dyadic Interval framework (Section 7): converts an *arbitrary* streaming
// matrix sketch into a sequence-based sliding-window sketch, relying only
// on decomposability (Lemma 7.1): approximations of disjoint row ranges
// concatenate into an approximation of their union.
//
// Level 1 partitions the stream into blocks of squared-norm mass about
// N*R/2^L; a level-i block covers exactly 2^{i-1} level-1 blocks. Every
// level ingests each row into its active sketch; when the level-1 active
// block fills, all levels whose dyadic boundary aligns close their active
// block (Algorithm 7.1's trailing-zeros rule). A query covers the window
// with at most 2 closed blocks per level (greedy maximal-dyadic cover) plus
// the level-1 active sketch, skipping the straddling expiring level-1 block
// (the epsilon/2 expiry error of Theorem 7.1), and returns the stacked
// approximations.
//
// Per-level sketch sizes follow the experimental setup of Section 8: the
// top level runs the largest sketch (roughly half the query budget) and
// sizes halve per level downward, so higher levels (bigger blocks) get
// proportionally more accurate sketches — the ell_{1/(2^i L)} schedule of
// Theorem 7.1 in its practical form.
//
// Query serving: the closed-block structure changes only at structural
// events (level-1 close, expiry, deserialize), tracked by a version
// counter. The stacked approximation of the dyadic cover is cached (a
// VersionedCache) keyed on (version, j0) — under a fixed structure the
// cover is a pure function of the first in-window level-1 block — and the
// final result is additionally keyed on next_id_, which pins the level-1
// active sketch contents. A warm query is a single matrix copy; the cold
// cover assembly computes per-block approximations on the shared
// ThreadPool (reads only, stacked in deterministic cover order,
// byte-identical to serial).
//
// SketchT requirements: Append(span<const double>, uint64_t id),
// Approximation() -> Matrix, RowsStored(). Mergeability is NOT required.
#ifndef SWSKETCH_CORE_DYADIC_INTERVAL_H_
#define SWSKETCH_CORE_DYADIC_INTERVAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/sliding_window_sketch.h"
#include "linalg/vector_ops.h"
#include "sketch/frequent_directions.h"
#include "sketch/hash_sketch.h"
#include "sketch/random_projection.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/versioned_cache.h"

namespace swsketch {

/// Parameters shared by all DI instantiations.
struct DyadicIntervalOptions {
  /// Number of dyadic levels L ~ ceil(log2(R / epsilon)).
  size_t levels = 6;
  /// Sequence window size N (DI is sequence-based only).
  uint64_t window_size = 10000;
  /// Upper bound R on squared row norms (needed a priori, Table 1).
  double max_norm_sq = 1.0;
};

/// The Dyadic Interval method over an arbitrary streaming sketch type.
template <typename SketchT>
class DyadicInterval : public SlidingWindowSketch {
 public:
  /// Builds the sketch for a given level in [1, levels].
  using LevelSketchFactory = std::function<SketchT(size_t level)>;

  // Handles into the global registry under this sketch's name slug
  // ("di_fd.", "di_rp.", ...), resolved once at construction. DI never
  // merges, so the block ledger is
  //   blocks_closed + blocks_loaded
  //     == blocks_expired + blocks_discarded + live_blocks.
  //
  // Public for the same reason as LogarithmicMethod::MetricSet: mass
  // constructors (core/factory.h SketchPrototype) resolve the set once and
  // stamp it into every instance of one name.
  struct MetricSet {
    explicit MetricSet(const MetricScope& scope)
        : rows_ingested(scope.counter("rows_ingested")),
          l1_closes(scope.counter("l1_closes")),
          blocks_closed(scope.counter("blocks_closed")),
          blocks_expired(scope.counter("blocks_expired")),
          blocks_loaded(scope.counter("blocks_loaded")),
          blocks_discarded(scope.counter("blocks_discarded")),
          queries(scope.counter("queries")),
          query_cache_hits(scope.counter("query_cache_hits")),
          query_cache_misses(scope.counter("query_cache_misses")),
          cover_cache_hits(scope.counter("cover_cache_hits")),
          cover_cache_misses(scope.counter("cover_cache_misses")),
          reloads(scope.counter("reloads")),
          live_blocks(scope.gauge("live_blocks")) {}
    Counter* rows_ingested;
    Counter* l1_closes;
    Counter* blocks_closed;
    Counter* blocks_expired;
    Counter* blocks_loaded;
    Counter* blocks_discarded;
    Counter* queries;
    Counter* query_cache_hits;
    Counter* query_cache_misses;
    Counter* cover_cache_hits;
    Counter* cover_cache_misses;
    Counter* reloads;
    Gauge* live_blocks;
  };

  DyadicInterval(size_t dim, DyadicIntervalOptions options,
                 LevelSketchFactory factory, std::string name)
      : DyadicInterval(dim, options, std::move(factory), name,
                       MetricSet(MetricScope(MetricScope::Slug(name)))) {}

  /// Mass-construction overload: copies pre-resolved registry handles
  /// instead of looking each one up (see LogarithmicMethod's overload).
  DyadicInterval(size_t dim, DyadicIntervalOptions options,
                 LevelSketchFactory factory, std::string name,
                 const MetricSet& metrics)
      : dim_(dim),
        window_(WindowSpec::Sequence(options.window_size)),
        options_(options),
        factory_(std::move(factory)),
        name_(std::move(name)),
        metrics_(metrics) {
    SWSKETCH_CHECK_GE(options_.levels, 1u);
    SWSKETCH_CHECK_GT(options_.max_norm_sq, 0.0);
    const double total = static_cast<double>(options_.window_size) *
                         options_.max_norm_sq;
    level1_capacity_ = total / std::ldexp(1.0, static_cast<int>(options_.levels));
    SWSKETCH_CHECK_GT(level1_capacity_, 0.0);
    levels_.resize(options_.levels);
    for (size_t i = 0; i < options_.levels; ++i) {
      actives_.push_back(Active{factory_(i + 1), 0.0, 0.0, false});
    }
  }

  // Move-only, for the same block-ledger reason as LogarithmicMethod: the
  // destructor settles live_blocks for whatever this instance still holds,
  // and the defaulted move leaves the source's levels_ empty.
  DyadicInterval(DyadicInterval&&) = default;

  ~DyadicInterval() override {
    const size_t n = NumBlocks();
    if (n != 0) {
      metrics_.blocks_discarded->Add(n);
      metrics_.live_blocks->Add(-static_cast<int64_t>(n));
    }
  }

  void Update(std::span<const double> row, double ts) override {
    SWSKETCH_CHECK_EQ(row.size(), dim_);
    UpdateImpl(ts, IngestWeight(row), [&](SketchT& sketch, uint64_t id) {
      sketch.Append(row, id);
    });
  }

  /// O(nnz) per level instead of O(d): the row fans into L active
  /// sketches, so sparse streams (WIKI/RAIL at paper scale) gain the most
  /// here.
  void UpdateSparse(const SparseVector& row, double ts) override {
    SWSKETCH_CHECK_EQ(row.dim(), dim_);
    UpdateImpl(ts, IngestWeight(row.values()),
               [&](SketchT& sketch, uint64_t id) {
                 sketch.AppendSparse(row, id);
               });
  }

  /// Splits the block at level boundaries: contiguous runs of nonzero rows
  /// are forwarded to every level's active sketch as one AppendBatch; a run
  /// ends at a zero row (never appended), at a level-1 close (the aligned
  /// actives are replaced by fresh sketches, so the run must land first),
  /// or at the end of the block. All per-row bookkeeping — started flags,
  /// start/end timestamps, ids, mass and row counters, close triggers —
  /// replays the serial order exactly. Expiry runs once at the end of the
  /// block: DI never merges, the update path only pushes onto the closed
  /// deques, and expired blocks form a front prefix, so the deferral is
  /// state-identical. DI-FD stays bit-identical (FD runs replay per-row
  /// appends); DI-RP inherits RP's batch accumulation-order caveat.
  void UpdateBatch(const Matrix& rows, std::span<const double> ts) override {
    SWSKETCH_CHECK_EQ(rows.rows(), ts.size());
    if (rows.rows() == 0) return;
    ++mutation_version_;
    SWSKETCH_CHECK_EQ(rows.cols(), dim_);
    size_t rb = 0;                     // Pending (unforwarded) run start.
    uint64_t run_first_id = next_id_;  // Id of the run's first row.
    const auto flush = [&](size_t re) {
      if (rb < re) {
        for (auto& a : actives_) {
          AppendRunTo(a.sketch, rows, rb, re, run_first_id);
        }
      }
      rb = re;
      run_first_id = next_id_;
    };
    for (size_t i = 0; i < rows.rows(); ++i) {
      SWSKETCH_CHECK_GE(ts[i], now_);
      now_ = ts[i];
      const double w = IngestWeight(rows.Row(i));
      if (w <= 0.0) {
        flush(i);
        rb = i + 1;  // The zero row itself is never appended.
        continue;
      }
      for (auto& a : actives_) {
        if (!a.started) {
          a.start_ts = ts[i];
          a.started = true;
        }
        a.end_ts = ts[i];
      }
      ++next_id_;
      metrics_.rows_ingested->Add();
      level1_mass_ += w;
      ++level1_rows_;
      if (Level1Full()) {
        flush(i + 1);
        CloseLevel1();
      }
    }
    flush(rows.rows());
    Expire(now_);
  }

 private:
  template <typename AppendFn>
  void UpdateImpl(double ts, double w, AppendFn&& append) {
    SWSKETCH_CHECK_GE(ts, now_);
    ++mutation_version_;
    now_ = ts;
    Expire(ts);

    if (w <= 0.0) return;

    for (auto& a : actives_) {
      if (!a.started) {
        a.start_ts = ts;
        a.started = true;
      }
      append(a.sketch, next_id_);
      a.end_ts = ts;
    }
    ++next_id_;
    metrics_.rows_ingested->Add();
    level1_mass_ += w;
    ++level1_rows_;
    if (Level1Full()) CloseLevel1();
  }

  // The level-1 block closes on mass overflow (Algorithm 7.1 line 7) or,
  // as a safety valve when max_norm_sq grossly over-estimates the actual
  // norms, on row-count overflow — otherwise a single level-1 block could
  // span more than a window and the active sketch would cover expired
  // rows. With correctly-sized R the mass rule always fires first.
  bool Level1Full() const {
    const uint64_t row_cap = std::max<uint64_t>(1, options_.window_size / 8);
    return level1_mass_ > level1_capacity_ || level1_rows_ >= row_cap;
  }

  void CloseLevel1() {
    level1_mass_ = 0.0;
    level1_rows_ = 0;
    ++closed_l1_;
    ++structure_version_;
    metrics_.l1_closes->Add();
    // Algorithm 7.1 lines 7-11: close the active block at every level
    // whose dyadic boundary aligns with the new level-1 count.
    for (size_t li = 0; li < options_.levels; ++li) {
      const uint64_t span = 1ULL << li;  // Level li+1 covers 2^li blocks.
      if (closed_l1_ % span != 0) break;
      levels_[li].push_back(Block(std::move(actives_[li].sketch),
                                  closed_l1_ - span, closed_l1_,
                                  actives_[li].start_ts,
                                  actives_[li].end_ts));
      actives_[li] = Active{factory_(li + 1), 0.0, 0.0, false};
      metrics_.blocks_closed->Add();
      metrics_.live_blocks->Add(1);
    }
  }

 public:
  void AdvanceTo(double now) override {
    SWSKETCH_CHECK_GE(now, now_);
    ++mutation_version_;
    now_ = now;
    Expire(now);
  }

  Matrix Query() override {
    metrics_.queries->Add();
    Expire(now_);
    const double start = window_.Start(now_);

    // First level-1 block fully inside the window.
    uint64_t j0 = closed_l1_;
    for (const Block& blk : levels_[0]) {
      if (blk.start_ts >= start) {
        j0 = blk.l1_begin;
        break;
      }
    }

    // Final-result cache: same structure, same cover anchor, same active
    // rows (next_id_ pins the level-1 active sketch) — return the copy.
    return result_cache_.GetOrCompute(
        {structure_version_, j0, next_id_}, metrics_.query_cache_hits,
        metrics_.query_cache_misses, [&] {
          // Cover cache: under a fixed version the greedy cover is a pure
          // function of j0 (closed_l1_ only changes with the version).
          const Matrix& cover = cover_cache_.GetOrCompute(
              {structure_version_, j0}, metrics_.cover_cache_hits,
              metrics_.cover_cache_misses, [&] { return AssembleCover(j0); });
          // The level-1 active sketch covers the most recent rows.
          if (!actives_[0].started) return cover;
          return cover.VStack(actives_[0].sketch.Approximation());
        });
  }

  /// Drops the cached cover and cached result so the next Query() takes
  /// the cold path (bench/test hook; behaviour is unchanged).
  void InvalidateQueryCache() {
    cover_cache_.Invalidate();
    result_cache_.Invalidate();
  }

  /// Structure version: bumped on every level-1 close (which closes all
  /// aligned levels), on block expiry, and on reload (test hook).
  uint64_t structure_version() const { return structure_version_; }

  /// Unlike structure_version(), this also moves on active-sketch appends
  /// and window advances (both feed Query directly), so wrappers can key
  /// result caches on it.
  uint64_t StateVersion() const override { return mutation_version_; }

  size_t RowsStored() const override {
    size_t n = 0;
    for (const auto& level : levels_) {
      for (const Block& blk : level) n += blk.sketch.RowsStored();
    }
    for (const auto& a : actives_) n += a.sketch.RowsStored();
    return n;
  }

  size_t dim() const override { return dim_; }
  std::string name() const override { return name_; }
  const WindowSpec& window() const override { return window_; }

  size_t NumLevels() const { return options_.levels; }

  /// Total closed blocks currently retained.
  size_t NumBlocks() const {
    size_t n = 0;
    for (const auto& level : levels_) n += level.size();
    return n;
  }

  /// Serializes framework state (counters, actives, closed blocks) after
  /// the concrete subclass's wire header (core/factory.h reads it back).
  void SerializeCore(ByteWriter* writer) const {
    writer->Put(level1_capacity_);
    writer->Put(level1_mass_);
    writer->Put<uint64_t>(level1_rows_);
    writer->Put<uint64_t>(closed_l1_);
    writer->Put<uint64_t>(next_id_);
    writer->Put(now_);
    writer->Put<uint64_t>(actives_.size());
    for (const Active& a : actives_) {
      writer->Put(a.start_ts);
      writer->Put(a.end_ts);
      writer->Put<uint8_t>(a.started ? 1 : 0);
      a.sketch.Serialize(writer);
    }
    writer->Put<uint64_t>(levels_.size());
    for (const auto& level : levels_) {
      writer->Put<uint64_t>(level.size());
      for (const Block& blk : level) {
        writer->Put<uint64_t>(blk.l1_begin);
        writer->Put<uint64_t>(blk.l1_end);
        writer->Put(blk.start_ts);
        writer->Put(blk.end_ts);
        blk.sketch.Serialize(writer);
      }
    }
  }

  /// Loads what SerializeCore wrote into this freshly constructed sketch.
  /// The level-1 capacity must be the one the config yields, every level
  /// sketch must have the config of the fresh active it replaces (so rows
  /// append to it), each level must hold aligned, contiguous dyadic blocks
  /// and level 1 must end at the closed-block count (so the query cover
  /// finds its blocks). Nothing is committed until the payload has parsed.
  Status LoadState(ByteReader* reader) override {
    const auto corrupt = [] {
      return Status::InvalidArgument("corrupt DI payload");
    };
    double capacity = 0.0, level1_mass = 0.0, now = 0.0;
    uint64_t level1_rows = 0, closed_l1 = 0, next_id = 0, count = 0;
    if (!reader->Get(&capacity) || capacity != level1_capacity_ ||
        !reader->Get(&level1_mass) || !reader->Get(&level1_rows) ||
        !reader->Get(&closed_l1) || !reader->Get(&next_id) ||
        !reader->Get(&now) || !std::isfinite(now) || !reader->Get(&count) ||
        count != actives_.size()) {
      return corrupt();
    }
    std::vector<Active> actives;
    for (const Active& fresh : actives_) {
      double st = 0.0, et = 0.0;
      uint8_t started = 0;
      if (!reader->Get(&st) || !reader->Get(&et) || !reader->Get(&started)) {
        return corrupt();
      }
      auto sketch = SketchT::Deserialize(reader);
      if (!sketch.ok()) return sketch.status();
      if (!sketch->SameConfig(fresh.sketch)) return corrupt();
      actives.push_back(Active{sketch.take(), st, et, started != 0});
    }
    if (!reader->Get(&count) || count != levels_.size()) return corrupt();
    std::vector<std::deque<Block>> levels(levels_.size());
    for (size_t li = 0; li < levels.size(); ++li) {
      const uint64_t span = 1ULL << li;
      uint64_t blocks = 0;
      if (!reader->Get(&blocks)) return corrupt();
      for (uint64_t i = 0; i < blocks; ++i) {
        uint64_t begin = 0, end = 0;
        double st = 0.0, et = 0.0;
        if (!reader->Get(&begin) || !reader->Get(&end) ||
            !reader->Get(&st) || !reader->Get(&et) || begin % span != 0 ||
            end - begin != span ||
            (i != 0 && begin != levels[li].back().l1_end)) {
          return corrupt();
        }
        auto sketch = SketchT::Deserialize(reader);
        if (!sketch.ok()) return sketch.status();
        if (!sketch->SameConfig(actives_[li].sketch)) return corrupt();
        levels[li].push_back(Block(sketch.take(), begin, end, st, et));
      }
    }
    if (!levels[0].empty() && levels[0].back().l1_end != closed_l1) {
      return corrupt();
    }
    level1_mass_ = level1_mass;
    level1_rows_ = level1_rows;
    closed_l1_ = closed_l1;
    next_id_ = next_id;
    now_ = now;
    actives_ = std::move(actives);
    levels_ = std::move(levels);
    // Cache state is never serialized: a reloaded sketch starts cold with
    // a fresh structure version.
    ++structure_version_;
    ++mutation_version_;
    InvalidateQueryCache();
    metrics_.reloads->Add();
    const size_t loaded = NumBlocks();
    if (loaded != 0) {
      metrics_.blocks_loaded->Add(loaded);
      metrics_.live_blocks->Add(loaded);
    }
    return Status::OK();
  }

  /// Test hook: structural invariants — dyadic alignment and time order.
  void CheckInvariants() const {
    for (size_t li = 0; li < levels_.size(); ++li) {
      const uint64_t span = 1ULL << li;
      uint64_t prev_end = 0;
      bool first = true;
      for (const Block& blk : levels_[li]) {
        SWSKETCH_CHECK_EQ(blk.l1_end - blk.l1_begin, span);
        SWSKETCH_CHECK_EQ(blk.l1_begin % span, 0u);
        if (!first) SWSKETCH_CHECK_EQ(blk.l1_begin, prev_end);
        prev_end = blk.l1_end;
        first = false;
      }
    }
  }

 private:
  struct Active {
    SketchT sketch;
    double start_ts = 0.0;
    double end_ts = 0.0;
    bool started = false;
  };

  struct Block {
    SketchT sketch;
    uint64_t l1_begin;  // Covered level-1 block range [begin, end).
    uint64_t l1_end;
    double start_ts;
    double end_ts;

    Block(SketchT s, uint64_t begin, uint64_t end, double st, double et)
        : sketch(std::move(s)),
          l1_begin(begin),
          l1_end(end),
          start_ts(st),
          end_ts(et) {}
  };

  // Forwards rows[rb:re) to one active sketch. FD replays per-row appends
  // so the shrink schedule — and hence DI-FD's state — is bit-identical to
  // the serial path regardless of the block/buffer shape; every other
  // backend takes its block fast path.
  static void AppendRunTo(SketchT& sketch, const Matrix& rows, size_t rb,
                          size_t re, uint64_t first_id) {
    if constexpr (std::is_same_v<SketchT, FrequentDirections>) {
      for (size_t i = rb; i < re; ++i) {
        sketch.Append(rows.Row(i), first_id + (i - rb));
      }
    } else {
      sketch.AppendBatch(rows, rb, re, first_id);
    }
  }

  const Block* FindBlock(size_t li, uint64_t l1_begin) const {
    for (const Block& blk : levels_[li]) {
      if (blk.l1_begin == l1_begin) return &blk;
    }
    return nullptr;
  }

  // Greedy maximal-dyadic cover of [j0, closed_l1_): at position p, take
  // the largest aligned block that fits — at most 2 per level overall.
  // Per-block approximations are computed on the thread pool (const reads
  // of disjoint sketches) and stacked in cover order, so the bytes match
  // the serial VStack chain exactly.
  Matrix AssembleCover(uint64_t j0) {
    cover_scratch_.clear();
    uint64_t p = j0;
    while (p < closed_l1_) {
      // A block the live structure always holds can be missing after a
      // reload whose timestamps expired it early: the cover then takes the
      // next level down, and level 1 ends the search (LoadState makes it
      // contiguous up to closed_l1_).
      const Block* blk = nullptr;
      uint64_t span = 1;
      for (size_t li = options_.levels; blk == nullptr && li-- > 0;) {
        span = 1ULL << li;
        if (p % span == 0 && p + span <= closed_l1_) blk = FindBlock(li, p);
      }
      if (blk != nullptr) cover_scratch_.push_back(blk);
      p += span;
    }
    std::vector<Matrix> parts(cover_scratch_.size());
    ParallelFor(
        cover_scratch_.size(),
        [&](size_t i) { parts[i] = cover_scratch_[i]->sketch.Approximation(); },
        {.grain = 1});
    size_t total = 0;
    for (const Matrix& m : parts) total += m.rows();
    Matrix b(0, dim_);
    b.ReserveRows(total);
    for (const Matrix& m : parts) {
      for (size_t r = 0; r < m.rows(); ++r) b.AppendRow(m.Row(r));
    }
    return b;
  }

  void Expire(double now) {
    const double start = window_.Start(now);
    for (auto& level : levels_) {
      while (!level.empty() && level.front().end_ts < start) {
        level.pop_front();
        ++structure_version_;
        metrics_.blocks_expired->Add();
        metrics_.live_blocks->Add(-1);
      }
    }
  }

  size_t dim_;
  WindowSpec window_;
  DyadicIntervalOptions options_;
  LevelSketchFactory factory_;
  std::string name_;
  MetricSet metrics_;  // Initialized after name_ (declaration order).

  double level1_capacity_ = 0.0;
  double level1_mass_ = 0.0;
  uint64_t level1_rows_ = 0;
  uint64_t closed_l1_ = 0;
  uint64_t next_id_ = 0;
  double now_ = 0.0;

  std::vector<Active> actives_;              // One active block per level.
  std::vector<std::deque<Block>> levels_;    // Closed blocks, oldest first.

  // Query-cache state (never serialized; see DESIGN.md "Query path").
  uint64_t structure_version_ = 0;
  uint64_t mutation_version_ = 0;  // Every Update/AdvanceTo/reload.
  std::vector<const Block*> cover_scratch_;  // Rebuilt on cover assembly.
  // Stacked cover approximation, keyed (structure version, j0).
  VersionedCache<std::tuple<uint64_t, uint64_t>, Matrix> cover_cache_;
  // Final result, keyed additionally on next_id_.
  VersionedCache<std::tuple<uint64_t, uint64_t, uint64_t>, Matrix>
      result_cache_;
};

/// DI-FD (Section 7.3): Frequent Directions per block, sizes halving from
/// `ell_top` at the highest level downward.
class DiFd : public DyadicInterval<FrequentDirections> {
 public:
  struct Options {
    size_t levels = 6;
    uint64_t window_size = 10000;
    double max_norm_sq = 1.0;
    /// FD rows at the top level; level i gets max(ell_min, ell_top >>
    /// (L - i)). Query output has roughly 2 * ell_top rows.
    size_t ell_top = 32;
    size_t ell_min = 2;
    /// Amortized-shrink buffer factor of every per-block FD sketch
    /// (FrequentDirections::Options::buffer_factor). Must be >= 1.
    double fd_buffer_factor = 1.0;
  };

  DiFd(size_t dim, Options options);

  /// Cheap-construction path (core/factory.h SketchPrototype): shares
  /// pre-resolved metric handles instead of resolving its own.
  DiFd(size_t dim, Options options, const MetricSet& metrics);

  /// Checkpoint/resume of the full sliding-window state: Serialize writes
  /// the wire header core/factory.h reads back, then SerializeCore.
  static constexpr uint32_t kSerialTag = 0x44494601;
  void Serialize(ByteWriter* writer) const;
  Status SerializeTo(ByteWriter* writer) const override {
    Serialize(writer);
    return Status::OK();
  }

 private:
  Options di_options_;
};

/// DI-RP (Appendix A): random projection per block.
class DiRp : public DyadicInterval<RandomProjection> {
 public:
  struct Options {
    size_t levels = 6;
    uint64_t window_size = 10000;
    double max_norm_sq = 1.0;
    size_t ell_top = 64;
    size_t ell_min = 8;
    uint64_t seed = 1;
  };

  DiRp(size_t dim, Options options);
};

/// DI-HASH (Appendix A): feature hashing per block.
class DiHash : public DyadicInterval<HashSketch> {
 public:
  struct Options {
    size_t levels = 6;
    uint64_t window_size = 10000;
    double max_norm_sq = 1.0;
    size_t ell_top = 64;
    size_t ell_min = 8;
    uint64_t seed = 1;
  };

  DiHash(size_t dim, Options options);
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_DYADIC_INTERVAL_H_

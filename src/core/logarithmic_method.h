// Logarithmic Method (Section 6): converts a *mergeable* streaming matrix
// sketch into a sliding-window sketch for both sequence- and time-based
// windows (Algorithms 6.1 / 6.2).
//
// The window is covered by blocks grouped into levels of exponentially
// increasing squared-norm mass: a block at level i holds mass in
// [2^{i-1} C, 2^i C] for block capacity C, each level holds at most b
// blocks, and when a level overflows its two oldest blocks merge one level
// up (sketch merge = the mergeability operation). The active block stores
// raw rows — the paper's fast-update modification (Corollary 6.1) — and
// closes into a level-1 block when its mass exceeds C.
//
// Oversized rows (mass > C) make their block "unmergeable" until it reaches
// a level whose capacity covers it (the Section 6.2 remark); we implement
// the equivalent general rule: a block may merge at level i only if its
// mass fits 2^i C, otherwise it is promoted unmerged.
//
// Query merges the sketches of every block fully inside the window plus
// the raw rows of the active block; the straddling (expiring) block is
// excluded, contributing the epsilon/2 expiry error of Theorem 6.1.
//
// Query serving: the block structure changes only at structural events
// (block close, level merge, expiry, reload), tracked by a version
// counter. The merged sketch of the in-window closed blocks is cached (a
// VersionedCache) and keyed on (version, live-block count) — under a
// fixed structure the live set only shrinks as the window slides, so the
// count pins the set — and the final approximation is additionally keyed
// on the active-block row identity. A warm query is therefore an O(ell d)
// copy instead of an O(#blocks) merge chain, bit-identical to the cold
// path. A sketch type with an n-way SketchT::MergeAll (FD) takes its cold
// merge from it: FD then folds every live block with one d x d shrink
// where that costs less than the pairwise tree, and runs the tree itself
// otherwise. The other types (HASH, RP: merging is addition) run the
// deterministic pairwise reduction tree PairwiseMergeTree, whose pairing
// depends only on the leaf count, so executing tree levels on the shared
// ThreadPool is byte-identical to the serial schedule.
//
// SketchT requirements: constructible via the factory callable,
// Append(span<const double>, uint64_t id), MergeWith(const SketchT&),
// Approximation() -> Matrix, RowsStored(); optionally
// static MergeAll(span<const SketchT* const>).
#ifndef SWSKETCH_CORE_LOGARITHMIC_METHOD_H_
#define SWSKETCH_CORE_LOGARITHMIC_METHOD_H_

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sliding_window_sketch.h"
#include "sketch/frequent_directions.h"
#include "sketch/hash_sketch.h"
#include "sketch/random_projection.h"
#include "stream/row.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/versioned_cache.h"

namespace swsketch {

/// Parameters shared by all LM instantiations.
struct LogarithmicMethodOptions {
  /// Block capacity C in squared-norm mass: the active block closes when
  /// its mass exceeds this. The paper sets C = ell (the sketch size).
  double block_capacity = 32.0;
  /// Blocks per level (b = Theta(1/epsilon)); levels overflow at b + 1.
  size_t blocks_per_level = 8;
};

/// The Logarithmic Method over a mergeable streaming sketch type.
template <typename SketchT>
class LogarithmicMethod : public SlidingWindowSketch {
 public:
  using SketchFactory = std::function<SketchT()>;

  // Handles into the global registry under this sketch's name slug
  // ("lm_fd.", "lm_hash.", ...). Resolved once at construction; instances
  // with the same name share the same counters. The block-count ledger is
  //   blocks_closed + blocks_loaded
  //     == level_merges + blocks_expired + blocks_discarded + live_blocks
  // (a merge turns two blocks into one, a discard is destruction or
  // overwrite-by-load), which degenerates to the textbook
  // closed - expired == live when nothing merges or reloads.
  //
  // Public so mass constructors (core/factory.h SketchPrototype) can
  // resolve the set once and hand it to every instance of one name: each
  // lookup is a mutex-guarded map probe, and at 100k tenants those probes
  // dominate the cost of constructing an empty sketch.
  struct MetricSet {
    explicit MetricSet(const MetricScope& scope)
        : rows_ingested(scope.counter("rows_ingested")),
          blocks_closed(scope.counter("blocks_closed")),
          level_merges(scope.counter("level_merges")),
          block_promotions(scope.counter("block_promotions")),
          blocks_expired(scope.counter("blocks_expired")),
          blocks_loaded(scope.counter("blocks_loaded")),
          blocks_discarded(scope.counter("blocks_discarded")),
          active_rows_expired(scope.counter("active_rows_expired")),
          queries(scope.counter("queries")),
          query_cache_hits(scope.counter("query_cache_hits")),
          query_cache_misses(scope.counter("query_cache_misses")),
          merge_cache_hits(scope.counter("merge_cache_hits")),
          merge_cache_misses(scope.counter("merge_cache_misses")),
          cold_merges(scope.counter("cold_merges")),
          reloads(scope.counter("reloads")),
          live_blocks(scope.gauge("live_blocks")) {}
    Counter* rows_ingested;
    Counter* blocks_closed;
    Counter* level_merges;
    Counter* block_promotions;
    Counter* blocks_expired;
    Counter* blocks_loaded;
    Counter* blocks_discarded;
    Counter* active_rows_expired;
    Counter* queries;
    Counter* query_cache_hits;
    Counter* query_cache_misses;
    Counter* merge_cache_hits;
    Counter* merge_cache_misses;
    Counter* cold_merges;
    Counter* reloads;
    Gauge* live_blocks;
  };

  LogarithmicMethod(size_t dim, WindowSpec window,
                    LogarithmicMethodOptions options, SketchFactory factory,
                    std::string name)
      : LogarithmicMethod(dim, window, options, std::move(factory), name,
                          MetricSet(MetricScope(MetricScope::Slug(name)))) {}

  /// Mass-construction overload: behaves exactly like the primary
  /// constructor but copies pre-resolved registry handles instead of
  /// looking each one up. Instances of one name share handles anyway, so
  /// resolving the MetricSet once per prototype and stamping it into every
  /// tenant removes the registry mutex from per-tenant construction.
  LogarithmicMethod(size_t dim, WindowSpec window,
                    LogarithmicMethodOptions options, SketchFactory factory,
                    std::string name, const MetricSet& metrics)
      : dim_(dim),
        window_(window),
        options_(options),
        factory_(std::move(factory)),
        name_(std::move(name)),
        metrics_(metrics) {
    SWSKETCH_CHECK_GT(options_.block_capacity, 0.0);
    SWSKETCH_CHECK_GE(options_.blocks_per_level, 2u);
  }

  // Move-only: the destructor settles the live_blocks gauge for whatever
  // this instance still holds, and the defaulted move leaves the source's
  // levels_ empty (vector move-construction guarantee) so each closed
  // block is settled exactly once. Copies would double-settle; they are
  // implicitly deleted by the declared move constructor.
  LogarithmicMethod(LogarithmicMethod&&) = default;

  ~LogarithmicMethod() override {
    const size_t n = NumBlocks();
    if (n != 0) {
      metrics_.blocks_discarded->Add(n);
      metrics_.live_blocks->Add(-static_cast<int64_t>(n));
    }
  }

  void Update(std::span<const double> row, double ts) override {
    SWSKETCH_CHECK_EQ(row.size(), dim_);
    SWSKETCH_CHECK_GE(ts, now_);
    ++mutation_version_;
    now_ = ts;
    Expire(ts);

    const double w = IngestWeight(row);
    if (w <= 0.0) return;
    metrics_.rows_ingested->Add();

    // Algorithm 6.1 lines 4-6: insert into the active block.
    if (active_.rows.empty()) active_.start = ts;
    active_.rows.push_back(RawRow{
        MakeSharedRow(std::vector<double>(row.begin(), row.end()), ts),
        next_id_++});
    active_.end = ts;
    active_.mass += w;

    // Lines 7-8: close the active block when full.
    if (active_.mass > options_.block_capacity) {
      CloseActiveBlock();
      Cascade();
    }
  }

  /// Replays the serial per-row schedule with the virtual dispatch hoisted
  /// out of the loop (bit-identical). LM cannot defer more than that: the
  /// active block's mass is a running float sum (adds on arrival, subtracts
  /// on expiry) and block-close triggers compare it against the capacity,
  /// so any reordering of the per-row add/expire interleaving could move a
  /// close boundary and change the whole level structure downstream.
  void UpdateBatch(const Matrix& rows, std::span<const double> ts) override {
    SWSKETCH_CHECK_EQ(rows.rows(), ts.size());
    for (size_t i = 0; i < rows.rows(); ++i) {
      LogarithmicMethod::Update(rows.Row(i), ts[i]);
    }
  }

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
    // Live closed blocks in merge order (highest level first, oldest block
    // first within a level). The straddling block (start < window start
    // <= end) is excluded (Algorithm 6.2).
    live_scratch_.clear();
    for (auto level = levels_.rbegin(); level != levels_.rend(); ++level) {
      for (const Block& blk : *level) {
        if (blk.start >= start) live_scratch_.push_back(&blk.sketch);
      }
    }
    // Empty window: report an empty approximation rather than a
    // fixed-shape zero sketch (hashing blocks have static shape). Counted
    // as a cache miss so hits + misses == queries stays exact.
    if (live_scratch_.empty() && active_.rows.empty()) {
      metrics_.query_cache_misses->Add();
      return Matrix(0, dim_);
    }

    // Final-result cache: nothing changed since the last query (same
    // structure, same live set, same active rows) — return the copy.
    return result_cache_.GetOrCompute(
        {structure_version_, live_scratch_.size(), next_id_,
         active_.rows.size()},
        metrics_.query_cache_hits, metrics_.query_cache_misses, [&] {
          // Merged-blocks cache: under a fixed structure version the live
          // set only shrinks as the window slides, so (version, count)
          // pins it.
          SketchT acc = merge_cache_.GetOrCompute(
              {structure_version_, live_scratch_.size()},
              metrics_.merge_cache_hits, metrics_.merge_cache_misses,
              [&] { return MergeLiveBlocks(); });
          // Replay the active rows onto a copy of the merged closed blocks
          // — exactly the computation the cold path performs after its
          // merge, so the result is byte-identical to an uncached query.
          for (const RawRow& rr : active_.rows) {
            acc.Append(rr.row->view(), rr.id);
          }
          return acc.Approximation();
        });
  }

  /// Drops the cached merged blocks and cached result so the next Query()
  /// takes the cold path (bench/test hook; behaviour is unchanged).
  void InvalidateQueryCache() {
    merge_cache_.Invalidate();
    result_cache_.Invalidate();
  }

  /// Structure version: bumped whenever a block closes, merges up a level,
  /// expires, or the state is reloaded. Queries between equal versions hit
  /// the merge cache (test hook).
  uint64_t structure_version() const { return structure_version_; }

  /// Unlike structure_version(), this also moves on active-block appends
  /// and window advances (both feed Query directly), so wrappers can key
  /// result caches on it.
  uint64_t StateVersion() const override { return mutation_version_; }

  size_t RowsStored() const override {
    size_t n = active_.rows.size();
    for (const auto& level : levels_) {
      for (const Block& blk : level) n += blk.sketch.RowsStored();
    }
    return n;
  }

  size_t dim() const override { return dim_; }
  std::string name() const override { return name_; }
  const WindowSpec& window() const override { return window_; }

  /// Number of levels currently in the structure (L in the paper).
  size_t NumLevels() const { return levels_.size(); }

  /// Total number of closed blocks.
  size_t NumBlocks() const {
    size_t n = 0;
    for (const auto& level : levels_) n += level.size();
    return n;
  }

  /// Serializes the framework state (blocks, active rows, counters) after
  /// the concrete subclass's wire header (core/factory.h reads it back).
  void SerializeCore(ByteWriter* writer) const {
    writer->Put(now_);
    writer->Put<uint64_t>(next_id_);
    writer->Put(active_.start);
    writer->Put(active_.end);
    writer->Put(active_.mass);
    writer->Put<uint64_t>(active_.rows.size());
    for (const RawRow& rr : active_.rows) {
      writer->Put(rr.row->ts);
      writer->Put<uint64_t>(rr.id);
      writer->PutVector(rr.row->values);
    }
    writer->Put<uint64_t>(levels_.size());
    for (const auto& level : levels_) {
      writer->Put<uint64_t>(level.size());
      for (const Block& blk : level) {
        writer->Put(blk.start);
        writer->Put(blk.end);
        writer->Put(blk.mass);
        blk.sketch.Serialize(writer);
      }
    }
  }

  /// Loads what SerializeCore wrote into this freshly constructed sketch.
  /// Levels and blocks are pushed as they parse (no wire count sizes a
  /// buffer), every block must have the config the block factory builds
  /// (so merges and appends meet their preconditions), and nothing is
  /// committed until the whole payload has parsed.
  Status LoadState(ByteReader* reader) override {
    const auto corrupt = [] {
      return Status::InvalidArgument("corrupt LM payload");
    };
    ActiveBlock active;
    double now = 0.0;
    uint64_t next_id = 0, raw_rows = 0, num_levels = 0;
    if (!reader->Get(&now) || !std::isfinite(now) || !reader->Get(&next_id) ||
        !reader->Get(&active.start) || !reader->Get(&active.end) ||
        !reader->Get(&active.mass) || !reader->Get(&raw_rows)) {
      return corrupt();
    }
    for (uint64_t i = 0; i < raw_rows; ++i) {
      double ts = 0.0;
      uint64_t id = 0;
      std::vector<double> values;
      if (!reader->Get(&ts) || !reader->Get(&id) ||
          !reader->GetVector(&values) || values.size() != dim_) {
        return corrupt();
      }
      active.rows.push_back(RawRow{MakeSharedRow(std::move(values), ts), id});
    }
    if (!reader->Get(&num_levels)) return corrupt();
    std::vector<std::deque<Block>> levels;
    const SketchT like = factory_();
    for (uint64_t li = 0; li < num_levels; ++li) {
      uint64_t blocks = 0;
      if (!reader->Get(&blocks)) return corrupt();
      auto& level = levels.emplace_back();
      for (uint64_t i = 0; i < blocks; ++i) {
        double start = 0.0, end = 0.0, mass = 0.0;
        if (!reader->Get(&start) || !reader->Get(&end) ||
            !reader->Get(&mass)) {
          return corrupt();
        }
        auto sketch = SketchT::Deserialize(reader);
        if (!sketch.ok()) return sketch.status();
        if (!sketch->SameConfig(like)) return corrupt();
        level.push_back(Block{sketch.take(), start, end, mass});
      }
    }
    now_ = now;
    next_id_ = next_id;
    active_ = std::move(active);
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

  /// Validates the structural invariants (test hook): per-level block
  /// counts, time ordering, and mass lower bounds.
  void CheckInvariants() const {
    double prev_end = -1e300;
    for (size_t li = levels_.size(); li-- > 0;) {
      const auto& level = levels_[li];
      SWSKETCH_CHECK_LE(level.size(), options_.blocks_per_level);
      for (const Block& blk : level) {
        SWSKETCH_CHECK_GE(blk.start, prev_end);
        prev_end = blk.end;
        SWSKETCH_CHECK_GT(blk.mass, 0.0);
      }
    }
    for (const RawRow& rr : active_.rows) {
      SWSKETCH_CHECK_GE(rr.row->ts, prev_end);
      prev_end = rr.row->ts;
    }
  }

 private:
  struct RawRow {
    SharedRow row;
    uint64_t id;
  };

  struct ActiveBlock {
    std::deque<RawRow> rows;  // Raw rows can expire from the front.
    double start = 0.0;
    double end = 0.0;
    double mass = 0.0;
  };

  struct Block {
    SketchT sketch;
    double start;
    double end;
    double mass;
  };

  // Capacity of level index `li` (level li+1 in paper numbering): 2^li * C.
  double LevelCapacity(size_t li) const {
    return std::ldexp(options_.block_capacity, static_cast<int>(li));
  }

  void CloseActiveBlock() {
    Block blk{factory_(), active_.start, active_.end, active_.mass};
    for (const RawRow& rr : active_.rows) {
      blk.sketch.Append(rr.row->view(), rr.id);
    }
    if (levels_.empty()) levels_.emplace_back();
    levels_[0].push_back(std::move(blk));
    active_ = ActiveBlock{};
    ++structure_version_;
    metrics_.blocks_closed->Add();
    metrics_.live_blocks->Add(1);
  }

  // Algorithm 6.1 lines 9-13 with the generalized mergeability rule.
  void Cascade() {
    for (size_t li = 0; li < levels_.size(); ++li) {
      while (levels_[li].size() > options_.blocks_per_level) {
        Block oldest = std::move(levels_[li].front());
        levels_[li].pop_front();
        if (li + 1 >= levels_.size()) levels_.emplace_back();
        auto& up = levels_[li + 1];
        const double cap = LevelCapacity(li);
        Block& second = levels_[li].front();
        if (oldest.mass <= cap && second.mass <= cap) {
          // Merge the two oldest blocks one level up.
          oldest.sketch.MergeWith(second.sketch);
          oldest.end = second.end;
          oldest.mass += second.mass;
          levels_[li].pop_front();
          metrics_.level_merges->Add();
          metrics_.live_blocks->Add(-1);
        } else {
          // Promote `oldest` unmerged (oversized-row rule).
          metrics_.block_promotions->Add();
        }
        up.push_back(std::move(oldest));
        ++structure_version_;
      }
    }
  }

  // Merge of the live blocks collected in live_scratch_: the sketch
  // type's n-way MergeAll when it has one, else the deterministic pairwise
  // tree (bytes identical to the serial schedule on any pool size).
  SketchT MergeLiveBlocks() {
    metrics_.cold_merges->Add();
    const std::span<const SketchT* const> parts(live_scratch_);
    if (parts.empty()) return factory_();
    if constexpr (requires { SketchT::MergeAll(parts); }) {
      return SketchT::MergeAll(parts);
    } else {
      return PairwiseMergeTree(parts);
    }
  }

  void Expire(double now) {
    const double start = window_.Start(now);
    // Fully expired blocks sit at the old end: the front of the highest
    // levels. Walk from the top level down.
    while (!levels_.empty()) {
      auto& top = levels_.back();
      while (!top.empty() && top.front().end < start) {
        top.pop_front();
        ++structure_version_;
        metrics_.blocks_expired->Add();
        metrics_.live_blocks->Add(-1);
      }
      if (top.empty()) {
        levels_.pop_back();
        continue;
      }
      break;
    }
    // Lower levels can only contain newer blocks, but guard against the
    // rare case where promotion left an expired block below the top.
    for (auto& level : levels_) {
      while (!level.empty() && level.front().end < start) {
        level.pop_front();
        ++structure_version_;
        metrics_.blocks_expired->Add();
        metrics_.live_blocks->Add(-1);
      }
    }
    // Raw rows of the active block expire individually (a time window can
    // outlive a slow-filling active block).
    while (!active_.rows.empty() && active_.rows.front().row->ts < start) {
      active_.mass -= active_.rows.front().row->NormSq();
      active_.rows.pop_front();
      metrics_.active_rows_expired->Add();
    }
    if (active_.rows.empty()) {
      active_.mass = 0.0;
    } else {
      active_.start = active_.rows.front().row->ts;
    }
  }

  size_t dim_;
  WindowSpec window_;
  LogarithmicMethodOptions options_;
  SketchFactory factory_;
  std::string name_;
  MetricSet metrics_;  // Initialized after name_ (declaration order).

  // levels_[0] = level 1 (newest blocks); back = level L (oldest).
  // Within a level: front = oldest block.
  std::vector<std::deque<Block>> levels_;
  ActiveBlock active_;
  uint64_t next_id_ = 0;
  double now_ = 0.0;

  // Query-cache state (never serialized; see DESIGN.md "Query path").
  uint64_t structure_version_ = 0;
  uint64_t mutation_version_ = 0;  // Every Update/AdvanceTo/reload.
  std::vector<const SketchT*> live_scratch_;  // Rebuilt by every Query().
  // Merged live closed blocks, keyed (structure version, live count).
  VersionedCache<std::tuple<uint64_t, size_t>, SketchT> merge_cache_;
  // Final approximation, keyed additionally on the active-block rows.
  VersionedCache<std::tuple<uint64_t, size_t, uint64_t, size_t>, Matrix>
      result_cache_;
};

/// LM-FD: the paper's recommended general-purpose sliding-window sketch
/// (Corollary 6.1).
class LmFd : public LogarithmicMethod<FrequentDirections> {
 public:
  struct Options {
    /// FD sketch rows per block (and of the final approximation).
    size_t ell = 32;
    /// Blocks per level, b ~ 1/epsilon.
    size_t blocks_per_level = 8;
    /// Block capacity in squared-norm mass; 0 means the paper's default
    /// C = ell (so a level-1 block holds about ell unit-norm rows).
    double block_capacity = 0.0;
    /// Amortized-shrink buffer factor of every per-block FD sketch
    /// (FrequentDirections::Options::buffer_factor). Must be >= 1.
    double fd_buffer_factor = 1.0;
  };

  LmFd(size_t dim, WindowSpec window, Options options);

  /// Cheap-construction path (core/factory.h SketchPrototype): shares
  /// pre-resolved metric handles instead of resolving its own.
  LmFd(size_t dim, WindowSpec window, Options options,
       const MetricSet& metrics);

  /// Checkpoint/resume of the full sliding-window state: Serialize writes
  /// the wire header core/factory.h reads back, then SerializeCore.
  static constexpr uint32_t kSerialTag = 0x4C4D4601;
  void Serialize(ByteWriter* writer) const;
  Status SerializeTo(ByteWriter* writer) const override {
    Serialize(writer);
    return Status::OK();
  }

 private:
  Options lm_options_;
};

/// LM-HASH (Appendix A): feature hashing blocks merged by addition.
class LmHash : public LogarithmicMethod<HashSketch> {
 public:
  struct Options {
    size_t ell = 64;          // Hash buckets per block.
    size_t blocks_per_level = 8;
    double block_capacity = 0.0;  // 0 => ell.
    uint64_t seed = 1;        // Shared hash seed (mergeability).
  };

  LmHash(size_t dim, WindowSpec window, Options options);

  /// Cheap-construction path (core/factory.h SketchPrototype): shares
  /// pre-resolved metric handles instead of resolving its own.
  LmHash(size_t dim, WindowSpec window, Options options,
         const MetricSet& metrics);

  /// Checkpoint/resume of the full sliding-window state (as LmFd's).
  static constexpr uint32_t kSerialTag = 0x4C4D4801;
  void Serialize(ByteWriter* writer) const;
  Status SerializeTo(ByteWriter* writer) const override {
    Serialize(writer);
    return Status::OK();
  }

 private:
  Options lm_options_;
};

/// LM-RP: random projection blocks, merged by addition (every block draws
/// independent signs, so the sum is itself a projection of the stacked
/// input). Not in the paper's evaluation; included for completeness of the
/// mergeable family.
class LmRp : public LogarithmicMethod<RandomProjection> {
 public:
  struct Options {
    size_t ell = 64;              // Projection rows per block.
    size_t blocks_per_level = 8;
    double block_capacity = 0.0;  // 0 => ell.
    uint64_t seed = 1;
  };

  LmRp(size_t dim, WindowSpec window, Options options);
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_LOGARITHMIC_METHOD_H_

// Sharded parallel ingest: one logical sliding-window stream partitioned
// round-robin across S shard sketches, each owned by exactly one writer
// thread (DESIGN.md section 8).
//
// Ingest path: the coordinator thread stages rows per shard into row
// blocks and hands each full block to the shard's writer through a bounded
// SPSC queue — no lock is shared between shards, and the writer applies
// blocks through the UpdateBatch fast paths. Back-pressure is the queue
// bound: a coordinator outrunning every writer blocks instead of buffering
// unboundedly.
//
// Window semantics: every shard keeps the *same* WindowSpec and receives
// *global* timestamps (for sequence windows, the global arrival index), so
// each shard's window is exactly the logical window restricted to its
// sub-stream and the union of shard windows is the logical window — no
// per-shard re-indexing, no boundary drift. Before reducing, a query
// flushes staged rows and advances every shard to the global high-water
// timestamp so expiry is aligned across shards.
//
// Determinism (the sharded == serial contract, tested bit-exactly for
// LM-FD / DI-FD / LM-HASH / DI-HASH):
//  * block boundaries are decided by the coordinator alone, so parallel
//    and serial (Options::parallel = false) execution dispatch identical
//    command sequences; each shard applies its own commands in FIFO order
//    either way, and deterministic backends make shard state a pure
//    function of that sequence;
//  * the query reduce is TreeReduceQueries' fixed pair-order tree, so pool
//    scheduling cannot reorder a single floating-point operation (the
//    samplers' priority union runs serially on the coordinator in shard
//    order);
//  * with one shard the reduce is the identity and Options::parallel makes
//    no observable difference, so an S=1 ShardedSketch is byte-equal to
//    the plain sketch it wraps.
//
// Seed-per-shard scheme: shard 0 keeps the configured seed (hence S=1
// equals the unsharded sketch bit-for-bit, randomized backends included);
// shards >= 1 get splitmix64-mixed seeds. Distinct seeds are *required*
// for correctness of the kSum reduce — shard-local row ids restart at 0
// per shard, so equal seeds would correlate the hash/projection draws of
// different shards and bias the summed sketch's cross terms.
#ifndef SWSKETCH_DISTRIBUTED_SHARDED_SKETCH_H_
#define SWSKETCH_DISTRIBUTED_SHARDED_SKETCH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/factory.h"
#include "core/merge_reduce.h"
#include "core/sliding_window_sketch.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/versioned_cache.h"

namespace swsketch {

class WindowSampler;

/// One logical sliding-window sketch served by S single-writer shards.
/// The coordinator-facing interface (every method below) must be driven
/// from one thread, like any other SlidingWindowSketch; the parallelism
/// lives behind it. Wrap in ConcurrentSketch for multi-threaded callers.
class ShardedSketch : public SlidingWindowSketch {
 public:
  struct Options {
    /// Shard (and writer thread) count S. Must be >= 1.
    size_t shards = 4;
    /// Staged rows per hand-off block: the writer-side UpdateBatch unit.
    size_t block_rows = 256;
    /// Per-shard queue bound, in blocks (back-pressure depth).
    size_t queue_blocks = 8;
    /// False applies every command inline on the coordinator thread — the
    /// serial reference execution of the same sharded pipeline, used by
    /// the bit-identity tests and as the S=1 baseline.
    bool parallel = true;
    /// Pool for the per-shard queries + reduce tree at query time.
    /// nullptr = ThreadPool::Shared().
    ThreadPool* reduce_pool = nullptr;
  };

  /// Takes ownership of the shard sketches (all must share dim and
  /// window). `reduce` says how per-shard query results combine;
  /// kPriorityUnion requires WindowSampler shards of one scheme and ell.
  ShardedSketch(std::vector<std::unique_ptr<SlidingWindowSketch>> shards,
                QueryReduceSpec reduce, Options options);

  /// Builds options.shards factory sketches with per-shard seeds
  /// (ShardSeed) and the reduce spec implied by config.algorithm.
  static Result<std::unique_ptr<ShardedSketch>> Make(size_t dim,
                                                     WindowSpec window,
                                                     const SketchConfig& config,
                                                     const Options& options);

  /// Seed for shard `shard` under base `seed`: shard 0 keeps `seed`
  /// (so S=1 reproduces the unsharded sketch exactly), later shards get
  /// splitmix64-mixed values.
  static uint64_t ShardSeed(uint64_t seed, size_t shard);

  /// Flushes staged rows to the shards, closes every queue and joins the
  /// writers. No row passed to Update is ever dropped.
  ~ShardedSketch() override;

  void Update(std::span<const double> row, double ts) override;
  void UpdateBatch(const Matrix& rows, std::span<const double> ts) override;
  void AdvanceTo(double now) override;

  /// Flush + align + quiesce + tree-reduce. Cached: repeated queries with
  /// no intervening mutation return the cached matrix without touching the
  /// shards.
  Matrix Query() override;

  /// Drains staged rows and blocks until every writer has applied its
  /// queue. Afterwards Query()/RowsStored() observe all ingested rows.
  void Flush() override;

  uint64_t StateVersion() const override { return mutation_seq_; }

  /// Staged rows plus each shard's last-published stored-row count. Never
  /// blocks (the harness samples it on the hot path): writers publish
  /// their count after every applied block, so the value is exact after
  /// Flush()/Query() and at most one queue of blocks stale mid-flight.
  size_t RowsStored() const override;

  size_t dim() const override { return dim_; }
  std::string name() const override { return name_; }
  const WindowSpec& window() const override { return window_; }

  /// Drops the cached query result (bench/test hook; behaviour unchanged).
  void InvalidateQueryCache() { result_cache_.Invalidate(); }

  size_t num_shards() const { return shards_.size(); }

  /// Read access to a quiesced shard (test hook). Call Flush() first;
  /// unsynchronized access to an active shard is a data race.
  const SlidingWindowSketch& shard(size_t i) const;

  const QueryReduceSpec& reduce_spec() const { return reduce_; }

 private:
  /// One queue item: a row block or a window advance. FIFO per shard, so
  /// an advance takes effect exactly after the blocks dispatched before
  /// it.
  struct Command {
    enum Kind : uint8_t { kRows, kAdvance };
    Kind kind = kRows;
    Matrix rows{0, 0};
    std::vector<double> ts;
    double now = 0.0;
  };

  struct Shard {
    Shard(std::unique_ptr<SlidingWindowSketch> s, size_t dim,
          size_t queue_capacity)
        : sketch(std::move(s)), staged(0, dim), queue(queue_capacity) {}

    std::unique_ptr<SlidingWindowSketch> sketch;  // Writer-owned when live.
    Matrix staged;                  // Coordinator-side rows awaiting dispatch.
    std::vector<double> staged_ts;
    SpscQueue<Command> queue;
    std::thread writer;
    uint64_t enqueued = 0;          // Coordinator-side dispatch count.
    std::mutex mu;                  // Guards `applied`.
    std::condition_variable applied_cv;
    uint64_t applied = 0;
    /// Stored-row count published by the writer after each command; the
    /// per-instance source RowsStored() sums (the occupancy gauge mirrors
    /// it but is shared by name across instances).
    std::atomic<uint64_t> stored{0};
    Counter* rows_in = nullptr;     // sharded_*.shard_rows.<i>
    Gauge* queue_depth = nullptr;   // sharded_*.queue_depth.<i>
    Gauge* occupancy = nullptr;     // sharded_*.occupancy.<i>
  };

  struct MetricSet {
    explicit MetricSet(const MetricScope& scope)
        : rows_ingested(scope.counter("rows_ingested")),
          blocks_enqueued(scope.counter("blocks_enqueued")),
          blocks_applied(scope.counter("blocks_applied")),
          advances(scope.counter("advances")),
          flushes(scope.counter("flushes")),
          queries(scope.counter("queries")),
          query_cache_hits(scope.counter("query_cache_hits")),
          query_cache_misses(scope.counter("query_cache_misses")),
          reduce_merges(scope.counter("reduce_merges")),
          stacked_rows(scope.gauge("stacked_rows")),
          block_apply_ns(scope.histogram("block_apply_ns")),
          query_reduce_ns(scope.histogram("query_reduce_ns")) {}

    Counter* rows_ingested;
    Counter* blocks_enqueued;
    Counter* blocks_applied;
    Counter* advances;
    Counter* flushes;
    Counter* queries;
    Counter* query_cache_hits;
    Counter* query_cache_misses;
    Counter* reduce_merges;
    Gauge* stacked_rows;
    Histogram* block_apply_ns;
    Histogram* query_reduce_ns;
  };

  void FlushStaged(Shard* shard);
  void Dispatch(Shard* shard, Command cmd);
  void ApplyCommand(Shard* shard, Command* cmd);
  /// Blocks until applied == enqueued on every shard (no-op when serial).
  void Quiesce() const;
  void WriterLoop(Shard* shard);
  /// Cold Query() path: flush + align + quiesce + tree-reduce.
  Matrix AlignAndReduce();

  size_t dim_;
  WindowSpec window_;
  QueryReduceSpec reduce_;
  Options options_;
  std::string name_;
  MetricSet metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // kPriorityUnion only: the shards, typed once at construction.
  std::vector<WindowSampler*> samplers_;
  size_t rr_ = 0;          // Next shard in the round-robin rotation.
  double now_ = 0.0;       // Global high-water timestamp.
  uint64_t mutation_seq_ = 0;

  // Query() result, keyed on mutation_seq_.
  VersionedCache<uint64_t, Matrix> result_cache_;
};

}  // namespace swsketch

#endif  // SWSKETCH_DISTRIBUTED_SHARDED_SKETCH_H_

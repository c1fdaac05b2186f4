// Fixed-size thread pool and deterministic parallel-for, the concurrency
// substrate for checkpoint evaluation, sweep fan-out and the partitioned
// linalg kernels.
//
// Determinism contract: ParallelFor splits [0, n) into the same chunks for
// a given (n, grain) regardless of how many workers execute them, each
// index is processed by exactly one task, and tasks never share mutable
// state unless the caller introduces it. A caller that writes result[i]
// from iteration i (and seeds any RNG from i, not from the thread id)
// therefore produces bit-identical output whether the pool has 1 or 64
// workers.
#ifndef SWSKETCH_UTIL_PARALLEL_H_
#define SWSKETCH_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace swsketch {

/// Fixed worker pool over a FIFO task queue. Threads are started in the
/// constructor and joined (after draining) in the destructor; Submit after
/// shutdown is a CHECK failure.
class ThreadPool {
 public:
  /// `threads` = 0 means DefaultThreadCount().
  explicit ThreadPool(size_t threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. If any task threw,
  /// rethrows the first exception (by submission-completion order) on the
  /// calling thread; the pool stays usable afterwards.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Process-wide shared pool, sized by DefaultThreadCount() at first use.
  static ThreadPool& Shared();

  /// Worker count for new default-sized pools: the SWSKETCH_THREADS
  /// environment variable when set (clamped to >= 1), otherwise
  /// std::thread::hardware_concurrency(). Overridable for tests/flags via
  /// SetDefaultThreadCount *before* Shared() is first used.
  static size_t DefaultThreadCount();
  static void SetDefaultThreadCount(size_t threads);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // Signals workers: task or shutdown.
  std::condition_variable idle_cv_;   // Signals Wait(): everything done.
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // Queued + currently executing tasks.
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

struct ParallelForOptions {
  /// Minimum iterations per task; [0, n) is split into ceil(n / grain)
  /// contiguous chunks. 0 means "one chunk per worker" (still
  /// deterministic: the chunking depends on the pool *size*, which is
  /// fixed per pool, not on scheduling).
  size_t grain = 0;
  /// Pool to run on; nullptr means ThreadPool::Shared().
  ThreadPool* pool = nullptr;
};

/// Runs body(i) for every i in [0, n). Chunks run concurrently on the
/// pool; iterations inside a chunk run in increasing order. Runs inline
/// (no pool touched) when n fits a single chunk or the pool has one
/// worker — so single-threaded configurations pay zero overhead and
/// produce identical results by construction. Exceptions from any chunk
/// are rethrown on the caller.
void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                 const ParallelForOptions& options = {});

/// Chunked variant: body(begin, end) per contiguous chunk. This is the
/// primitive the blocked kernels use (a chunk maps to a tile row band).
void ParallelForChunks(size_t n,
                       const std::function<void(size_t, size_t)>& body,
                       const ParallelForOptions& options = {});

/// Deterministic pairwise reduction tree over `leaves` >= 1 inputs. Level 0
/// builds node p = make_node(p) from leaves 2p and 2p + 1 (the caller
/// checks 2p + 1 < leaves); each higher level folds node 2p + 1 into node
/// 2p with merge(Node& left, const Node& right). The pairing depends only
/// on the leaf count and each task writes only its own node, so running a
/// level's tasks on `pool` (nullptr: the shared pool) is byte-identical to
/// the serial schedule.
template <typename Node, typename MakeNode, typename Merge>
Node PairwiseTreeReduce(size_t leaves, MakeNode&& make_node, Merge&& merge,
                        ThreadPool* pool = nullptr) {
  SWSKETCH_CHECK_GT(leaves, 0u);
  const ParallelForOptions opts{.grain = 1, .pool = pool};
  std::vector<std::optional<Node>> nodes((leaves + 1) / 2);
  ParallelFor(
      nodes.size(), [&](size_t p) { nodes[p].emplace(make_node(p)); }, opts);
  size_t width = nodes.size();
  while (width > 1) {
    const size_t next = (width + 1) / 2;
    ParallelFor(
        next,
        [&](size_t p) {
          if (2 * p + 1 < width) merge(*nodes[2 * p], *nodes[2 * p + 1]);
        },
        opts);
    // Compact serially: tasks above read nodes[2p + 1], which is exactly
    // the slot a concurrent compaction of pair p' = 2p + 1 would move.
    for (size_t p = 1; p < next; ++p) nodes[p] = std::move(nodes[2 * p]);
    width = next;
  }
  return std::move(*nodes[0]);
}

/// PairwiseTreeReduce over copies of `parts` (non-empty) joined by
/// Sketch::MergeWith: the merge tree of the LM cold query and of FD's
/// MergeAll tree route, one definition so both produce the same bytes.
template <typename Sketch>
Sketch PairwiseMergeTree(std::span<const Sketch* const> parts) {
  const size_t m = parts.size();
  return PairwiseTreeReduce<Sketch>(
      m,
      [&](size_t p) {
        Sketch acc = *parts[2 * p];
        if (2 * p + 1 < m) acc.MergeWith(*parts[2 * p + 1]);
        return acc;
      },
      [](Sketch& left, const Sketch& right) { left.MergeWith(right); });
}

/// Bounded single-producer single-consumer hand-off queue. One coordinator
/// thread pushes, one writer thread pops; the bound applies back-pressure
/// to the producer instead of letting the queue grow without limit.
///
/// Blocking mutex + two condvars rather than a lock-free ring: items are
/// whole row blocks, so the per-item cost is hundreds of row copies and the
/// lock is amortized to noise, while blocked producers/consumers park in
/// the kernel instead of spinning. The simple protocol is also trivially
/// clean under TSan, which the sharded ingest tests require.
///
/// Shutdown: Close() wakes both sides; Pop drains remaining items and then
/// returns false, Push after Close is a CHECK failure (producer owns the
/// close, so a well-formed coordinator never races it).
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Blocks while the queue is full.
  void Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [&] { return items_.size() < capacity_ || closed_; });
    SWSKETCH_CHECK(!closed_);
    items_.push_back(std::move(item));
    not_empty_.notify_one();
  }

  /// Consumer side. Blocks until an item arrives or the queue is closed;
  /// returns false only when closed *and* fully drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  /// Producer side: no further Push calls will be made. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Instantaneous item count (monitoring only; stale by the time the
  /// caller reads it).
  size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace swsketch

#endif  // SWSKETCH_UTIL_PARALLEL_H_

#include "distributed/sharded_sketch.h"

#include <utility>

#include "core/window_sampler.h"
#include "util/logging.h"

namespace swsketch {
namespace {

size_t CheckedDim(
    const std::vector<std::unique_ptr<SlidingWindowSketch>>& shards) {
  SWSKETCH_CHECK_GT(shards.size(), 0u);
  return shards[0]->dim();
}

}  // namespace

ShardedSketch::ShardedSketch(
    std::vector<std::unique_ptr<SlidingWindowSketch>> shards,
    QueryReduceSpec reduce, Options options)
    : dim_(CheckedDim(shards)),
      window_(shards[0]->window()),
      reduce_(reduce),
      options_(options),
      name_("SHARDED-" + shards[0]->name()),
      metrics_(MetricScope(MetricScope::Slug(name_))) {
  SWSKETCH_CHECK_GE(options_.block_rows, 1u);
  options_.shards = shards.size();
  const MetricScope scope(MetricScope::Slug(name_));
  shards_.reserve(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    SWSKETCH_CHECK_EQ(shards[i]->dim(), dim_);
    auto shard = std::make_unique<Shard>(std::move(shards[i]), dim_,
                                         options_.queue_blocks);
    const std::string suffix = std::to_string(i);
    shard->rows_in = scope.counter("shard_rows." + suffix);
    shard->queue_depth = scope.gauge("queue_depth." + suffix);
    shard->occupancy = scope.gauge("occupancy." + suffix);
    shards_.push_back(std::move(shard));
  }
  if (reduce_.kind == QueryReduceKind::kPriorityUnion) {
    for (const auto& shard : shards_) {
      auto* sampler = dynamic_cast<WindowSampler*>(shard->sketch.get());
      SWSKETCH_CHECK(sampler != nullptr);
      samplers_.push_back(sampler);
      SWSKETCH_CHECK(sampler->scheme() == samplers_[0]->scheme());
      SWSKETCH_CHECK_EQ(sampler->ell(), samplers_[0]->ell());
    }
  }
  if (options_.parallel) {
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      s->writer = std::thread([this, s] { WriterLoop(s); });
    }
  }
}

ShardedSketch::~ShardedSketch() {
  for (auto& shard : shards_) FlushStaged(shard.get());
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->writer.joinable()) shard->writer.join();
  }
}

Result<std::unique_ptr<ShardedSketch>> ShardedSketch::Make(
    size_t dim, WindowSpec window, const SketchConfig& config,
    const Options& options) {
  if (options.shards == 0) {
    return Status::InvalidArgument("ShardedSketch needs >= 1 shard");
  }
  std::vector<std::unique_ptr<SlidingWindowSketch>> shards;
  shards.reserve(options.shards);
  for (size_t s = 0; s < options.shards; ++s) {
    SketchConfig shard_config = config;
    shard_config.seed = ShardSeed(config.seed, s);
    auto sketch = MakeSlidingWindowSketch(dim, window, shard_config);
    if (!sketch.ok()) return sketch.status();
    shards.push_back(sketch.take());
  }
  return std::make_unique<ShardedSketch>(
      std::move(shards), ReduceSpecFor(config.algorithm, config.ell),
      options);
}

uint64_t ShardedSketch::ShardSeed(uint64_t seed, size_t shard) {
  if (shard == 0) return seed;  // S=1 == the unsharded sketch, bit-exact.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(shard);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void ShardedSketch::Update(std::span<const double> row, double ts) {
  SWSKETCH_CHECK_EQ(row.size(), dim_);
  SWSKETCH_CHECK_GE(ts, now_);
  ++mutation_seq_;
  now_ = ts;
  metrics_.rows_ingested->Add();
  Shard* shard = shards_[rr_].get();
  rr_ = rr_ + 1 == shards_.size() ? 0 : rr_ + 1;
  shard->rows_in->Add();
  if (shard->staged.rows() == 0) {
    shard->staged.ReserveRows(options_.block_rows);
  }
  shard->staged.AppendRow(row);
  shard->staged_ts.push_back(ts);
  if (shard->staged.rows() >= options_.block_rows) FlushStaged(shard);
}

void ShardedSketch::UpdateBatch(const Matrix& rows,
                                std::span<const double> ts) {
  SWSKETCH_CHECK_EQ(rows.rows(), ts.size());
  if (rows.rows() == 0) return;
  SWSKETCH_CHECK_EQ(rows.cols(), dim_);
  // The round-robin split re-blocks rows per shard anyway, so the batch
  // entry point is just the row loop with the dispatch inlined.
  for (size_t i = 0; i < rows.rows(); ++i) {
    ShardedSketch::Update(rows.Row(i), ts[i]);
  }
}

void ShardedSketch::AdvanceTo(double now) {
  SWSKETCH_CHECK_GE(now, now_);
  ++mutation_seq_;
  now_ = now;
  metrics_.advances->Add();
  for (auto& shard : shards_) {
    // Staged rows must land before the advance: their timestamps precede
    // `now`, and each shard enforces monotone time on its own stream.
    FlushStaged(shard.get());
    Command cmd;
    cmd.kind = Command::kAdvance;
    cmd.now = now;
    Dispatch(shard.get(), std::move(cmd));
  }
}

Matrix ShardedSketch::Query() {
  metrics_.queries->Add();
  return result_cache_.GetOrCompute(
      mutation_seq_, metrics_.query_cache_hits, metrics_.query_cache_misses,
      [this] { return AlignAndReduce(); });
}

Matrix ShardedSketch::AlignAndReduce() {
  // Align the shards: staged rows out, then every shard advanced to the
  // global high-water timestamp so expiry matches the logical window (a
  // shard that happened to receive no recent rows would otherwise still
  // hold rows the logical window has expired). Alignment is idempotent and
  // not a logical mutation, so it does not bump mutation_seq_.
  for (auto& shard : shards_) {
    FlushStaged(shard.get());
    Command cmd;
    cmd.kind = Command::kAdvance;
    cmd.now = now_;
    Dispatch(shard.get(), std::move(cmd));
  }
  Quiesce();

  Matrix result;
  {
    ScopedTimer timer(metrics_.query_reduce_ns);
    if (reduce_.kind == QueryReduceKind::kPriorityUnion) {
      result = WindowSampler::PriorityUnionQuery(samplers_);
    } else {
      // Writers are quiescent, so the pool tasks have exclusive use of
      // their shard; each writes only parts[i] (ParallelFor determinism
      // contract), and the reduce tree's pair order is fixed by the shard
      // count.
      std::vector<Matrix> parts(shards_.size(), Matrix(0, dim_));
      ParallelFor(
          shards_.size(),
          [&](size_t i) { parts[i] = shards_[i]->sketch->Query(); },
          {.grain = 1, .pool = options_.reduce_pool});
      result = TreeReduceQueries(reduce_, dim_, std::move(parts),
                                 options_.reduce_pool);
    }
  }
  if (shards_.size() > 1) {
    metrics_.reduce_merges->Add(shards_.size() - 1);
  }
  metrics_.stacked_rows->Set(static_cast<int64_t>(result.rows()));
  return result;
}

void ShardedSketch::Flush() {
  metrics_.flushes->Add();
  for (auto& shard : shards_) FlushStaged(shard.get());
  Quiesce();
}

size_t ShardedSketch::RowsStored() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->staged.rows() +
         shard->stored.load(std::memory_order_relaxed);
  }
  return n;
}

const SlidingWindowSketch& ShardedSketch::shard(size_t i) const {
  SWSKETCH_CHECK_LT(i, shards_.size());
  return *shards_[i]->sketch;
}

void ShardedSketch::FlushStaged(Shard* shard) {
  if (shard->staged.rows() == 0) return;
  Command cmd;
  cmd.kind = Command::kRows;
  cmd.rows = std::move(shard->staged);
  cmd.ts = std::move(shard->staged_ts);
  shard->staged = Matrix(0, dim_);
  shard->staged_ts.clear();
  metrics_.blocks_enqueued->Add();
  Dispatch(shard, std::move(cmd));
}

void ShardedSketch::Dispatch(Shard* shard, Command cmd) {
  shard->queue_depth->Add(1);
  if (options_.parallel) {
    ++shard->enqueued;
    shard->queue.Push(std::move(cmd));
  } else {
    ApplyCommand(shard, &cmd);
  }
}

void ShardedSketch::ApplyCommand(Shard* shard, Command* cmd) {
  if (cmd->kind == Command::kRows) {
    ScopedTimer timer(metrics_.block_apply_ns);
    shard->sketch->UpdateBatch(cmd->rows, cmd->ts);
    metrics_.blocks_applied->Add();
  } else {
    shard->sketch->AdvanceTo(cmd->now);
  }
  const uint64_t stored = shard->sketch->RowsStored();
  shard->stored.store(stored, std::memory_order_relaxed);
  shard->occupancy->Set(static_cast<int64_t>(stored));
  shard->queue_depth->Add(-1);
}

void ShardedSketch::Quiesce() const {
  if (!options_.parallel) return;
  for (const auto& sp : shards_) {
    Shard* shard = sp.get();
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->applied_cv.wait(
        lock, [shard] { return shard->applied == shard->enqueued; });
  }
}

void ShardedSketch::WriterLoop(Shard* shard) {
  Command cmd;
  while (shard->queue.Pop(&cmd)) {
    ApplyCommand(shard, &cmd);
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      ++shard->applied;
    }
    shard->applied_cv.notify_all();
  }
}

}  // namespace swsketch

// Distributed sliding-window monitoring (the paper's Section 9 future
// work, implemented in src/distributed/): a stream partitioned round-robin
// across S single-writer shards fed through bounded SPSC queues, queried
// through the shard reduce, in two acts:
//
//  1. SWR shards: each shard samples its sub-stream over the same window,
//     and a query merges the shards' samples by max-stable priority (per
//     sample slot, the highest-priority candidate wins), answering with
//     ell rows without ever centralizing rows.
//  2. LM-FD shards: the shards' sketches combine through the deterministic
//     mergeable FD tree-reduce.
//
// Each act also runs the serial reference execution of the same pipeline
// and shows that the parallel one answers byte-for-byte the same.
//
//   ./distributed_monitoring [--workers=4] [--window=2000] [--ell=16]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "distributed/sharded_sketch.h"
#include "eval/cov_err.h"
#include "stream/window_buffer.h"
#include "util/flags.h"
#include "util/random.h"

using namespace swsketch;

namespace {

std::vector<double> GaussianRow(Rng* rng, size_t d) {
  std::vector<double> row(d);
  for (auto& v : row) v = rng->Gaussian();
  return row;
}

// Runs one act: `algorithm` sharded S ways, parallel and serial side by
// side. Returns false if the pipeline cannot be built.
bool RunShardedAct(const std::string& algorithm, const char* title,
                   size_t shards, uint64_t window, size_t ell, size_t d,
                   size_t rows) {
  std::printf("== ShardedSketch over %s: %s ==\n", algorithm.c_str(), title);
  SketchConfig config;
  config.algorithm = algorithm;
  config.ell = ell;

  // The parallel pipeline (one writer thread per shard) and its serial
  // reference execution (same shards, same blocks, applied inline).
  ShardedSketch::Options popt;
  popt.shards = shards;
  ShardedSketch::Options sopt = popt;
  sopt.parallel = false;
  auto parallel =
      ShardedSketch::Make(d, WindowSpec::Sequence(window), config, popt);
  auto serial =
      ShardedSketch::Make(d, WindowSpec::Sequence(window), config, sopt);
  if (!parallel.ok() || !serial.ok()) {
    const Status& status = (parallel.ok() ? serial : parallel).status();
    std::fprintf(stderr, "construction failed: %s\n",
                 status.message().c_str());
    return false;
  }

  // Ground truth for the demo only: the union window's exact Gram.
  WindowBuffer truth(WindowSpec::Sequence(window));
  Rng rng(7);
  for (size_t i = 0; i < rows; ++i) {
    const std::vector<double> row = GaussianRow(&rng, d);
    const double ts = static_cast<double>(i);  // Global arrival index.
    parallel.value()->Update(row, ts);
    serial.value()->Update(row, ts);
    truth.Add(Row(row, ts));

    if ((i + 1) % (rows / 4) == 0) {
      const Matrix bp = parallel.value()->Query();
      const Matrix bs = serial.value()->Query();
      const double err =
          CovarianceError(truth.GramMatrix(d), truth.FrobeniusNormSq(), bp);
      std::printf(
          "after %6zu rows across %zu shards: B has %3zu rows, stored "
          "%4zu, cova-err = %.4f, parallel == serial bytes: %s\n",
          i + 1, shards, bp.rows(), parallel.value()->RowsStored(), err,
          bp.ApproxEquals(bs, 0.0) ? "yes" : "NO");
    }
  }
  std::printf("\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 4));
  const uint64_t window = static_cast<uint64_t>(flags.GetInt("window", 2000));
  const size_t ell = static_cast<size_t>(flags.GetInt("ell", 16));
  const size_t d = 32;
  const size_t rows = 20000;

  if (!RunShardedAct("swr", "max-stable union sampling", workers, window,
                     ell, d, rows) ||
      !RunShardedAct("lm-fd", "mergeable FD tree-reduce", workers, window,
                     ell, d, rows)) {
    return 1;
  }
  std::printf(
      "S = %zu single-writer shards ingested each stream with no shared\n"
      "lock on the hot path and answered union-window queries without\n"
      "centralizing any stream data.\n",
      workers);
  return 0;
}

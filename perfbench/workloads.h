// The benchmark's four closed-loop workloads. Each drives the swsketch
// library only through its public entry points (SlidingWindowSketch,
// AmmSketch, ShardedSketch, TenantManager) with inputs generated from the
// run's seed before timing starts, and checks every answer it gets back.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: half the time untraced, half traced; reports the
  /// per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Backend factory name -> largest cova-err a checkpoint may show.
  std::map<std::string, double> envelopes;
  /// Where a traced run writes its spans (empty: not written).
  std::string trace_path;
};

struct Outcome {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first few failed checks, for stderr.
  std::vector<std::string> failures;
};

/// (name, unit) of every end-to-end metric, reported by untraced runs.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// (name, unit) of every per-layer metric, reported by traced runs. A
/// workload that does not exercise a layer reports that layer's measured
/// zero.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

const std::vector<std::string>& WorkloadNames();

/// Runs one workload; `options.workload` must be one of WorkloadNames().
Outcome RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

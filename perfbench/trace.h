// Measurement support for the end-to-end benchmark: sample statistics,
// in-memory spans recorded around every call into a library layer, and
// before/after reads of the library's MetricsRegistry handles.
//
// Spans are the benchmark's own: it cannot see inside the library, so a
// layer span covers exactly one public call (UpdateBatch, Query,
// UpdateKeyed, ...). Work the registry already times inside such a call
// (the FD shrink histogram) is added as a synthetic child span, so the
// parent's self time excludes it.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/metrics.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by the calling thread (`clock` =
/// CLOCK_THREAD_CPUTIME_ID) or by the whole process
/// (CLOCK_PROCESS_CPUTIME_ID), in ns.
inline int64_t CpuNs(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
}
inline int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }
inline int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double Quantile(std::vector<double> values, double q);

double Mean(const std::vector<double>& values);

/// In-memory span log. Names are interned; a span's parent is the index of
/// an earlier span or -1. Spans of one load step share its step id.
class Tracer {
 public:
  struct Span {
    int32_t name = 0;
    int32_t parent = -1;
    uint64_t step = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span and returns its id (-1 when tracing is off).
  int32_t Begin(std::string_view name, int32_t parent, uint64_t step);
  void End(int32_t id);
  /// Records an already-measured span; used for registry-timed work inside
  /// a call (placed at the start of its parent).
  int32_t Add(std::string_view name, int32_t parent, uint64_t step,
              int64_t start_ns, int64_t end_ns);

  /// Self time (duration minus the time covered by its children) summed
  /// per layer, the first dotted component of the span name, in ns.
  std::map<std::string, double> SelfNsByLayer() const;

  /// Summed duration of the layer spans directly under a step span (a
  /// span named "bench.step.*").
  double StepChildNs() const;

  /// Writes one CSV line per span: step,id,parent,name,start_ns,end_ns.
  bool Write(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  int32_t Intern(std::string_view name);

  bool enabled_ = false;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int32_t> ids_;
  std::vector<Span> spans_;
};

/// A fixed list of registry values read together: counters (Value()) or
/// histogram sums (Sum()), addressed by name.
class RegistryProbe {
 public:
  void AddCounter(const std::string& name);
  void AddHistogramSum(const std::string& name);

  std::vector<int64_t> Read() const;
  /// Index of `name` in Read()'s result; aborts on an unknown name.
  size_t Index(const std::string& name) const;
  size_t size() const { return names_.size(); }

 private:
  enum class Kind { kCounter, kHistogramSum };
  struct Entry {
    Kind kind;
    const void* handle;
  };
  std::vector<std::string> names_;
  std::vector<Entry> entries_;
};

/// Bucket counts of one registry histogram, for deltas between two reads.
std::vector<uint64_t> ReadBuckets(const std::string& histogram_name);

/// Quantile of the values counted per bucket in `delta` (differences of
/// bucket reads), interpolated linearly inside the log2 bucket that holds
/// it; 0 when nothing was recorded.
double BucketQuantile(const std::vector<uint64_t>& delta, double q);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

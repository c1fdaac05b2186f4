#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace perfbench {

using swsketch::Counter;
using swsketch::Histogram;
using swsketch::MetricsRegistry;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

int32_t Tracer::Intern(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  const int32_t id = static_cast<int32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

int32_t Tracer::Begin(std::string_view name, int32_t parent, uint64_t step) {
  if (!enabled_) return -1;
  Span span;
  span.name = Intern(name);
  span.parent = parent;
  span.step = step;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int32_t Tracer::Add(std::string_view name, int32_t parent, uint64_t step,
                    int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back(Span{Intern(name), parent, step, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::SelfNsByLayer() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = names_[static_cast<size_t>(spans_[i].name)];
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

double Tracer::StepChildNs() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (names_[static_cast<size_t>(p.name)].rfind("bench.step.", 0) == 0) {
      total += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return total;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "step,id,parent,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%llu,%zu,%d,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.step), i, s.parent,
                 names_[static_cast<size_t>(s.name)].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void RegistryProbe::AddCounter(const std::string& name) {
  names_.push_back(name);
  entries_.push_back(
      {Kind::kCounter, MetricsRegistry::Global().GetCounter(name)});
}

void RegistryProbe::AddHistogramSum(const std::string& name) {
  names_.push_back(name);
  entries_.push_back(
      {Kind::kHistogramSum, MetricsRegistry::Global().GetHistogram(name)});
}

std::vector<int64_t> RegistryProbe::Read() const {
  std::vector<int64_t> out(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out[i] = static_cast<int64_t>(
        e.kind == Kind::kCounter
            ? static_cast<const Counter*>(e.handle)->Value()
            : static_cast<const Histogram*>(e.handle)->Sum());
  }
  return out;
}

size_t RegistryProbe::Index(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  std::fprintf(stderr, "perfbench: unknown probe metric %s\n", name.c_str());
  std::abort();
}

std::vector<uint64_t> ReadBuckets(const std::string& histogram_name) {
  const Histogram* h = MetricsRegistry::Global().GetHistogram(histogram_name);
  std::vector<uint64_t> buckets(Histogram::kBuckets);
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    buckets[i] = h->BucketCount(i);
  }
  return buckets;
}

double BucketQuantile(const std::vector<uint64_t>& delta, double q) {
  uint64_t total = 0;
  for (uint64_t n : delta) total += n;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double seen = 0.0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) continue;
    const double next = seen + static_cast<double>(delta[i]);
    if (rank <= next) {
      const double lo = static_cast<double>(Histogram::BucketLower(i));
      const double hi = static_cast<double>(Histogram::BucketUpper(i));
      const double frac = (rank - seen) / static_cast<double>(delta[i]);
      return lo + frac * (hi - lo);
    }
    seen = next;
  }
  return static_cast<double>(Histogram::BucketLower(delta.size() - 1));
}

}  // namespace perfbench

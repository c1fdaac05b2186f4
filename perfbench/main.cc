// End-to-end benchmark of swsketch. Runs one workload and prints,
// as the last line of stdout, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// report the per-layer metrics and write their spans to --trace_out.
//
//   perfbench --workload seq-ingest --seed 1 --seconds 10 --trace 0
//             --envelopes lm-fd=0.35,di-fd=0.6,...
//             [--trace_out spans.csv]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

double ParseNumber(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v)) {
    Usage("bad value for " + flag + ": " + text);
  }
  return v;
}

// "a=0.35,b=0.6" -> {a: 0.35, b: 0.6}.
std::map<std::string, double> ParseEnvelopes(const std::string& text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    const size_t eq = item.find('=');
    if (eq == std::string::npos) Usage("bad envelope " + item);
    out[item.substr(0, eq)] = ParseNumber("--envelopes", item.substr(eq + 1));
    pos = comma + 1;
  }
  return out;
}

void PrintResult(const perfbench::Outcome& outcome, bool trace) {
  const auto& catalog = trace ? perfbench::PerLayerMetrics()
                              : perfbench::EndToEndMetrics();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  const char* sep = "";
  for (const auto& [name, unit] : catalog) {
    auto it = outcome.metrics.find(name);
    const double v = it == outcome.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), std::isfinite(v) ? v : 0.0, unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(ParseNumber(flag, value));
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = ParseNumber(flag, value);
    } else if (flag == "--trace") {
      options.trace = ParseNumber(flag, value) != 0.0;
    } else if (flag == "--envelopes") {
      options.envelopes = ParseEnvelopes(value);
    } else if (flag == "--trace_out") {
      options.trace_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) Usage("unknown workload '" + options.workload + "'");
  if (!have_seed) Usage("--seed is required");
  if (options.seconds <= 0.0) Usage("--seconds must be positive");

  const perfbench::Outcome outcome = perfbench::RunWorkload(options);
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
  }
  PrintResult(outcome, options.trace);
  return 0;
}

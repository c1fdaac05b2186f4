// Query-serving microbenchmark (DESIGN.md §8 "Query path"):
//
//  1. Warm vs cold single-thread query latency for LM-FD and DI-FD at
//     ell = 64, d = 256: cold calls InvalidateQueryCache() before every
//     Query() (the pre-cache behaviour), warm queries a structurally
//     unchanged sketch and hits the merged-result cache. The two paths
//     must return byte-identical matrices (asserted here and pinned by
//     tests/query_cache_test).
//
//  2. Cold LM-FD query over a (d, ell) grid: the latency of one cold
//     merge of every live block and the route FD's MergeAll took for it
//     (tall: one d x d shrink; tree: the pairwise MergeWith tree). The
//     evidence behind MergeAll's op-count route rule (EXPERIMENTS.md
//     "One-shrink LM cold query"); ungated like the cold cell above.
//
//  3. Multi-reader throughput: one writer ingesting continuously through a
//     ConcurrentSketch while {1, 2, 4} reader threads spin on Query(), in
//     snapshot mode (readers copy the writer-published snapshot, never
//     waiting on ingest) versus mutex mode (every reader recomputes under
//     the writer's lock).
//
// Emits BENCH_micro_query.json in the cells format; scripts/bench_gate.sh
// diffs the warm/cold latency cells against the committed baseline in
// bench/baselines/ (QPS cells are reported but not in the baseline — they
// depend on the host's core count).
//
//   ./micro_query [--ell=64] [--d=256] [--rows=20000] [--window=4000]
//                 [--iters=2000] [--duration_ms=300] [--json=1]
#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_sketch.h"
#include "core/dyadic_interval.h"
#include "core/logarithmic_method.h"
#include "eval/report.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/timer.h"

using namespace swsketch;

namespace {

struct Cell {
  std::string algorithm;
  size_t ell = 0;
  double update_ns = 0.0;  // Per-query latency (the gated metric).
  double qps = 0.0;        // Aggregate queries/s (QPS cells only).
};

void WriteCellsJson(const std::string& path, size_t rows, size_t d,
                    const std::vector<Cell>& cells) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"figure\": \"micro_query\",\n"
      << "  \"metric\": \"update_ns\",\n"
      << "  \"dataset\": \"SYNTH-gauss\",\n"
      << "  \"n\": " << rows << ",\n  \"d\": " << d << ",\n"
      << "  \"window\": \"sequence\",\n  \"cells\": [";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << (i ? "," : "") << "\n    {\"algorithm\": \"" << c.algorithm
        << "\", \"ell\": " << c.ell << ", \"update_ns\": " << c.update_ns
        << ", \"qps\": " << c.qps << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "(wrote " << path << ")\n";
}

Matrix MakeRows(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) rows(i, j) = rng.Gaussian();
  }
  return rows;
}

// Measures warm/cold latency of one sketch type. SketchT must expose
// Update/Query/InvalidateQueryCache (LmFd, DiFd).
template <typename SketchT>
void BenchWarmCold(SketchT* sketch, const Matrix& rows, const char* slug,
                   size_t ell, size_t iters, std::vector<Cell>* cells) {
  for (size_t i = 0; i < rows.rows(); ++i) {
    sketch->Update(rows.Row(i), static_cast<double>(i));
  }
  // Byte-identity: a cached query must equal a cold recompute exactly.
  const Matrix warm_result = sketch->Query();
  sketch->InvalidateQueryCache();
  const Matrix cold_result = sketch->Query();
  if (!warm_result.ApproxEquals(cold_result, 0.0)) {
    std::cerr << "FATAL: " << slug << " warm result != cold result\n";
    std::exit(1);
  }

  Timer t;
  for (size_t i = 0; i < iters; ++i) {
    sketch->InvalidateQueryCache();
    Matrix b = sketch->Query();
  }
  const double cold_ns =
      static_cast<double>(t.ElapsedNanos()) / static_cast<double>(iters);

  (void)sketch->Query();  // Fill the cache.
  t.Reset();
  for (size_t i = 0; i < iters; ++i) {
    Matrix b = sketch->Query();
  }
  const double warm_ns =
      static_cast<double>(t.ElapsedNanos()) / static_cast<double>(iters);

  std::cout << slug << ": cold " << cold_ns << " ns, warm " << warm_ns
            << " ns  (" << cold_ns / warm_ns << "x)\n";
  cells->push_back({std::string("cold-") + slug, ell, cold_ns, 0.0});
  cells->push_back({std::string("warm-") + slug, ell, warm_ns, 0.0});
}

std::unique_ptr<SlidingWindowSketch> MakeLmFd(size_t d, size_t ell,
                                              uint64_t window) {
  LmFd::Options opt;
  opt.ell = ell;
  // About ell rows of mass per block (Gaussian rows have E||r||^2 = d).
  opt.block_capacity = static_cast<double>(ell) * static_cast<double>(d);
  return std::make_unique<LmFd>(d, WindowSpec::Sequence(window), opt);
}

// Cold-query latency of one LM-FD grid cell: a Sequence(window) LM-FD of
// about ell Gaussian rows per block, fed window + window / 4 rows, then
// cold queries until at least `budget_ms` have passed (3 at least).
// Returns the median latency; *route is the MergeAll route the cold merge
// took and *live the live blocks it merged.
double ColdGridCell(size_t d, size_t ell, uint64_t window, double budget_ms,
                    std::string* route, uint64_t* live) {
  LmFd::Options opt;
  opt.ell = ell;
  opt.block_capacity = static_cast<double>(ell) * static_cast<double>(d);
  LmFd lm(d, WindowSpec::Sequence(window), opt);
  Rng rng(d * 1000 + ell);
  std::vector<double> row(d);
  for (uint64_t i = 0; i < window + window / 4; ++i) {
    for (double& v : row) v = rng.Gaussian();
    lm.Update(row, static_cast<double>(i));
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* tall = registry.GetCounter("fd.merge_route_tall");
  Counter* merges = registry.GetCounter("fd.merges");
  std::vector<double> ns;
  Timer total;
  while (ns.size() < 3 || total.ElapsedSeconds() * 1e3 < budget_ms) {
    const uint64_t tall0 = tall->Value();
    const uint64_t merges0 = merges->Value();
    lm.InvalidateQueryCache();
    Timer t;
    Matrix b = lm.Query();
    ns.push_back(static_cast<double>(t.ElapsedNanos()));
    *route = tall->Value() > tall0 ? "tall" : "tree";
    *live = merges->Value() - merges0 + 1;
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return ns[ns.size() / 2];
}

// One writer ingesting continuously + `readers` threads spinning Query().
// Returns aggregate reader QPS.
double RunQps(ConcurrentSketch::Mode mode, size_t readers, const Matrix& rows,
              size_t d, size_t ell, uint64_t window, int duration_ms) {
  ConcurrentSketch sketch(MakeLmFd(d, ell, window), mode);
  // Warm start: one window of rows before the clock starts.
  size_t pre = std::min<size_t>(rows.rows(), window);
  for (size_t i = 0; i < pre; ++i) {
    sketch.Update(rows.Row(i), static_cast<double>(i));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::thread writer([&] {
    size_t i = pre;
    double ts = static_cast<double>(pre);
    while (!stop.load(std::memory_order_relaxed)) {
      sketch.Update(rows.Row(i % rows.rows()), ts);
      ++i;
      ts += 1.0;
    }
  });
  std::vector<std::thread> pool;
  for (size_t r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Matrix b = sketch.Query();
        if (b.cols() != d) std::abort();
        ++local;
      }
      queries.fetch_add(local);
    });
  }
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  writer.join();
  for (auto& th : pool) th.join();
  return static_cast<double>(queries.load()) / t.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t ell = static_cast<size_t>(flags.GetInt("ell", 64));
  const size_t d = static_cast<size_t>(flags.GetInt("d", 256));
  const size_t rows_n = static_cast<size_t>(flags.GetInt("rows", 20000));
  const uint64_t window =
      static_cast<uint64_t>(flags.GetInt("window", 4000));
  const size_t iters = static_cast<size_t>(flags.GetInt("iters", 2000));
  const int duration_ms = static_cast<int>(flags.GetInt("duration_ms", 300));

  const Matrix rows = MakeRows(rows_n, d, 1);
  std::vector<Cell> cells;

  PrintBanner(std::cout, "micro_query: warm vs cold single-thread latency");
  {
    LmFd::Options opt;
    opt.ell = ell;
    opt.block_capacity = static_cast<double>(ell) * static_cast<double>(d);
    LmFd lm(d, WindowSpec::Sequence(window), opt);
    BenchWarmCold(&lm, rows, "query-lm-fd", ell, iters, &cells);
  }
  {
    double max_norm_sq = 0.0;
    for (size_t i = 0; i < rows.rows(); ++i) {
      double s = 0.0;
      for (size_t j = 0; j < d; ++j) s += rows(i, j) * rows(i, j);
      max_norm_sq = std::max(max_norm_sq, s);
    }
    DiFd::Options opt;
    opt.ell_top = ell;
    opt.window_size = window;
    opt.max_norm_sq = max_norm_sq;
    DiFd di(d, opt);
    BenchWarmCold(&di, rows, "query-di-fd", ell, iters, &cells);
  }

  {
    PrintBanner(std::cout, "micro_query: cold LM-FD query grid");
    Table grid({"d", "ell", "live_blocks", "route", "cold_query_ms"});
    const struct {
      size_t d, ell;
    } kGrid[] = {{35, 16},  {150, 32}, {200, 32}, {231, 16},
                 {300, 32}, {300, 64}, {1000, 32}};
    for (const auto& cell : kGrid) {
      std::string route;
      uint64_t live = 0;
      const double cold_ns =
          ColdGridCell(cell.d, cell.ell, window, 300.0, &route, &live);
      grid.AddRow({Table::Int(static_cast<long long>(cell.d)),
                   Table::Int(static_cast<long long>(cell.ell)),
                   Table::Int(static_cast<long long>(live)), route,
                   Table::Num(cold_ns * 1e-6)});
      cells.push_back({"cold-grid-d" + std::to_string(cell.d), cell.ell,
                       cold_ns, 0.0});
    }
    grid.Print(std::cout);
  }

  PrintBanner(std::cout, "micro_query: multi-reader QPS (writer + readers)");
  Table qps_table({"mode", "readers", "aggregate_qps", "ns_per_query"});
  double qps_snap4 = 0.0, qps_lock4 = 0.0;
  const struct {
    ConcurrentSketch::Mode mode;
    const char* name;
  } kModes[] = {{ConcurrentSketch::Mode::kSnapshot, "snap"},
                {ConcurrentSketch::Mode::kMutex, "lock"}};
  for (const auto& m : kModes) {
    for (size_t readers : {size_t{1}, size_t{2}, size_t{4}}) {
      const double qps =
          RunQps(m.mode, readers, rows, d, ell, window, duration_ms);
      const double ns_per_query = qps > 0.0 ? 1e9 / qps : 0.0;
      qps_table.AddRow({std::string(m.name),
                        Table::Int(static_cast<long long>(readers)),
                        Table::Num(qps), Table::Num(ns_per_query)});
      cells.push_back({std::string("qps-") + m.name + "-r" +
                           std::to_string(readers),
                       ell, ns_per_query, qps});
      if (readers == 4 && m.mode == ConcurrentSketch::Mode::kSnapshot) {
        qps_snap4 = qps;
      }
      if (readers == 4 && m.mode == ConcurrentSketch::Mode::kMutex) {
        qps_lock4 = qps;
      }
    }
  }
  qps_table.Print(std::cout);
  if (qps_lock4 > 0.0) {
    std::cout << "\nsnapshot/mutex aggregate QPS at 4 readers: "
              << qps_snap4 / qps_lock4 << "x\n";
  }

  if (flags.GetBool("json", true)) {
    WriteCellsJson("BENCH_micro_query.json", rows_n, d, cells);
  }
  return 0;
}

#include "bench_util.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>

#include "data/bibd.h"
#include "data/pamap.h"
#include "data/rail.h"
#include "data/synthetic.h"
#include "data/wiki.h"
#include "distributed/sharded_sketch.h"
#include "eval/report.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace swsketch {
namespace bench {

namespace {

// Mean squared norm over a stream prefix (block-capacity calibration).
double ProbeAvgNormSq(DatasetStream* stream, size_t sample = 2000) {
  double sum = 0.0;
  size_t n = 0;
  while (n < sample) {
    auto row = stream->Next();
    if (!row) break;
    sum += row->NormSq();
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 1.0;
}

}  // namespace

Scale ScaleFromFlags(const Flags& flags) {
  const std::string s = flags.GetString("scale", "smoke");
  if (s == "paper") return Scale::kPaper;
  return Scale::kSmoke;
}

Workload MakeSynthetic(Scale scale) {
  const bool paper = scale == Scale::kPaper;
  SyntheticStream::Options opt;
  opt.rows = paper ? 1000000 : 30000;
  opt.dim = paper ? 300 : 150;
  opt.signal_dim = paper ? 50 : 30;
  opt.window = paper ? 10000 : 3000;
  Workload w;
  w.name = "SYNTHETIC";
  w.rows = opt.rows;
  w.dim = opt.dim;
  w.window = WindowSpec::Sequence(opt.window);
  w.make_stream = [opt] { return std::make_unique<SyntheticStream>(opt); };
  SyntheticStream probe(opt);
  w.max_norm_sq = probe.info().max_norm_sq;
  w.norm_ratio = probe.info().norm_ratio_hint;
  SyntheticStream probe2(opt);
  w.avg_norm_sq = ProbeAvgNormSq(&probe2);
  return w;
}

Workload MakeBibd(Scale scale) {
  const bool paper = scale == Scale::kPaper;
  BibdStream::Options opt;
  opt.rows = paper ? 319770 : 30000;
  opt.dim = 231;
  opt.row_weight = 28;
  opt.window = paper ? 10000 : 3000;
  Workload w;
  w.name = "BIBD";
  w.rows = opt.rows;
  w.dim = opt.dim;
  w.window = WindowSpec::Sequence(opt.window);
  w.make_stream = [opt] { return std::make_unique<BibdStream>(opt); };
  w.max_norm_sq = 28.0;
  w.norm_ratio = 1.0;
  w.avg_norm_sq = 28.0;
  return w;
}

Workload MakePamap(Scale scale) {
  const bool paper = scale == Scale::kPaper;
  PamapStream::Options opt;
  opt.rows = paper ? 198000 : 60000;
  opt.dim = 35;
  opt.window = paper ? 10000 : 6000;
  Workload w;
  w.name = "PAMAP";
  w.rows = opt.rows;
  w.dim = opt.dim;
  w.window = WindowSpec::Sequence(opt.window);
  w.make_stream = [opt] { return std::make_unique<PamapStream>(opt); };
  PamapStream probe(opt);
  w.max_norm_sq = probe.info().max_norm_sq;
  w.norm_ratio = probe.info().norm_ratio_hint;
  PamapStream probe2(opt);
  w.avg_norm_sq = ProbeAvgNormSq(&probe2);
  return w;
}

Workload MakeWiki(Scale scale) {
  const bool paper = scale == Scale::kPaper;
  WikiStream::Options opt;
  opt.rows = paper ? 68000 : 20000;
  opt.dim = paper ? 1000 : 300;
  opt.nnz_min = paper ? 50 : 20;
  opt.nnz_max = paper ? 250 : 80;
  opt.span = 2000.0;
  opt.window = paper ? 578.0 : 100.0;
  Workload w;
  w.name = "WIKI";
  w.rows = opt.rows;
  w.dim = opt.dim;
  w.window = WindowSpec::Time(opt.window);
  w.make_stream = [opt] { return std::make_unique<WikiStream>(opt); };
  WikiStream probe(opt);
  w.max_norm_sq = probe.info().max_norm_sq;
  w.norm_ratio = probe.info().norm_ratio_hint;
  WikiStream probe2(opt);
  w.avg_norm_sq = ProbeAvgNormSq(&probe2);
  return w;
}

Workload MakeRail(Scale scale) {
  const bool paper = scale == Scale::kPaper;
  RailStream::Options opt;
  opt.rows = paper ? 300000 : 60000;
  opt.dim = paper ? 400 : 200;
  opt.mean_interarrival = 0.5;
  opt.window = paper ? 5000.0 : 1500.0;
  Workload w;
  w.name = "RAIL";
  w.rows = opt.rows;
  w.dim = opt.dim;
  w.window = WindowSpec::Time(opt.window);
  w.make_stream = [opt] { return std::make_unique<RailStream>(opt); };
  RailStream probe(opt);
  w.max_norm_sq = probe.info().max_norm_sq;
  w.norm_ratio = probe.info().norm_ratio_hint;
  RailStream probe2(opt);
  w.avg_norm_sq = ProbeAvgNormSq(&probe2);
  return w;
}

namespace {

// DI level count L ~ log2(R / eps) with R the NORM RATIO (rows normalized
// to [1, R], Section 4 remark) and eps ~ 2 / ell (Section 7.3), capped to
// keep level-1 blocks non-degenerate. Large ratios blow L up — exactly the
// regime where the paper finds DI-FD uncompetitive (PAMAP).
size_t DiLevels(double norm_ratio, size_t ell) {
  const double l = std::log2(std::max(2.0, norm_ratio *
                                               static_cast<double>(ell) / 2.0));
  return std::clamp<size_t>(static_cast<size_t>(std::lround(l)), 2, 12);
}

}  // namespace

std::vector<SweepPoint> RunSweep(const Workload& workload,
                                 const SweepOptions& options) {
  // One cell per ell: all algorithms of that ell share a single stream
  // pass and one exact-window evaluation. Cells are independent (each
  // builds its own sketches and stream from the deterministic per-config
  // seed), so they fan out to the pool; cell results land in per-ell slots
  // and are concatenated in ell order, making the output independent of
  // scheduling.
  std::vector<std::vector<SweepPoint>> cells(options.ells.size());
  const auto run_cell = [&](size_t cell) {
    const size_t ell = options.ells[cell];
    std::vector<std::unique_ptr<SlidingWindowSketch>> sketches;
    std::vector<std::string> algos;
    for (const std::string& algo : options.algorithms) {
      SketchConfig config;
      config.algorithm = algo;
      config.ell = ell;
      config.max_norm_sq = workload.max_norm_sq;
      config.levels = DiLevels(workload.norm_ratio, ell);
      // LM block capacity: about ell rows' worth of mass (see factory.h).
      config.lm_block_capacity =
          static_cast<double>(ell) * workload.avg_norm_sq;
      config.fd_buffer_factor = options.fd_buffer_factor;
      config.ds_snapshots_per_window = options.ds_snapshots_per_window;
      config.ds_snapshot_trunc = options.ds_snapshot_trunc;
      config.ds_frame_ell_factor = options.ds_frame_ell_factor;
      config.ds_fd_buffer_factor = options.ds_fd_buffer_factor;
      config.seed = options.seed;
      if (options.shards > 1) {
        ShardedSketch::Options sopt;
        sopt.shards = options.shards;
        sopt.block_rows = options.shard_block_rows;
        auto r = ShardedSketch::Make(workload.dim, workload.window, config,
                                     sopt);
        if (!r.ok()) {  // e.g. DI on a time window, or a bad flag value.
          std::cerr << "skipping " << algo << ": " << r.status().ToString()
                    << "\n";
          continue;
        }
        sketches.push_back(r.take());
      } else {
        auto r = MakeSlidingWindowSketch(workload.dim, workload.window,
                                         config);
        if (!r.ok()) {
          std::cerr << "skipping " << algo << ": " << r.status().ToString()
                    << "\n";
          continue;
        }
        sketches.push_back(r.take());
      }
      algos.push_back(algo);
    }
    if (sketches.empty()) return;

    std::vector<SlidingWindowSketch*> ptrs;
    for (auto& s : sketches) ptrs.push_back(s.get());
    auto stream = workload.make_stream();
    HarnessOptions hopt;
    hopt.num_checkpoints = options.num_checkpoints;
    hopt.total_rows = workload.rows;
    hopt.measure_update_time = options.measure_time;
    hopt.best_k = options.with_best ? ell : 0;
    hopt.batch_rows = options.batch_rows;
    hopt.parallel_ingest = options.parallel_ingest;
    hopt.query_every = options.query_every;
    auto results = RunMany(stream.get(), ptrs, hopt);

    for (size_t i = 0; i < results.size(); ++i) {
      SweepPoint p;
      p.algorithm = algos[i];
      p.ell = ell;
      p.result = results[i];
      p.best_err_avg = results[i].avg_best_err;
      p.best_err_max = results[i].max_best_err;
      cells[cell].push_back(std::move(p));
    }
  };
  if (options.parallel_cells) {
    ParallelFor(options.ells.size(), run_cell, {.grain = 1});
  } else {
    for (size_t cell = 0; cell < options.ells.size(); ++cell) run_cell(cell);
  }

  std::vector<SweepPoint> points;
  for (auto& cell : cells) {
    for (auto& p : cell) points.push_back(std::move(p));
  }
  return points;
}

namespace {

bool g_csv_output = false;
bool g_json_output = true;

// "Figure 3(a): SYNTHETIC" -> "figure_3_a_synthetic".
std::string Slugify(const std::string& title) {
  std::string slug;
  bool pending_sep = false;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      if (pending_sep && !slug.empty()) slug.push_back('_');
      pending_sep = false;
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else {
      pending_sep = true;
    }
  }
  return slug.empty() ? "figure" : slug;
}

void JsonEscape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

// One JSON file per figure: workload metadata plus one record per sweep
// cell, so successive revisions can diff perf/accuracy mechanically.
void WriteBenchJson(const std::string& title, const Workload& workload,
                    const std::vector<SweepPoint>& points, Metric metric) {
  const std::string path = "BENCH_" + Slugify(title) + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  const char* metric_name = metric == Metric::kAvgErr   ? "avg_err"
                            : metric == Metric::kMaxErr ? "max_err"
                                                        : "update_ns";
  out << "{\n  \"figure\": ";
  JsonEscape(out, title);
  out << ",\n  \"metric\": \"" << metric_name << "\",\n  \"dataset\": ";
  JsonEscape(out, workload.name);
  out << ",\n  \"n\": " << workload.rows << ",\n  \"d\": " << workload.dim
      << ",\n  \"window\": ";
  JsonEscape(out, workload.window.ToString());
  out << ",\n  \"cells\": [";
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    out << (i ? "," : "") << "\n    {\"algorithm\": ";
    JsonEscape(out, p.algorithm);
    out << ", \"ell\": " << p.ell
        << ", \"avg_err\": " << p.result.avg_err
        << ", \"max_err\": " << p.result.max_err
        << ", \"update_ns\": " << p.result.avg_update_ns
        << ", \"max_rows_stored\": " << p.result.max_rows_stored
        << ", \"best_err_avg\": " << p.best_err_avg
        << ", \"best_err_max\": " << p.best_err_max
        << ", \"zero_err_avg\": " << p.result.avg_zero_err
        << ", \"rows_processed\": " << p.result.rows_processed << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "(wrote " << path << ")\n";
}

}  // namespace

void SetCsvOutput(bool enabled) { g_csv_output = enabled; }

void SetJsonOutput(bool enabled) { g_json_output = enabled; }

void PrintFigure(const std::string& title, const Workload& workload,
                 const std::vector<SweepPoint>& points, Metric metric) {
  PrintBanner(std::cout, title);
  std::cout << "dataset=" << workload.name << " n=" << workload.rows
            << " d=" << workload.dim << " window=" << workload.window.ToString()
            << "\n";
  const char* metric_name = metric == Metric::kAvgErr   ? "avg_err"
                            : metric == Metric::kMaxErr ? "max_err"
                                                        : "update_ns";
  Table table({"algorithm", "ell", "max_sketch_rows", metric_name});
  for (const auto& p : points) {
    double value = 0.0;
    switch (metric) {
      case Metric::kAvgErr: value = p.result.avg_err; break;
      case Metric::kMaxErr: value = p.result.max_err; break;
      case Metric::kUpdateNs: value = p.result.avg_update_ns; break;
    }
    table.AddRow({p.algorithm, Table::Int(static_cast<long long>(p.ell)),
                  Table::Int(static_cast<long long>(p.result.max_rows_stored)),
                  Table::Num(value)});
  }
  // BEST(offline) series (size = k = ell) and the B = 0 floor (Section
  // 8.1 observation (5)), when computed.
  if (metric != Metric::kUpdateNs) {
    std::set<size_t> seen;
    double zero_err = 0.0;
    for (const auto& p : points) {
      zero_err = std::max(zero_err, p.result.avg_zero_err);
      if ((p.best_err_avg > 0.0 || p.best_err_max > 0.0) &&
          seen.insert(p.ell).second) {
        table.AddRow({"BEST(offline)",
                      Table::Int(static_cast<long long>(p.ell)),
                      Table::Int(static_cast<long long>(p.ell)),
                      Table::Num(metric == Metric::kAvgErr ? p.best_err_avg
                                                           : p.best_err_max)});
      }
    }
    if (zero_err > 0.0) {
      table.AddRow({"ZERO(B=0)", "-", "0", Table::Num(zero_err)});
    }
  }
  table.Print(std::cout);
  if (g_csv_output) {
    std::cout << "-- csv --\n";
    table.PrintCsv(std::cout);
  }
  if (g_json_output) WriteBenchJson(title, workload, points, metric);
}

std::vector<size_t> SweepSizes(const Flags& flags) {
  if (flags.Has("ells")) {
    std::vector<size_t> out;
    const std::string spec = flags.GetString("ells", "");
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      out.push_back(static_cast<size_t>(
          std::strtoull(spec.substr(pos, comma - pos).c_str(), nullptr, 10)));
      pos = comma + 1;
    }
    return out;
  }
  return ScaleFromFlags(flags) == Scale::kPaper
             ? std::vector<size_t>{16, 32, 64, 128, 256}
             : std::vector<size_t>{8, 16, 32, 64};
}

void MaybeWriteMetrics(const Flags& flags) {
  if (!flags.Has("metrics_out")) return;
  const std::string path = flags.GetString("metrics_out", "");
  if (path.empty()) return;
  const MetricsRegistry& registry = MetricsRegistry::Global();
  std::ofstream json_out(path);
  if (!json_out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  json_out << registry.Export(MetricsRegistry::ExportFormat::kJson);
  const std::string prom_path = path + ".prom";
  std::ofstream prom_out(prom_path);
  if (!prom_out) {
    std::cerr << "warning: cannot write " << prom_path << "\n";
    return;
  }
  prom_out << registry.Export(MetricsRegistry::ExportFormat::kPrometheus);
  std::cout << "(wrote " << path << " and " << prom_path << ")\n";
}

void RunSequenceFigure(Metric metric, const Flags& flags,
                       const std::string& figure_name) {
  SetCsvOutput(flags.GetBool("csv", false));
  SetJsonOutput(flags.GetBool("json", true));
  const Scale scale = ScaleFromFlags(flags);
  SweepOptions options;
  options.algorithms = {"swr", "swor", "swor-all", "lm-fd", "ds-fd", "di-fd"};
  options.ells = SweepSizes(flags);
  // Update-cost figures skip the expensive exact-window error evaluation.
  options.num_checkpoints = static_cast<size_t>(
      flags.GetInt("checkpoints", metric == Metric::kUpdateNs ? 2 : 6));
  options.with_best = metric != Metric::kUpdateNs;
  options.measure_time = true;
  // Concurrent cells would contend for cores and skew per-row timings.
  options.parallel_cells = metric != Metric::kUpdateNs;
  options.fd_buffer_factor = flags.GetDouble("fd_buffer", 1.0);
  options.ds_snapshots_per_window = static_cast<size_t>(
      std::max<long long>(0, flags.GetInt("ds_snapshots", 0)));
  options.ds_snapshot_trunc = flags.GetDouble("ds_trunc", 0.25);
  options.ds_frame_ell_factor =
      std::max(1.0, flags.GetDouble("ds_frame_ell", 1.5));
  options.ds_fd_buffer_factor =
      std::max(1.0, flags.GetDouble("ds_fd_buffer", 3.0));
  options.batch_rows =
      static_cast<size_t>(std::max<long long>(1, flags.GetInt("batch", 1)));
  options.parallel_ingest = flags.GetBool("parallel_ingest", false);
  options.query_every = static_cast<size_t>(
      std::max<long long>(0, flags.GetInt("query_every", 0)));
  options.shards = static_cast<size_t>(
      std::max<long long>(1, flags.GetInt("shards", 1)));
  options.shard_block_rows = static_cast<size_t>(
      std::max<long long>(1, flags.GetInt("shard_block", 256)));
  // Sharded cells own S writer threads each; concurrent cells on top of
  // that would oversubscribe every core and skew timings.
  if (options.shards > 1) options.parallel_cells = false;

  const std::string only = flags.GetString("dataset", "all");
  std::vector<Workload> workloads;
  if (only == "all" || only == "synthetic") workloads.push_back(MakeSynthetic(scale));
  if (only == "all" || only == "bibd") workloads.push_back(MakeBibd(scale));
  if (only == "all" || only == "pamap") workloads.push_back(MakePamap(scale));

  const char* panel = "abc";
  for (size_t i = 0; i < workloads.size(); ++i) {
    auto points = RunSweep(workloads[i], options);
    PrintFigure(figure_name + "(" + std::string(1, panel[i % 3]) + "): " +
                    workloads[i].name,
                workloads[i], points, metric);
  }
  MaybeWriteMetrics(flags);
}

void RunTimeFigure(Metric metric, const Flags& flags,
                   const std::string& figure_name) {
  SetCsvOutput(flags.GetBool("csv", false));
  SetJsonOutput(flags.GetBool("json", true));
  const Scale scale = ScaleFromFlags(flags);
  SweepOptions options;
  options.algorithms = {"swr", "swor", "lm-fd", "ds-fd"};
  options.ells = SweepSizes(flags);
  options.num_checkpoints = static_cast<size_t>(
      flags.GetInt("checkpoints", metric == Metric::kUpdateNs ? 2 : 6));
  options.with_best = metric != Metric::kUpdateNs;
  options.parallel_cells = metric != Metric::kUpdateNs;
  options.fd_buffer_factor = flags.GetDouble("fd_buffer", 1.0);
  options.ds_snapshots_per_window = static_cast<size_t>(
      std::max<long long>(0, flags.GetInt("ds_snapshots", 0)));
  options.ds_snapshot_trunc = flags.GetDouble("ds_trunc", 0.25);
  options.ds_frame_ell_factor =
      std::max(1.0, flags.GetDouble("ds_frame_ell", 1.5));
  options.ds_fd_buffer_factor =
      std::max(1.0, flags.GetDouble("ds_fd_buffer", 3.0));
  options.batch_rows =
      static_cast<size_t>(std::max<long long>(1, flags.GetInt("batch", 1)));
  options.parallel_ingest = flags.GetBool("parallel_ingest", false);
  options.query_every = static_cast<size_t>(
      std::max<long long>(0, flags.GetInt("query_every", 0)));
  options.shards = static_cast<size_t>(
      std::max<long long>(1, flags.GetInt("shards", 1)));
  options.shard_block_rows = static_cast<size_t>(
      std::max<long long>(1, flags.GetInt("shard_block", 256)));
  if (options.shards > 1) options.parallel_cells = false;

  const std::string only = flags.GetString("dataset", "all");
  std::vector<Workload> workloads;
  if (only == "all" || only == "wiki") workloads.push_back(MakeWiki(scale));
  if (only == "all" || only == "rail") workloads.push_back(MakeRail(scale));

  const char* panel = "ab";
  for (size_t i = 0; i < workloads.size(); ++i) {
    auto points = RunSweep(workloads[i], options);
    PrintFigure(figure_name + "(" + std::string(1, panel[i % 2]) + "): " +
                    workloads[i].name,
                workloads[i], points, metric);
  }
  MaybeWriteMetrics(flags);
}

}  // namespace bench
}  // namespace swsketch

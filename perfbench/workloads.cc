#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string_view>
#include <thread>

#include "amm/amm_sketch.h"
#include "core/factory.h"
#include "data/rail.h"
#include "data/synthetic.h"
#include "distributed/sharded_sketch.h"
#include "eval/cov_err.h"
#include "service/tenant_manager.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/random.h"

namespace perfbench {

using namespace swsketch;

namespace {

// What the benchmark times. Where one load thread does all the work and
// never blocks (seq-ingest, time-query, keyed-tenants), every end-to-end
// figure is CPU time: a call's latency is the calling thread's CPU time
// across it, rows_per_s and setup_s count the process's CPU. That is the
// wall time of an idle host, without the stretches a shared host's other
// guests take from the vCPUs (steal): the wall-clock figures of identical
// runs moved by up to 30% from run to run, their CPU time by about 1%.
// Where the workload's cost includes waiting for other threads
// (sharded-ingest: back-pressure and flush waits on the shard writers),
// every figure is wall-clock time, so the waits are in it. Spans are
// wall-clock everywhere.
//
// Set-up is repeated and its median reported, so work moved into set-up
// shows without one slow construction deciding the number.
constexpr int kSetupRepeats = 21;

// A traced run switches tracing on in every other one of this many
// segments of the timed phase, so traced and untraced segments share the
// host and the system's state.
constexpr int kSegments = 20;

// Host speed is re-measured (Yardstick) before each set-up and this often
// during the timed phase.
constexpr int64_t kCalibrateEveryNs = 250'000'000;
// Duration of one yardstick pass at the reference host speed.
constexpr int64_t kYardstickRefNs = 500'000;

const std::vector<std::string> kCoreSlugs = {"lm_fd", "di_fd", "ds_fd",
                                             "swor",  "swr",   "amm_lm_fd"};

// Registry counters read around each direct call into a core backend and
// attributed to it; they lead the phase probe, so a delta vector indexes
// the same way.
const std::vector<std::string> kCallCounters = {
    "lm_fd.blocks_closed",   "lm_fd.level_merges",    "lm_fd.cold_merges",
    "lm_fd.queries",         "lm_fd.query_cache_hits", "lm_fd.merge_cache_hits",
    "lm_fd.merge_cache_misses", "di_fd.cover_cache_hits",
    "di_fd.cover_cache_misses", "ds_fd.snapshots_taken", "ds_fd.queries",
    "ds_fd.query_cache_hits", "swr.front_expiries",    "swor.front_expiries"};

// Read only at the edges of traced segments.
const std::vector<std::string> kPhaseCounters = {
    "fd.appends",
    "fd.shrinks",
    "fd.eigen_route_jacobi",
    "fd.eigen_route_tridiag",
    "amm.product_queries",
    "amm.product_cache_hits",
    "tenant_manager.rows_ingested",
    "tenant_manager.keyed_groups",
    "tenant_manager.spills",
    "tenant_manager.reloads",
    "tenant_manager.spill_compactions",
    "sharded_lm_fd.reduce_merges",
    "sharded_di_fd.reduce_merges"};
const std::vector<std::string> kPhaseHistogramSums = {
    "sharded_lm_fd.block_apply_ns", "sharded_di_fd.block_apply_ns"};

std::string Slug(const std::string& algo) { return MetricScope::Slug(algo); }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

bool AllFinite(const Matrix& m) {
  for (double v : m.Data()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.Data().data(), b.Data().data(),
                     a.Data().size() * sizeof(double)) == 0;
}

uint64_t HashMatrix(const Matrix& m) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  };
  const size_t shape[2] = {m.rows(), m.cols()};
  mix(shape, sizeof(shape));
  mix(m.Data().data(), m.Data().size() * sizeof(double));
  return h;
}

// Peak resident set so far (getrusage maxrss), in MiB.
double MaxRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Restricts the calling thread to the CPU it runs on now.
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// A fixed piece of dense floating-point work that does not depend on the
// library: the Gram of a 128 x 160 matrix, the kind of kernel an FD shrink
// runs. Timing it tells how fast the host runs right now.
class Yardstick {
 public:
  Yardstick() : a_(kRows * kCols), gram_(kCols * kCols) {
    for (size_t i = 0; i < a_.size(); ++i) {
      a_[i] = std::sin(0.37 * static_cast<double>(i + 1));
    }
  }

  // Best of kRepeats passes, in ns of the thread's CPU time (`cpu`) or of
  // wall time.
  int64_t Measure(bool cpu) {
    int64_t best = 0;
    for (int r = 0; r < kRepeats; ++r) {
      const int64_t t0 = cpu ? ThreadCpuNs() : NowNs();
      Pass();
      const int64_t t = (cpu ? ThreadCpuNs() : NowNs()) - t0;
      if (r == 0 || t < best) best = t;
    }
    return std::max<int64_t>(best, 1);
  }

  double sink() const { return sink_; }

 private:
  static constexpr size_t kRows = 128;
  static constexpr size_t kCols = 160;
  static constexpr int kRepeats = 3;

  void Pass() {
    std::fill(gram_.begin(), gram_.end(), 0.0);
    for (size_t r = 0; r < kRows; ++r) {
      const double* row = &a_[r * kCols];
      for (size_t i = 0; i < kCols; ++i) {
        double* g = &gram_[i * kCols];
        const double ri = row[i];
        for (size_t j = 0; j <= i; ++j) g[j] += ri * row[j];
      }
    }
    sink_ += gram_[kCols * kCols - 1];
  }

  std::vector<double> a_;
  std::vector<double> gram_;
  double sink_ = 0.0;
};

// A generated stream, held once as `batch`-row matrices and cycled: global
// row g is pool row g % n stamped ts[g % n] + (g / n) * period, so
// timestamps keep increasing however long a run lasts while generation
// stays outside the timed phase.
struct Pool {
  std::vector<Matrix> batches;
  size_t batch = 1;
  std::vector<double> ts;
  double period = 0.0;

  size_t n() const { return ts.size(); }
  size_t dim() const { return batches.front().cols(); }
  double Ts(uint64_t g) const {
    return ts[g % n()] + static_cast<double>(g / n()) * period;
  }
  std::span<const double> Row(uint64_t g) const {
    const size_t i = g % n();
    return batches[i / batch].Row(i % batch);
  }
};

// `rows` must be a multiple of `batch`.
Pool Drain(RowStream* stream, size_t rows, size_t batch) {
  Pool pool;
  pool.batch = batch;
  while (pool.n() < rows) {
    auto row = stream->Next();
    if (!row.has_value()) Die("generator ran dry");
    if (pool.n() % batch == 0) {
      pool.batches.emplace_back(0, stream->dim());
      pool.batches.back().ReserveRows(batch);
    }
    pool.batches.back().AppendRow(row->view());
    pool.ts.push_back(row->ts);
  }
  return pool;
}

// The most rows any window of the cycled pool holds.
size_t MaxWindowRows(const Pool& pool, const WindowSpec& spec) {
  size_t most = 0;
  uint64_t first = 0;
  for (uint64_t last = 0; last < 2 * pool.n(); ++last) {
    while (!spec.Contains(pool.Ts(first), pool.Ts(last))) ++first;
    most = std::max<size_t>(most, last - first + 1);
  }
  return most;
}

// The checker's exact window, in buffers allocated (and touched) before
// timing starts, so checkpoints do not move the peak RSS.
class ExactWindow {
 public:
  ExactWindow() = default;
  ExactWindow(const Pool& pool, const WindowSpec& spec)
      : spec_(spec),
        rows_(MaxWindowRows(pool, spec), pool.dim()),
        gram_(pool.dim(), pool.dim()) {
    rows_.TruncateRows(0);
  }

  // Gram of the window that ends at global row `last` (inclusive); its
  // squared Frobenius norm goes to *frob_sq.
  const Matrix& GramAt(const Pool& pool, uint64_t last, double* frob_sq) {
    const double now = pool.Ts(last);
    rows_.TruncateRows(0);
    for (uint64_t g = last + 1; g-- > 0;) {
      if (!spec_.Contains(pool.Ts(g), now)) break;
      rows_.AppendRow(pool.Row(g));
    }
    rows_.GramInto(&gram_);
    *frob_sq = rows_.FrobeniusNormSq();
    return gram_;
  }

 private:
  WindowSpec spec_ = WindowSpec::Sequence(1);
  Matrix rows_;
  Matrix gram_;
};

// DI level count as the figure binaries derive it (L ~ log2(R ell / 2)).
size_t DiLevels(double norm_ratio, size_t ell) {
  const double l =
      std::log2(std::max(2.0, norm_ratio * static_cast<double>(ell) / 2.0));
  return std::clamp<size_t>(static_cast<size_t>(std::lround(l)), 2, 12);
}

SketchConfig ConfigFor(const std::string& algo, size_t ell,
                       const DatasetInfo& info, double avg_norm_sq,
                       uint64_t seed) {
  SketchConfig config;
  config.algorithm = algo;
  config.ell = ell;
  config.max_norm_sq = info.max_norm_sq;
  config.levels = DiLevels(info.norm_ratio_hint, ell);
  config.lm_block_capacity = static_cast<double>(ell) * avg_norm_sq;
  config.seed = seed;
  return config;
}

// One sketch the workload drives, with what the traced run attributes to
// it. For sharded-ingest the sketch is the ShardedSketch over the backend.
struct Backend {
  std::string algo;
  std::string slug;
  double envelope = 0.0;
  std::unique_ptr<SlidingWindowSketch> sketch;
  AmmSketch* amm = nullptr;  // Non-null: queries go through QueryProduct.
  // False when the workload reaches the backend through another layer
  // (shards), so its registry deltas cover all traced segments.
  bool direct = true;
  std::string update_span;
  std::string query_span;
  std::string flush_span;

  // Traced segments only.
  int64_t update_ns = 0;
  uint64_t update_rows = 0;
  std::vector<double> query_us;
  std::vector<int64_t> deltas;  // kCallCounters deltas of this backend.

  // Whole run.
  std::vector<double> errs;
  double rows_stored_max = 0.0;
};

class Workload {
 public:
  explicit Workload(const Options& options) : options_(options) {
    call_probe_.AddHistogramSum("fd.shrink_ns");
    for (const auto& name : kCallCounters) phase_probe_.AddCounter(name);
    for (const auto& name : kPhaseCounters) phase_probe_.AddCounter(name);
    phase_probe_.AddHistogramSum("fd.shrink_ns");
    for (const auto& name : kPhaseHistogramSums) {
      phase_probe_.AddHistogramSum(name);
    }
    phase_shrink_at_ = phase_probe_.Index("fd.shrink_ns");
    phase_delta_.assign(phase_probe_.size(), 0);
  }
  virtual ~Workload() = default;

  Outcome Execute();

 protected:
  struct Phase {
    // Checker work excluded. `clock_ns` is on the workload's clock (process
    // CPU or wall, see cpu_clock_); rates use it.
    int64_t wall_ns = 0;
    int64_t clock_ns = 0;
    uint64_t rows = 0;
    // Traced runs only: what the traced segments ingested, their wall and
    // their time on the workload's clock.
    uint64_t traced_rows = 0;
    int64_t traced_wall_ns = 0;
    int64_t traced_clock_ns = 0;
  };

  // Checker work inside set-up or a timed phase runs under a Pause, which
  // takes its time out of both and, while tracing, the registry counts it
  // causes out of the traced segments' deltas.
  class Pause {
   public:
    explicit Pause(Workload* w)
        : w_(w), start_(NowNs()), start_clock_(w->ClockNs()) {
      if (w_->tracing()) before_ = w_->phase_probe_.Read();
    }
    ~Pause() {
      w_->paused_ns_ += NowNs() - start_;
      w_->paused_clock_ns_ += w_->ClockNs() - start_clock_;
      if (before_.empty()) return;
      const std::vector<int64_t> after = w_->phase_probe_.Read();
      for (size_t i = 0; i < after.size(); ++i) {
        w_->phase_delta_[i] -= after[i] - before_[i];
      }
    }
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;

   private:
    Workload* w_;
    int64_t start_;
    int64_t start_clock_;
    std::vector<int64_t> before_;
  };

  virtual void Generate() = 0;
  /// Builds the system anew and ingests its first full window.
  virtual void Setup() = 0;
  /// One closed-loop step of the load thread; returns the stream rows it ingested.
  virtual uint64_t Step() = 0;
  /// Checks that need the whole run (twins); runs paused.
  virtual void Finish() {}
  /// Workload-specific per-layer metrics of the traced segments.
  virtual void FillLayer(std::map<std::string, double>*) {}
  /// Called as each traced segment begins and ends.
  virtual void OnTrace(bool /*begin*/) {}

  bool tracing() const { return tracer_.enabled(); }

  /// An operation that has no answer to check (an ingest call).
  void Attempt() { ++attempted_; }

  /// One attempted operation; a false `ok` counts it as failed.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(what);
  }

  // A checkpoint records each backend's error and size (Record), then ends
  // with the summed size (EndCheckpoint). Only the first
  // reported_checkpoints_ checkpoints of the timed phase go into the
  // reported errors and sizes, so those do not depend on how far a run
  // gets; every checkpoint is held to the envelopes.
  void CheckErr(Backend* b, double err, double rows, const std::string& where) {
    Record(b, err, rows);
    CheckEnvelope(*b, err, where);
  }
  void Record(Backend* b, double err, double rows) {
    if (checkpoints_ >= reported_checkpoints_) return;
    b->errs.push_back(err);
    errs_.push_back(err);
    b->rows_stored_max = std::max(b->rows_stored_max, rows);
  }
  void EndCheckpoint(double stored) {
    if (checkpoints_++ >= reported_checkpoints_) return;
    rows_stored_max_ = std::max(rows_stored_max_, stored);
  }
  void CheckEnvelope(const Backend& b, double err, const std::string& where) {
    Check(std::isfinite(err) && err <= b.envelope,
          b.algo + " cova-err " + std::to_string(err) + " above envelope " +
              std::to_string(b.envelope) + " at " + where);
  }

  double Envelope(const std::string& algo) const {
    auto it = options_.envelopes.find(algo);
    if (it == options_.envelopes.end()) Die("no error envelope for " + algo);
    return it->second;
  }

  Backend MakeBackend(const std::string& algo, const SketchConfig& config,
                      size_t dim, const WindowSpec& spec) {
    Backend b;
    b.algo = algo;
    b.slug = Slug(algo);
    b.envelope = Envelope(algo);
    auto made = MakeSlidingWindowSketch(dim, spec, config);
    if (!made.ok()) Die(algo + ": " + made.status().ToString());
    b.sketch = made.take();
    b.amm = dynamic_cast<AmmSketch*>(b.sketch.get());
    b.update_span = "core." + b.slug + ".UpdateBatch";
    b.query_span = "core." + b.slug + ".Query";
    return b;
  }

  void BeginStep(const char* name) {
    ++step_id_;
    step_span_ = tracer_.Begin(name, -1, step_id_);
  }
  void EndStep() {
    tracer_.End(step_span_);
    step_span_ = -1;
  }

  // A duration on the workload's clock, in ns at the reference host speed.
  int64_t Normalize(int64_t ns) const {
    return std::llround(static_cast<double>(ns) * speed_);
  }

  // Runs fn() as one call into a layer and returns its latency in ns: the
  // calling thread's CPU time across it if cpu_clock_, else its wall time,
  // normalized to the reference host speed.
  // When tracing it records a (wall-clock) span under the current step,
  // adds the kCallCounters deltas the call caused to *deltas (if given),
  // and turns FD shrink time inside the call into a "sketch.fd.shrink"
  // child.
  template <typename F>
  int64_t Call(std::string_view span, std::vector<int64_t>* deltas, F&& fn) {
    const RegistryProbe& probe = deltas ? phase_probe_ : call_probe_;
    std::vector<int64_t> before;
    if (tracing()) before = probe.Read();
    const int64_t t0 = NowNs();
    const int64_t c0 = cpu_clock_ ? ThreadCpuNs() : 0;
    fn();
    const int64_t c1 = cpu_clock_ ? ThreadCpuNs() : 0;
    const int64_t t1 = NowNs();
    const int64_t latency = Normalize(cpu_clock_ ? c1 - c0 : t1 - t0);
    if (!tracing()) return latency;
    const std::vector<int64_t> after = probe.Read();
    const int32_t id = tracer_.Add(span, step_span_, step_id_, t0, t1);
    const size_t shrink_at = deltas ? phase_shrink_at_ : 0;
    const int64_t shrink = after[shrink_at] - before[shrink_at];
    last_shrink_ns_ = Normalize(shrink);
    if (shrink > 0 && shrink_children_) {
      tracer_.Add("sketch.fd.shrink", id, step_id_, t0, t0 + shrink);
    }
    if (deltas != nullptr) {
      deltas->resize(kCallCounters.size());
      for (size_t i = 0; i < kCallCounters.size(); ++i) {
        (*deltas)[i] += after[i] - before[i];
      }
    }
    return latency;
  }

  // --- Shared loops for workloads that call core backends directly.

  // Feeds one batch to every backend, one timed call each. The step's
  // latency is the sum over backends: the closed loop's next step waits for
  // all of them, and pooling per-call samples of backends with disjoint
  // latency ranges would put the median on a gap between them.
  void IngestAll(const Matrix& rows, std::span<const double> ts) {
    BeginStep("bench.step.ingest");
    int64_t step_ns = 0;
    for (Backend& b : backends_) {
      const int64_t ns = Call(b.update_span, &b.deltas,
                              [&] { b.sketch->UpdateBatch(rows, ts); });
      step_ns += ns;
      if (tracing()) {
        b.update_ns += ns;
        b.update_rows += rows.rows();
        ingest_ns_ += ns;
        ingest_shrink_ns_ += last_shrink_ns_;
      }
      Attempt();
    }
    EndStep();
    ingest_us_.push_back(static_cast<double>(step_ns) * 1e-3);
  }

  // AdvanceTo(now) (time windows only) + Query on every backend, one timed
  // call each; QueryProduct for AMM backends. The step's latency is the
  // sum, as for IngestAll. Returns the answers when `keep` is set.
  std::vector<Matrix> QueryAll(double now, bool advance, bool keep) {
    std::vector<Matrix> answers(backends_.size());
    int64_t step_ns = 0;
    BeginStep("bench.step.query");
    for (size_t i = 0; i < backends_.size(); ++i) {
      Backend& b = backends_[i];
      Matrix answer;
      int64_t ns = 0;
      if (b.amm != nullptr) {
        ns = Call("core." + b.slug + ".AdvanceTo", &b.deltas,
                  [&] { b.sketch->AdvanceTo(now); });
        const int64_t product_ns = Call("amm.QueryProduct", &b.deltas, [&] {
          answer = b.amm->QueryProduct();
        });
        ns += product_ns;
        if (tracing()) amm_product_us_.push_back(product_ns * 1e-3);
      } else {
        ns = Call(b.query_span, &b.deltas, [&] {
          if (advance) b.sketch->AdvanceTo(now);
          answer = b.sketch->Query();
        });
      }
      step_ns += ns;
      if (tracing()) b.query_us.push_back(static_cast<double>(ns) * 1e-3);
      Check(AllFinite(answer), b.algo + " query answer is not finite");
      if (keep) answers[i] = std::move(answer);
    }
    EndStep();
    query_us_.push_back(static_cast<double>(step_ns) * 1e-3);
    return answers;
  }

  // Paused: cova-err of every backend against the exact window ending at
  // global row `last`; AMM backends are scored on their stacked sketch.
  void ErrorCheckpoint(const Pool& pool, uint64_t last,
                       std::vector<Matrix>* answers) {
    Pause pause(this);
    double frob_sq = 0.0;
    const Matrix& gram = exact_.GramAt(pool, last, &frob_sq);
    if (frob_sq <= 0.0) return;
    double stored = 0.0;
    for (size_t i = 0; i < backends_.size(); ++i) {
      Backend& b = backends_[i];
      if (b.amm != nullptr) (*answers)[i] = b.sketch->Query();
      const double rows = static_cast<double>(b.sketch->RowsStored());
      CheckErr(&b, CovarianceError(gram, frob_sq, (*answers)[i]), rows,
               "row " + std::to_string(last));
      stored += rows;
    }
    EndCheckpoint(stored);
  }

  const Backend* FindBackend(const std::string& slug) const {
    for (const Backend& b : backends_) {
      if (b.slug == slug) return &b;
    }
    return nullptr;
  }

  // Delta of a kCallCounters entry: attributed to the backend's own calls
  // when the workload calls that backend directly, otherwise everything in
  // the traced segments (tenants, shards).
  double CoreDelta(const std::string& slug, const std::string& counter) const {
    const std::string name = slug + "." + counter;
    const Backend* b = FindBackend(slug);
    if (b != nullptr && b->direct) {
      return static_cast<double>(b->deltas[phase_probe_.Index(name)]);
    }
    return b != nullptr || backends_.empty() ? PhaseDelta(name) : 0.0;
  }

  double PhaseDelta(const std::string& name) const {
    const size_t i = phase_probe_.Index(name);
    return i < phase_delta_.size() ? static_cast<double>(phase_delta_[i]) : 0.0;
  }

  const Options options_;
  Tracer tracer_;
  bool shrink_children_ = true;  // False when shrinks run on other threads.
  // Whether the end-to-end figures are CPU time (true: the load thread
  // does all the work and never waits) or wall time (false: the workload
  // waits for threads of its own). See the note at the top of this file.
  bool cpu_clock_ = true;
  // Percentile levels of the ingest and query tails: fixed per workload,
  // each leaving at least ten samples beyond it in a run of the length
  // BENCHMARK.json sets.
  double ingest_tail_ = 0.99;
  double query_tail_ = 0.99;
  // Checkpoints whose errors and sizes are reported: fixed per workload,
  // and reached well within a run of the length BENCHMARK.json sets.
  uint64_t reported_checkpoints_ = 0;
  uint64_t checkpoints_ = 0;  // Checkpoints so far.
  std::vector<Backend> backends_;
  ExactWindow exact_;  // Error checkpoints of pool workloads.

  std::vector<double> ingest_us_;
  std::vector<double> query_us_;
  std::vector<double> errs_;
  std::vector<double> amm_product_us_;
  double rows_stored_max_ = 0.0;
  // Traced time in ingest calls (core UpdateBatch, UpdateKeyed) and the
  // FD shrink time inside them.
  int64_t ingest_ns_ = 0;
  int64_t ingest_shrink_ns_ = 0;
  int64_t last_shrink_ns_ = 0;  // Shrink time inside the last traced Call.

 private:
  Phase RunPhase(double seconds);
  void SetTracing(bool on);
  // Now on the workload's clock: process CPU time if cpu_clock_, else wall.
  int64_t ClockNs() const { return cpu_clock_ ? ProcessCpuNs() : NowNs(); }
  // Paused: times the yardstick and sets speed_ from it.
  void Calibrate() {
    Pause pause(this);
    const int64_t ns = yardstick_.Measure(cpu_clock_);
    speed_ = static_cast<double>(kYardstickRefNs) / static_cast<double>(ns);
    yardstick_ns_.push_back(static_cast<double>(ns));
  }

  Yardstick yardstick_;
  // Reference duration of a yardstick pass over the host's current one, as
  // of the last Calibrate(); durations are multiplied by it.
  double speed_ = 1.0;
  std::vector<double> yardstick_ns_;

  RegistryProbe call_probe_;
  RegistryProbe phase_probe_;
  size_t phase_shrink_at_ = 0;
  std::vector<int64_t> phase_before_;
  // Summed over traced segments, less what paused checker work caused.
  std::vector<int64_t> phase_delta_;
  int64_t paused_ns_ = 0;
  int64_t paused_clock_ns_ = 0;
  int32_t step_span_ = -1;
  uint64_t step_id_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

Workload::Phase Workload::RunPhase(double seconds) {
  Phase phase;
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  const int64_t segment = std::max<int64_t>(budget / kSegments, 1000000);
  Calibrate();
  const int64_t start = NowNs();
  const int64_t start_clock = ClockNs();
  const int64_t paused0 = paused_ns_;
  const int64_t paused_clock0 = paused_clock_ns_;
  int64_t segment_start = 0;
  int64_t segment_start_clock = 0;
  uint64_t segment_rows = 0;
  // Normalized clock time before the current calibration interval, and
  // where on the raw clock that interval began.
  int64_t normalized = 0;
  int64_t interval_start = 0;
  int64_t next_calibration = kCalibrateEveryNs;
  for (;;) {
    // Wall time bounds the phase and its segments; rates use the
    // normalized clock. Only traced runs use segments: tracing is on in
    // every other one.
    const int64_t timed = NowNs() - start - (paused_ns_ - paused0);
    const int64_t raw =
        ClockNs() - start_clock - (paused_clock_ns_ - paused_clock0);
    const int64_t clock = normalized + Normalize(raw - interval_start);
    if (timed >= next_calibration) {
      static uint64_t last_rows = 0;  // DIAG
      if (std::getenv("PB_DUMP")) std::fprintf(stderr, "DUMP %llu %lld %lld\n", (unsigned long long)(phase.rows - last_rows), (long long)(raw - interval_start), (long long)yardstick_ns_.back());
      last_rows = phase.rows;
      normalized = clock;
      interval_start = raw;
      next_calibration = timed + kCalibrateEveryNs;
      Calibrate();
    }
    if (timed - segment_start >= segment || timed >= budget) {
      if (tracing()) {
        phase.traced_rows += segment_rows;
        phase.traced_wall_ns += timed - segment_start;
        phase.traced_clock_ns += clock - segment_start_clock;
      }
      segment_start = timed;
      segment_start_clock = clock;
      segment_rows = 0;
      if (options_.trace) SetTracing(!tracing() && timed < budget);
    }
    if (timed >= budget) {
      phase.wall_ns = timed;
      phase.clock_ns = clock;
      break;
    }
    const uint64_t rows = Step();
    segment_rows += rows;
    phase.rows += rows;
  }
  return phase;
}

void Workload::SetTracing(bool on) {
  if (on == tracing()) return;
  if (on) {
    tracer_.set_enabled(true);
    OnTrace(true);
    phase_before_ = phase_probe_.Read();
    return;
  }
  const std::vector<int64_t> after = phase_probe_.Read();
  for (size_t i = 0; i < after.size(); ++i) {
    phase_delta_[i] += after[i] - phase_before_[i];
  }
  OnTrace(false);
  tracer_.set_enabled(false);
}

Outcome Workload::Execute() {
  // One pool worker, so ParallelFor (LM cold merges, Gram kernels) runs
  // inline on the calling thread and the caller's CPU clock sees all of a
  // call's work. Results are identical at any pool size.
  const size_t pool_threads = 1;
  ThreadPool::SetDefaultThreadCount(pool_threads);
  // A single-threaded workload stays on the CPU it starts on, so every
  // yardstick pass times the CPU that runs the calls it normalizes: the
  // vCPUs of a shared host run at different speeds, and a thread the
  // scheduler moves between them would be normalized by another CPU's.
  if (cpu_clock_) PinToCurrentCpu();

  const int64_t gen_start = NowNs();
  Generate();
  const double gen_s = static_cast<double>(NowNs() - gen_start) * 1e-9;
  // The inputs (and the checker's buffers) are resident from here on;
  // peak_rss_mib is what the system adds on top of them.
  const double inputs_rss_mib = MaxRssMib();

  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Calibrate();
    const int64_t paused0 = paused_clock_ns_;
    const int64_t start = ClockNs();
    Setup();
    setup_s.push_back(static_cast<double>(Normalize(
                          ClockNs() - start - (paused_clock_ns_ - paused0))) *
                      1e-9);
  }

  for (Backend& b : backends_) b.deltas.assign(kCallCounters.size(), 0);
  const Phase main = RunPhase(options_.seconds);
  const double peak_rss_mib = MaxRssMib() - inputs_rss_mib;
  {
    Pause pause(this);
    Finish();
  }

  Outcome out;
  out.attempted = attempted_;
  out.failed = failed_;
  out.failures = failures_;
  auto& m = out.metrics;
  if (!options_.trace) {
    const double ok = 1.0 - Ratio(static_cast<double>(failed_),
                                  static_cast<double>(attempted_));
    m["setup_s"] = Quantile(setup_s, 0.5);
    m["rows_per_s"] = Ratio(static_cast<double>(main.rows) * 1e9,
                            static_cast<double>(main.clock_ns));
    m["ingest_batch_us_p50"] = Quantile(ingest_us_, 0.5);
    m["ingest_batch_us_p99"] = Quantile(ingest_us_, ingest_tail_);
    m["query_us_p50"] = Quantile(query_us_, 0.5);
    m["query_us_p99"] = Quantile(query_us_, query_tail_);
    m["avg_err"] = Mean(errs_);
    m["max_err"] =
        errs_.empty() ? 0.0 : *std::max_element(errs_.begin(), errs_.end());
    m["rows_stored_max"] = rows_stored_max_;
    m["peak_rss_mib"] = peak_rss_mib;
    m["ok_ops_frac"] = ok;
    std::fprintf(stderr,
                 "perfbench: %s samples: %zu ingest steps (tail p%.4g), %zu "
                 "query steps (tail p%.4g), %zu error checkpoints; set-up "
                 "%.3f-%.3f s; inputs %.1f MiB resident, %zu pool threads; "
                 "%s clock; %.6g rows per wall second; yardstick "
                 "%.0f/%.0f/%.0f ns (min/median/max of %zu)\n",
                 options_.workload.c_str(), ingest_us_.size(),
                 100 * ingest_tail_, query_us_.size(), 100 * query_tail_,
                 errs_.size(), Quantile(setup_s, 0.0), Quantile(setup_s, 1.0),
                 inputs_rss_mib, pool_threads, cpu_clock_ ? "CPU" : "wall",
                 Ratio(static_cast<double>(main.rows) * 1e9,
                       static_cast<double>(main.wall_ns)),
                 Quantile(yardstick_ns_, 0.0), Quantile(yardstick_ns_, 0.5),
                 Quantile(yardstick_ns_, 1.0), yardstick_ns_.size());
    return out;
  }

  for (const auto& [name, unit] : PerLayerMetrics()) m[name] = 0.0;
  for (const Backend& b : backends_) {
    const std::string p = "core." + b.slug + ".";
    m[p + "update_ns_per_row"] = Ratio(static_cast<double>(b.update_ns),
                                       static_cast<double>(b.update_rows));
    m[p + "query_us_p50"] = Quantile(b.query_us, 0.5);
    m[p + "rows_stored_max"] = b.rows_stored_max;
    m[p + "avg_err"] = Mean(b.errs);
  }
  m["core.lm_fd.blocks_closed"] = CoreDelta("lm_fd", "blocks_closed");
  m["core.lm_fd.level_merges"] = CoreDelta("lm_fd", "level_merges");
  m["core.lm_fd.cold_merges"] = CoreDelta("lm_fd", "cold_merges");
  m["core.lm_fd.query_cache_hit_frac"] = Ratio(
      CoreDelta("lm_fd", "query_cache_hits"), CoreDelta("lm_fd", "queries"));
  m["core.lm_fd.merge_cache_hit_frac"] =
      Ratio(CoreDelta("lm_fd", "merge_cache_hits"),
            CoreDelta("lm_fd", "merge_cache_hits") +
                CoreDelta("lm_fd", "merge_cache_misses"));
  m["core.di_fd.cover_cache_hit_frac"] =
      Ratio(CoreDelta("di_fd", "cover_cache_hits"),
            CoreDelta("di_fd", "cover_cache_hits") +
                CoreDelta("di_fd", "cover_cache_misses"));
  m["core.ds_fd.snapshots_taken"] = CoreDelta("ds_fd", "snapshots_taken");
  m["core.ds_fd.query_cache_hit_frac"] = Ratio(
      CoreDelta("ds_fd", "query_cache_hits"), CoreDelta("ds_fd", "queries"));
  m["core.swr.front_expiries"] = CoreDelta("swr", "front_expiries");
  m["core.swor.front_expiries"] = CoreDelta("swor", "front_expiries");

  const double shrink_ns = PhaseDelta("fd.shrink_ns");
  m["sketch.fd.appends"] = PhaseDelta("fd.appends");
  m["sketch.fd.shrinks"] = PhaseDelta("fd.shrinks");
  m["sketch.fd.shrink_ms"] = shrink_ns * 1e-6;
  m["sketch.fd.shrink_share"] = Ratio(static_cast<double>(ingest_shrink_ns_),
                                      static_cast<double>(ingest_ns_));
  m["linalg.eigen_jacobi"] = PhaseDelta("fd.eigen_route_jacobi");
  m["linalg.eigen_tridiag"] = PhaseDelta("fd.eigen_route_tridiag");
  m["amm.product_us_p50"] = Quantile(amm_product_us_, 0.5);
  m["amm.product_cache_hit_frac"] =
      Ratio(PhaseDelta("amm.product_cache_hits"),
            PhaseDelta("amm.product_queries"));

  const double traced_wall = static_cast<double>(main.traced_wall_ns);
  const double untraced_rate =
      Ratio(static_cast<double>(main.rows - main.traced_rows),
            static_cast<double>(main.clock_ns - main.traced_clock_ns));
  const double traced_rate =
      Ratio(static_cast<double>(main.traced_rows),
            static_cast<double>(main.traced_clock_ns));
  m["bench.gen_s"] = gen_s;
  m["bench.check_s"] = static_cast<double>(paused_ns_) * 1e-9;
  m["bench.span_coverage_frac"] = Ratio(tracer_.StepChildNs(), traced_wall);
  m["bench.trace_overhead_frac"] =
      traced_rate > 0.0 ? untraced_rate / traced_rate - 1.0 : 0.0;
  m["bench.pool_threads"] =
      static_cast<double>(ThreadPool::Shared().num_threads());
  for (const auto& [layer, ns] : tracer_.SelfNsByLayer()) {
    const std::string key = layer + ".self_ms";
    if (m.count(key)) m[key] = ns * 1e-6;
  }
  FillLayer(&m);
  if (!options_.trace_path.empty() && !tracer_.Write(options_.trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options_.trace_path.c_str());
  }
  std::fprintf(stderr, "perfbench: %s traced %zu spans over %.3f s\n",
               options_.workload.c_str(), tracer_.size(), traced_wall * 1e-9);
  return out;
}

// A workload over one generated stream cut into fixed-size batches.
class PoolWorkload : public Workload {
 public:
  using Workload::Workload;

 protected:
  void SetPool(const DatasetInfo& info, Pool pool, const WindowSpec& spec) {
    info_ = info;
    pool_ = std::move(pool);
    batch_ = pool_.batch;
    double norm_sq = 0.0;
    for (const Matrix& b : pool_.batches) norm_sq += b.FrobeniusNormSq();
    avg_norm_sq_ = norm_sq / static_cast<double>(pool_.n());
    exact_ = ExactWindow(pool_, spec);
  }

  // The batch that starts at global row g; its timestamps go to *ts.
  const Matrix& BatchAt(uint64_t g, std::vector<double>* ts) const {
    ts->resize(batch_);
    for (size_t i = 0; i < batch_; ++i) (*ts)[i] = pool_.Ts(g + i);
    return pool_.batches[(g % pool_.n()) / batch_];
  }

  SketchConfig Config(const std::string& algo, size_t ell) const {
    return ConfigFor(algo, ell, info_, avg_norm_sq_, options_.seed);
  }

  // Feeds the batch at next_ to every backend; timed calls unless in
  // set-up.
  void Feed(bool timed) {
    const Matrix& rows = BatchAt(next_, &ts_);
    if (timed) {
      IngestAll(rows, ts_);
    } else {
      for (Backend& b : backends_) b.sketch->UpdateBatch(rows, ts_);
    }
    next_ += batch_;
  }

  DatasetInfo info_;
  Pool pool_;
  size_t batch_ = 1;
  double avg_norm_sq_ = 0.0;
  std::vector<double> ts_;
  uint64_t next_ = 0;  // Global index of the next row to ingest.
};

// SYNTHETIC (paper Appendix D) rows, shared by seq-ingest and
// sharded-ingest.
struct SyntheticShape {
  size_t dim = 150, signal = 30, window = 3000, ell = 32, pool_rows = 12288,
         batch = 64;
};

Pool SyntheticPool(const SyntheticShape& shape, uint64_t seed,
                   DatasetInfo* info) {
  SyntheticStream::Options o;
  o.rows = shape.pool_rows;
  o.dim = shape.dim;
  o.signal_dim = shape.signal;
  o.window = shape.window;
  o.seed = seed;
  SyntheticStream stream(o);
  *info = stream.info();
  Pool pool = Drain(&stream, shape.pool_rows, shape.batch);
  pool.period = static_cast<double>(pool.n());
  return pool;
}

// seq-ingest: 64-row UpdateBatch calls to four sequence-window backends,
// with an error checkpoint (one timed Query per backend) every
// kCheckpointRows rows. FD shrink, eigensolve, the LM cascade, DI fan-out
// and the DS-FD ladder do nearly all the work; the query path almost none.
class SeqIngest : public PoolWorkload {
 public:
  explicit SeqIngest(const Options& options) : PoolWorkload(options) {
    query_tail_ = 0.8;  // About 50 query steps in 15 s.
    reported_checkpoints_ = 24;  // Four passes over the pool.
  }

 protected:
  void Generate() override {
    DatasetInfo info;
    Pool pool = SyntheticPool(shape_, options_.seed, &info);
    SetPool(info, std::move(pool), Spec());
  }

  void Setup() override {
    {
      Pause pause(this);  // Tears down the previous set-up.
      backends_.clear();
    }
    for (const char* algo : {"lm-fd", "di-fd", "ds-fd", "swor"}) {
      backends_.push_back(MakeBackend(algo, Config(algo, shape_.ell),
                                      shape_.dim, Spec()));
    }
    next_ = 0;
    while (next_ < shape_.window) Feed(/*timed=*/false);
  }

  uint64_t Step() override {
    Feed(/*timed=*/true);
    if (next_ % kCheckpointRows == 0) {
      std::vector<Matrix> answers = QueryAll(0.0, /*advance=*/false, true);
      ErrorCheckpoint(pool_, next_ - 1, &answers);
    }
    return batch_;
  }

 private:
  WindowSpec Spec() const { return WindowSpec::Sequence(shape_.window); }

  const SyntheticShape shape_;
  static constexpr size_t kCheckpointRows = 2048;
};

// time-query: RAIL-shaped sparse rows with Poisson arrivals over a time
// window, in 32-row batches, with AdvanceTo(last ts) + Query (QueryProduct
// for amm-lm-fd) on every backend each 128 rows. The query path (merge and
// cover caches, the DS-FD stack eigenproblem, AMM product extraction,
// time expiry) does most of the work.
class TimeQuery : public PoolWorkload {
 public:
  explicit TimeQuery(const Options& options) : PoolWorkload(options) {
    query_tail_ = 0.96;  // 250 to 300 query steps in 15 s.
    reported_checkpoints_ = 6;  // One pass over the pool.
  }

 protected:
  void Generate() override {
    RailStream::Options o;
    o.rows = kPoolRows;
    o.dim = kDim;
    o.window = kDelta;
    o.seed = options_.seed;
    RailStream stream(o);
    Pool pool = Drain(&stream, kPoolRows, kBatch);
    pool.period = pool.ts.back() + o.mean_interarrival;
    SetPool(stream.info(), std::move(pool), Spec());
  }

  void Setup() override {
    {
      Pause pause(this);  // Tears down the previous set-up.
      backends_.clear();
    }
    for (const char* algo : {"lm-fd", "ds-fd", "swr", "amm-lm-fd"}) {
      backends_.push_back(
          MakeBackend(algo, Config(algo, kEll), kDim, Spec()));
    }
    next_ = 0;
    while (pool_.Ts(next_) < kDelta) Feed(/*timed=*/false);
  }

  uint64_t Step() override {
    Feed(/*timed=*/true);
    if (next_ % kQueryRows == 0) {
      const bool checkpoint = next_ % kCheckpointRows == 0;
      std::vector<Matrix> answers =
          QueryAll(pool_.Ts(next_ - 1), /*advance=*/true, checkpoint);
      if (checkpoint) ErrorCheckpoint(pool_, next_ - 1, &answers);
    }
    return batch_;
  }

 private:
  static constexpr size_t kQueryRows = 128;

  WindowSpec Spec() const { return WindowSpec::Time(kDelta); }

  static constexpr size_t kBatch = 32;
  static constexpr size_t kDim = 200;
  static constexpr size_t kEll = 32;
  static constexpr size_t kPoolRows = 12288;
  static constexpr size_t kCheckpointRows = 2048;
  static constexpr double kDelta = 1500.0;
};

// keyed-tenants: tenant_server-shaped U/A/Q traffic into a TenantManager.
// u^2-skewed keys over ~20k tenants, Gaussian rows at d=8, lm-fd ell=8 per
// tenant over a per-tenant time window. Rows go in as 1024-row UpdateKeyed
// batches, each followed by one AdvanceTo+Query per 16 rows on a key drawn
// from the same skew. The memory budget keeps about a third of the tenants
// spilled, so key lookup, grouping, LRU and spill/reload dominate while
// per-tenant sketch math is tiny.
class KeyedTenants : public Workload {
 public:
  explicit KeyedTenants(const Options& options) : Workload(options) {
    tenant_.algo = "lm-fd";
    tenant_.slug = Slug(tenant_.algo);
    tenant_.envelope = Envelope(tenant_.algo);
    reported_checkpoints_ = 32;  // Four passes over the pool.
  }

 protected:
  void Generate() override {
    Rng rng(options_.seed);
    rows_ = Matrix(kPoolRows, kDim);
    const double scale = 1.0 / std::sqrt(static_cast<double>(kDim));
    for (double& v : rows_.Data()) v = scale * rng.Gaussian();
    keys_.resize(kPoolRows);
    for (uint64_t& k : keys_) k = SkewedKey(&rng);
    query_keys_.resize(kPoolRows / kRowsPerQuery);
    for (uint64_t& k : query_keys_) k = SkewedKey(&rng);
    // Twins sit at evenly spaced quantiles of the key skew, the same keys
    // for every seed: hot resident tenants through to cold ones that get
    // spilled and reloaded.
    twin_of_.assign(kTenants, -1);
    twin_keys_.clear();
    for (size_t i = 0; i < kTwins; ++i) {
      const double u = (static_cast<double>(i) + 0.5) /
                       static_cast<double>(kTwins);
      const auto k = std::max<uint64_t>(
          static_cast<uint64_t>(u * u * static_cast<double>(kTenants)),
          twin_keys_.empty() ? 0 : twin_keys_.back() + 1);
      twin_of_[k] = static_cast<int32_t>(twin_keys_.size());
      twin_keys_.push_back(k);
    }
    config_.algorithm = tenant_.algo;
    config_.ell = kEll;
    config_.seed = options_.seed;
  }

  void Setup() override {
    {
      Pause pause(this);
      manager_.reset();
      twins_.clear();
      for (size_t t = 0; t < kTwins; ++t) {
        auto made = MakeSlidingWindowSketch(kDim, Spec(), config_);
        if (!made.ok()) Die(made.status().ToString());
        twins_.push_back(Twin{made.take(), {}, 0.0});
      }
    }
    TenantManager::Options mo;
    mo.memory_budget_bytes = kBudgetBytes;
    auto made = TenantManager::Make(kDim, Spec(), config_, mo);
    if (!made.ok()) Die(made.status().ToString());
    manager_ = made.take();
    // Every tenant exists from the start, so the tenant count and the
    // spill region are steady through the timed phase.
    for (uint64_t k = 0; k < kTenants; ++k) {
      if (Status st = manager_->CreateTenant(k); !st.ok()) {
        Die("CreateTenant: " + st.ToString());
      }
    }
    next_ = 0;
    next_query_ = 0;
    steps_ = 0;
    while (static_cast<double>(next_) < kDelta) Ingest(/*timed=*/false);
  }

  uint64_t Step() override {
    BeginStep("bench.step.ingest");
    Ingest(/*timed=*/true);
    EndStep();
    BeginStep("bench.step.query");
    const double now = Ts(next_ - 1);
    for (size_t q = 0; q < kBatch / kRowsPerQuery; ++q) {
      const uint64_t key = query_keys_[next_query_++ % query_keys_.size()];
      const bool resident = manager_->IsResident(key);
      Status status;
      Result<Matrix> answer = Matrix(0, kDim);
      const int64_t ns = Call("service.Query", nullptr, [&] {
        status = manager_->AdvanceTo(key, now);
        if (status.ok()) answer = manager_->Query(key);
      });
      Check(status.ok() && answer.ok() && AllFinite(*answer),
            "tenant query failed for key " + std::to_string(key));
      const double us = static_cast<double>(ns) * 1e-3;
      query_us_.push_back(us);
      if (tracing()) (resident ? resident_us_ : spilled_us_).push_back(us);
      if (const int32_t t = twin_of_[key]; t >= 0) {
        Pause pause(this);
        twins_[static_cast<size_t>(t)].sketch->AdvanceTo(now);
        twins_[static_cast<size_t>(t)].clock = now;
      }
    }
    EndStep();
    if (++steps_ % kCheckpointBatches == 0) Checkpoint();
    return kBatch;
  }

  void FillLayer(std::map<std::string, double>* m) override {
    auto& out = *m;
    out["core.lm_fd.avg_err"] = Mean(tenant_.errs);
    out["core.lm_fd.rows_stored_max"] = tenant_.rows_stored_max;
    out["service.update_keyed_ns_per_row"] =
        Ratio(static_cast<double>(ingest_ns_),
              static_cast<double>(traced_rows_));
    out["service.group_rows_avg"] =
        Ratio(PhaseDelta("tenant_manager.rows_ingested"),
              PhaseDelta("tenant_manager.keyed_groups"));
    out["service.query_resident_us_p50"] = Quantile(resident_us_, 0.5);
    out["service.query_spilled_us_p50"] = Quantile(spilled_us_, 0.5);
    out["service.spills"] = PhaseDelta("tenant_manager.spills");
    out["service.reloads"] = PhaseDelta("tenant_manager.reloads");
    out["service.spill_compactions"] =
        PhaseDelta("tenant_manager.spill_compactions");
    out["service.resident_bytes"] =
        static_cast<double>(manager_->resident_bytes());
    out["service.arena_reserved_bytes"] =
        static_cast<double>(manager_->arena_reserved_bytes());
    out["service.resident_tenant_frac"] =
        Ratio(static_cast<double>(manager_->resident_tenants()),
              static_cast<double>(manager_->num_tenants()));
  }

 private:
  static constexpr size_t kDim = 8;
  static constexpr size_t kEll = 8;
  static constexpr size_t kBatch = 1024;
  static constexpr size_t kRowsPerQuery = 16;
  static constexpr size_t kTenants = 20000;
  static constexpr double kDelta = 32768.0;
  static constexpr size_t kPoolRows = 262144;
  static constexpr size_t kCheckpointBatches = 32;
  static constexpr size_t kTwins = 256;
  // Most twin tenants hold a handful of rows in their window, where one
  // expired row left in a straddling block outweighs the window itself
  // and cova-err has no useful bound; the envelope applies from this many
  // rows on (byte identity with the twin applies to every tenant).
  static constexpr size_t kMinEnvelopeRows = 4 * kEll;
  // Keeps about a third of the tenants spilled at steady state.
  static constexpr size_t kBudgetBytes = 16 << 20;

  // A standalone sketch fed only one tenant's rows and advances, plus the
  // exact rows of that tenant's window.
  struct Twin {
    std::unique_ptr<SlidingWindowSketch> sketch;
    std::deque<std::pair<double, std::vector<double>>> window;
    double clock = 0.0;
  };

  WindowSpec Spec() const { return WindowSpec::Time(kDelta); }
  // One row per time unit, starting at 1.
  double Ts(uint64_t g) const { return static_cast<double>(g + 1); }

  uint64_t SkewedKey(Rng* rng) const {
    const double u = rng->Uniform01();
    return std::min<uint64_t>(
        static_cast<uint64_t>(u * u * static_cast<double>(kTenants)),
        kTenants - 1);
  }

  void Ingest(bool timed) {
    keyed_.resize(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      const uint64_t p = (next_ + i) % kPoolRows;
      keyed_[i] = KeyedRow{keys_[p], Ts(next_ + i), rows_.Row(p)};
    }
    Status status;
    const int64_t ns = Call("service.UpdateKeyed", nullptr, [&] {
      status = manager_->UpdateKeyed(keyed_);
    });
    if (timed) {
      Check(status.ok(), "UpdateKeyed: " + status.ToString());
      ingest_us_.push_back(static_cast<double>(ns) * 1e-3);
      if (tracing()) {
        ingest_ns_ += ns;
        ingest_shrink_ns_ += last_shrink_ns_;
        traced_rows_ += kBatch;
      }
    } else if (!status.ok()) {
      Die("set-up UpdateKeyed: " + status.ToString());
    }
    FeedTwins();
    next_ += kBatch;
  }

  // Paused: each twin gets its tenant's rows of the batch as one
  // UpdateBatch, exactly the group the manager forwards.
  void FeedTwins() {
    Pause pause(this);
    std::vector<Matrix> rows(twins_.size(), Matrix(0, kDim));
    std::vector<std::vector<double>> ts(twins_.size());
    for (const KeyedRow& r : keyed_) {
      const int32_t t = twin_of_[r.key];
      if (t < 0) continue;
      Twin& twin = twins_[static_cast<size_t>(t)];
      rows[static_cast<size_t>(t)].AppendRow(r.values);
      ts[static_cast<size_t>(t)].push_back(r.ts);
      twin.window.emplace_back(
          r.ts, std::vector<double>(r.values.begin(), r.values.end()));
      twin.clock = r.ts;
    }
    for (size_t t = 0; t < twins_.size(); ++t) {
      if (!ts[t].empty()) twins_[t].sketch->UpdateBatch(rows[t], ts[t]);
    }
  }

  // Paused: every twin's tenant must answer byte-identically to the twin,
  // spilled or not, and inside the error envelope of its exact window. The
  // checkpoint's error is the mean over the twins, so one small window's
  // error does not decide avg_err or max_err.
  void Checkpoint() {
    Pause pause(this);
    double stored = 0.0;
    std::vector<double> errs;
    for (size_t t = 0; t < twins_.size(); ++t) {
      Twin& twin = twins_[t];
      const uint64_t key = twin_keys_[t];
      const bool spilled = !manager_->IsResident(key);
      const Matrix expect = twin.sketch->Query();
      Result<Matrix> got = manager_->Query(key);
      Check(got.ok() && SameBytes(*got, expect),
            "tenant " + std::to_string(key) + (spilled ? " (spilled)" : "") +
                " differs from its standalone twin");
      stored += static_cast<double>(twin.sketch->RowsStored());
      const double start = Spec().Start(twin.clock);
      while (!twin.window.empty() && twin.window.front().first < start) {
        twin.window.pop_front();
      }
      if (twin.window.empty()) continue;
      Matrix exact(0, kDim);
      for (const auto& [ts, row] : twin.window) exact.AppendRow(row);
      errs.push_back(
          CovarianceError(exact.Gram(), exact.FrobeniusNormSq(), expect));
      if (twin.window.size() >= kMinEnvelopeRows) {
        CheckEnvelope(tenant_, errs.back(), "tenant " + std::to_string(key));
      }
    }
    if (!errs.empty()) Record(&tenant_, Mean(errs), stored);
    EndCheckpoint(stored);
  }


  SketchConfig config_;
  Backend tenant_;  // Errors and sizes of the sampled tenants.
  Matrix rows_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> query_keys_;
  std::vector<int32_t> twin_of_;  // Tenant key -> twin index, or -1.
  std::vector<uint64_t> twin_keys_;
  std::vector<Twin> twins_;
  std::unique_ptr<TenantManager> manager_;
  std::vector<KeyedRow> keyed_;
  uint64_t next_ = 0;
  uint64_t next_query_ = 0;
  uint64_t steps_ = 0;
  uint64_t traced_rows_ = 0;
  std::vector<double> resident_us_;
  std::vector<double> spilled_us_;
};

// sharded-ingest: the seq-ingest stream through ShardedSketch (S=2 writer
// threads, 256-row blocks) for lm-fd and di-fd. The two sharded sketches
// take turns of kQueryRows rows each, so at most three threads (load thread +
// two writers) run at once; after each round both answer Flush + Query. The only
// workload that exercises distributed: hand-off, per-shard apply and the
// query tree-reduce. A ShardedSketch{parallel=false} twin replays the same
// calls afterwards; it is both the byte-identity reference and the
// single-threaded baseline of the same job.
class ShardedIngest : public PoolWorkload {
 public:
  explicit ShardedIngest(const Options& options) : PoolWorkload(options) {
    shrink_children_ = false;  // Shrinks run on the writer threads.
    cpu_clock_ = false;        // The coordinator waits for the writers.
    query_tail_ = 0.8;         // About 50 query rounds in 15 s.
    reported_checkpoints_ = 16;
  }

 protected:
  void Generate() override {
    DatasetInfo info;
    Pool pool = SyntheticPool(shape_, options_.seed, &info);
    SetPool(info, std::move(pool), Spec());
    for (const char* slug : {"lm_fd", "di_fd"}) {
      for (size_t s = 0; s < kShards; ++s) {
        queue_depth_.push_back(MetricsRegistry::Global().GetGauge(
            std::string("sharded_") + slug + ".queue_depth." +
            std::to_string(s)));
      }
    }
  }

  void Setup() override {
    {
      Pause pause(this);  // Joins the previous writers.
      backends_.clear();
    }
    rows_fed_.assign(2, 0);
    query_hashes_.assign(2, {});
    active_ = 0;
    for (const char* algo : {"lm-fd", "di-fd"}) {
      Backend b;
      b.algo = algo;
      b.slug = Slug(algo);
      b.envelope = Envelope(algo);
      b.direct = false;
      b.sketch = MakeSharded(algo, /*parallel=*/true);
      b.update_span = "distributed." + b.slug + ".UpdateBatch";
      b.query_span = "distributed." + b.slug + ".Query";
      b.flush_span = "distributed." + b.slug + ".Flush";
      backends_.push_back(std::move(b));
    }
    for (size_t i = 0; i < backends_.size(); ++i) {
      while (rows_fed_[i] < shape_.window) {
        const Matrix& rows = BatchAt(rows_fed_[i], &ts_);
        backends_[i].sketch->UpdateBatch(rows, ts_);
        rows_fed_[i] += batch_;
      }
      backends_[i].sketch->Flush();
    }
    setup_rows_ = rows_fed_[0];
  }

  uint64_t Step() override {
    Backend& b = backends_[active_];
    uint64_t& fed = rows_fed_[active_];
    BeginStep("bench.step.ingest");
    const Matrix& rows = BatchAt(fed, &ts_);
    const int64_t ns = Call(b.update_span, nullptr,
                            [&] { b.sketch->UpdateBatch(rows, ts_); });
    EndStep();
    Attempt();
    parallel_wall_ns_ += ns;
    ingest_us_.push_back(static_cast<double>(ns) * 1e-3);
    if (tracing()) {
      enqueue_ns_ += ns;
      b.update_rows += batch_;
      for (const Gauge* g : queue_depth_) {
        queue_depth_max_ = std::max(queue_depth_max_, g->Value());
      }
    }
    fed += batch_;
    if (fed % kQueryRows == 0) {
      active_ = (active_ + 1) % backends_.size();
      if (active_ == 0) QueryRound();
    }
    return batch_;
  }

  // Accumulates what the writers' apply and the query reduce recorded
  // during traced segments.
  void OnTrace(bool begin) override {
    std::vector<std::vector<uint64_t>> now;
    for (const char* h : {"sharded_lm_fd.block_apply_ns",
                          "sharded_di_fd.block_apply_ns",
                          "sharded_lm_fd.query_reduce_ns",
                          "sharded_di_fd.query_reduce_ns"}) {
      now.push_back(ReadBuckets(h));
    }
    if (begin) {
      buckets_before_ = std::move(now);
      return;
    }
    apply_counts_.resize(now[0].size());
    reduce_counts_.resize(now[0].size());
    for (size_t i = 0; i < now[0].size(); ++i) {
      apply_counts_[i] += now[0][i] - buckets_before_[0][i] + now[1][i] -
                          buckets_before_[1][i];
      reduce_counts_[i] += now[2][i] - buckets_before_[2][i] + now[3][i] -
                           buckets_before_[3][i];
    }
  }

  // The serial twins are single-threaded and independent, so they replay
  // side by side; each is timed on its own thread.
  void Finish() override {
    std::vector<Replayed> replays(backends_.size());
    {
      std::vector<std::jthread> others;
      for (size_t i = 1; i < backends_.size(); ++i) {
        others.emplace_back([this, &replays, i] { replays[i] = Replay(i); });
      }
      replays[0] = Replay(0);
    }
    for (size_t i = 0; i < backends_.size(); ++i) {
      const Replayed& r = replays[i];
      const std::string& algo = backends_[i].algo;
      serial_ingest_ns_ += r.ingest_ns;
      serial_ns_ += r.total_ns;
      serial_rows_ += r.rows;
      for (size_t q = 0; q < r.query_same.size(); ++q) {
        Check(r.query_same[q], algo + " sharded query " + std::to_string(q) +
                                   " differs from the serial twin");
      }
      Check(r.final_same,
            algo + " final sharded state differs from the serial twin");
    }
  }

  void FillLayer(std::map<std::string, double>* m) override {
    auto& out = *m;
    double apply_ns = 0.0;
    for (const Backend& b : backends_) {
      const double ns = PhaseDelta("sharded_" + b.slug + ".block_apply_ns");
      apply_ns += ns;
      out["core." + b.slug + ".update_ns_per_row"] =
          Ratio(ns, static_cast<double>(b.update_rows));
    }
    // Shrinks run in the writers' block apply and in the query reduce.
    out["sketch.fd.shrink_share"] =
        Ratio(PhaseDelta("fd.shrink_ns"),
              apply_ns + static_cast<double>(traced_query_ns_));
    out["distributed.enqueue_ns_per_row"] = Ratio(
        static_cast<double>(enqueue_ns_),
        static_cast<double>(backends_[0].update_rows +
                            backends_[1].update_rows));
    out["distributed.flush_us_p50"] = Quantile(flush_us_, 0.5);
    out["distributed.block_apply_ns_p50"] = BucketQuantile(apply_counts_, 0.5);
    out["distributed.query_reduce_us_p50"] =
        BucketQuantile(reduce_counts_, 0.5) * 1e-3;
    out["distributed.reduce_merges"] =
        PhaseDelta("sharded_lm_fd.reduce_merges") +
        PhaseDelta("sharded_di_fd.reduce_merges");
    out["distributed.queue_depth_max"] = static_cast<double>(queue_depth_max_);
    out["distributed.serial_ns_per_row"] =
        Ratio(static_cast<double>(serial_ingest_ns_),
              static_cast<double>(serial_rows_));
    out["distributed.speedup_vs_serial"] =
        Ratio(static_cast<double>(serial_ns_),
              static_cast<double>(parallel_wall_ns_));
  }

 private:
  static constexpr size_t kShards = 2;

  WindowSpec Spec() const { return WindowSpec::Sequence(shape_.window); }

  std::unique_ptr<SlidingWindowSketch> MakeSharded(const std::string& algo,
                                                   bool parallel) const {
    ShardedSketch::Options o;
    o.shards = kShards;
    o.block_rows = kBlockRows;
    o.parallel = parallel;
    auto made =
        ShardedSketch::Make(shape_.dim, Spec(), Config(algo, shape_.ell), o);
    if (!made.ok()) Die(algo + ": " + made.status().ToString());
    return made.take();
  }

  // Flush + Query on every backend as one step, then (paused) the error
  // checkpoint and the answer's hash for the serial twin.
  void QueryRound() {
    std::vector<Matrix> answers(backends_.size());
    int64_t step_ns = 0;
    BeginStep("bench.step.query");
    for (size_t i = 0; i < backends_.size(); ++i) {
      Backend& b = backends_[i];
      // The flush is the coordinator waiting for the writers.
      const int64_t flush_ns =
          Call(b.flush_span, nullptr, [&] { b.sketch->Flush(); });
      const int64_t query_ns = Call(b.query_span, nullptr,
                                    [&] { answers[i] = b.sketch->Query(); });
      step_ns += flush_ns + query_ns;
      parallel_wall_ns_ += flush_ns + query_ns;
      if (tracing()) {
        flush_us_.push_back(static_cast<double>(flush_ns) * 1e-3);
        b.query_us.push_back(static_cast<double>(flush_ns + query_ns) * 1e-3);
      }
      Check(AllFinite(answers[i]), b.algo + " sharded query is not finite");
    }
    EndStep();
    if (tracing()) traced_query_ns_ += step_ns;
    query_us_.push_back(static_cast<double>(step_ns) * 1e-3);

    Pause pause(this);
    double stored = 0.0;
    for (size_t i = 0; i < backends_.size(); ++i) {
      Backend& b = backends_[i];
      query_hashes_[i].push_back(HashMatrix(answers[i]));
      const uint64_t last = rows_fed_[i] - 1;
      double frob_sq = 0.0;
      const Matrix& gram = exact_.GramAt(pool_, last, &frob_sq);
      const double rows = static_cast<double>(b.sketch->RowsStored());
      CheckErr(&b, CovarianceError(gram, frob_sq, answers[i]), rows,
               "row " + std::to_string(last));
      stored += rows;
    }
    EndCheckpoint(stored);
  }

  struct Replayed {
    int64_t ingest_ns = 0;  // UpdateBatch calls after set-up.
    int64_t total_ns = 0;   // Plus Flush + Query.
    uint64_t rows = 0;
    std::vector<bool> query_same;  // Per recorded query: same bytes.
    bool final_same = false;
  };

  // Replays backend i's calls through a serial twin, timing the part after
  // set-up, and compares every query and the final state byte for byte.
  // Touches no shared state but backend i, so replays can run in parallel.
  Replayed Replay(size_t i) const {
    const Backend& b = backends_[i];
    const std::vector<uint64_t>& hashes = query_hashes_[i];
    std::unique_ptr<SlidingWindowSketch> twin =
        MakeSharded(b.algo, /*parallel=*/false);
    Replayed r;
    std::vector<double> ts;
    uint64_t fed = 0;
    for (; fed < setup_rows_; fed += batch_) {
      const Matrix& rows = BatchAt(fed, &ts);
      twin->UpdateBatch(rows, ts);
    }
    for (; fed < rows_fed_[i]; fed += batch_) {
      const Matrix& rows = BatchAt(fed, &ts);
      const int64_t t0 = NowNs();
      twin->UpdateBatch(rows, ts);
      const int64_t ns = NowNs() - t0;
      r.ingest_ns += ns;
      r.total_ns += ns;
      r.rows += batch_;
      // Only completed rounds queried; a backend may end one turn of
      // kQueryRows ahead of the other.
      if ((fed + batch_) % kQueryRows != 0 ||
          r.query_same.size() == hashes.size()) {
        continue;
      }
      const int64_t q0 = NowNs();
      twin->Flush();
      const Matrix answer = twin->Query();
      r.total_ns += NowNs() - q0;
      r.query_same.push_back(HashMatrix(answer) ==
                             hashes[r.query_same.size()]);
    }
    r.final_same = SameBytes(b.sketch->Query(), twin->Query());
    return r;
  }

  static constexpr size_t kQueryRows = 8192;
  static constexpr size_t kBlockRows = 256;
  const SyntheticShape shape_;
  std::vector<uint64_t> rows_fed_;  // Per backend, from its set-up on.
  uint64_t setup_rows_ = 0;
  size_t active_ = 0;
  std::vector<std::vector<uint64_t>> query_hashes_;
  std::vector<const Gauge*> queue_depth_;
  int64_t parallel_wall_ns_ = 0;  // Wall time of every timed call.
  int64_t enqueue_ns_ = 0;   // Traced UpdateBatch time.
  int64_t traced_query_ns_ = 0;
  std::vector<double> flush_us_;
  int64_t queue_depth_max_ = 0;
  std::vector<std::vector<uint64_t>> buckets_before_;
  std::vector<uint64_t> apply_counts_;   // block_apply_ns, both backends.
  std::vector<uint64_t> reduce_counts_;  // query_reduce_ns, both backends.
  int64_t serial_ingest_ns_ = 0;
  int64_t serial_ns_ = 0;
  uint64_t serial_rows_ = 0;
};


}  // namespace

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"setup_s", "s"},
          {"rows_per_s", "rows/s"},
          {"ingest_batch_us_p50", "us"},
          {"ingest_batch_us_p99", "us"},
          {"query_us_p50", "us"},
          {"query_us_p99", "us"},
          {"avg_err", "ratio"},
          {"max_err", "ratio"},
          {"rows_stored_max", "rows"},
          {"peak_rss_mib", "MiB"},
          {"ok_ops_frac", "ratio"}};
  return *metrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>;
    for (const std::string& b : kCoreSlugs) {
      m->push_back({"core." + b + ".update_ns_per_row", "ns"});
      m->push_back({"core." + b + ".query_us_p50", "us"});
      m->push_back({"core." + b + ".rows_stored_max", "rows"});
      m->push_back({"core." + b + ".avg_err", "ratio"});
    }
    m->insert(m->end(),
              {{"core.lm_fd.blocks_closed", "count"},
               {"core.lm_fd.level_merges", "count"},
               {"core.lm_fd.cold_merges", "count"},
               {"core.lm_fd.query_cache_hit_frac", "ratio"},
               {"core.lm_fd.merge_cache_hit_frac", "ratio"},
               {"core.di_fd.cover_cache_hit_frac", "ratio"},
               {"core.ds_fd.snapshots_taken", "count"},
               {"core.ds_fd.query_cache_hit_frac", "ratio"},
               {"core.swr.front_expiries", "count"},
               {"core.swor.front_expiries", "count"},
               {"core.self_ms", "ms"},
               {"sketch.fd.appends", "count"},
               {"sketch.fd.shrinks", "count"},
               {"sketch.fd.shrink_ms", "ms"},
               {"sketch.fd.shrink_share", "ratio"},
               {"sketch.self_ms", "ms"},
               {"linalg.eigen_jacobi", "count"},
               {"linalg.eigen_tridiag", "count"},
               {"amm.product_us_p50", "us"},
               {"amm.product_cache_hit_frac", "ratio"},
               {"amm.self_ms", "ms"},
               {"distributed.enqueue_ns_per_row", "ns"},
               {"distributed.flush_us_p50", "us"},
               {"distributed.block_apply_ns_p50", "ns"},
               {"distributed.query_reduce_us_p50", "us"},
               {"distributed.reduce_merges", "count"},
               {"distributed.queue_depth_max", "blocks"},
               {"distributed.serial_ns_per_row", "ns"},
               {"distributed.speedup_vs_serial", "ratio"},
               {"distributed.self_ms", "ms"},
               {"service.update_keyed_ns_per_row", "ns"},
               {"service.group_rows_avg", "rows"},
               {"service.query_resident_us_p50", "us"},
               {"service.query_spilled_us_p50", "us"},
               {"service.spills", "count"},
               {"service.reloads", "count"},
               {"service.spill_compactions", "count"},
               {"service.resident_bytes", "bytes"},
               {"service.arena_reserved_bytes", "bytes"},
               {"service.resident_tenant_frac", "ratio"},
               {"service.self_ms", "ms"},
               {"bench.gen_s", "s"},
               {"bench.check_s", "s"},
               {"bench.span_coverage_frac", "ratio"},
               {"bench.trace_overhead_frac", "ratio"},
               {"bench.pool_threads", "count"},
               {"bench.self_ms", "ms"}});
    return m;
  }();
  return *metrics;
}

const std::vector<std::string>& WorkloadNames() {
  static const auto* names = new std::vector<std::string>{
      "seq-ingest", "time-query", "keyed-tenants", "sharded-ingest"};
  return *names;
}

Outcome RunWorkload(const Options& options) {
  std::unique_ptr<Workload> w;
  if (options.workload == "seq-ingest") {
    w = std::make_unique<SeqIngest>(options);
  } else if (options.workload == "time-query") {
    w = std::make_unique<TimeQuery>(options);
  } else if (options.workload == "keyed-tenants") {
    w = std::make_unique<KeyedTenants>(options);
  } else if (options.workload == "sharded-ingest") {
    w = std::make_unique<ShardedIngest>(options);
  } else {
    Die("unknown workload " + options.workload);
  }
  return w->Execute();
}

}  // namespace perfbench

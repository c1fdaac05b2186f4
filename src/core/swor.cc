#include "core/swor.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sketch/priority_sampler.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace swsketch {

namespace {

// Handles per query mode ("swor." / "swor_all.", matching the name()
// slug), resolved once per process.
struct SworMetrics {
  Counter* rows_ingested;
  Counter* priority_draws;
  Counter* replacements;
  Counter* front_expiries;
  Counter* queries;

  explicit SworMetrics(const std::string& prefix) {
    MetricScope scope(prefix);
    rows_ingested = scope.counter("rows_ingested");
    priority_draws = scope.counter("priority_draws");
    replacements = scope.counter("replacements");
    front_expiries = scope.counter("front_expiries");
    queries = scope.counter("queries");
  }

  static const SworMetrics& Get(bool all_mode) {
    static const SworMetrics top("swor");
    static const SworMetrics all("swor_all");
    return all_mode ? all : top;
  }
};

}  // namespace

SworSketch::SworSketch(size_t dim, WindowSpec window, Options options)
    : dim_(dim),
      window_(window),
      options_(options),
      rng_(options.seed),
      frobenius_(options.exact_frobenius
                     ? FrobeniusTracker::Mode::kExact
                     : FrobeniusTracker::Mode::kExponentialHistogram,
                 options.frobenius_eps) {
  SWSKETCH_CHECK_GT(options_.ell, 0u);
}

void SworSketch::Update(std::span<const double> row, double ts) {
  SWSKETCH_CHECK_EQ(row.size(), dim_);
  SWSKETCH_CHECK_GE(ts, now_);
  now_ = ts;
  Expire(ts);

  const double w = NormSq(row);
  if (w <= 0.0) return;
  frobenius_.Add(w, ts);

  const SworMetrics& metrics =
      SworMetrics::Get(options_.query_mode == QueryMode::kAll);
  metrics.rows_ingested->Add();
  metrics.priority_draws->Add();
  const double lp = LogPriority(&rng_, w);
  // Algorithm 5.2 lines 4-8: bump the rank of every dominated candidate
  // and evict those pushed past ell. Compaction is done in one pass.
  const size_t before = queue_.size();
  size_t write = 0;
  for (size_t read = 0; read < queue_.size(); ++read) {
    Candidate& c = queue_[read];
    if (lp > c.log_priority) ++c.rank;
    if (c.rank > options_.ell) continue;  // Dropped.
    if (write != read) queue_[write] = std::move(c);
    ++write;
  }
  if (before != write) metrics.replacements->Add(before - write);
  queue_.resize(write);
  queue_.push_back(Candidate{
      MakeSharedRow(std::vector<double>(row.begin(), row.end()), ts), lp, 1});
}

void SworSketch::UpdateBatch(const Matrix& rows, std::span<const double> ts) {
  SWSKETCH_CHECK_EQ(rows.rows(), ts.size());
  if (rows.rows() == 0) return;
  SWSKETCH_CHECK_EQ(rows.cols(), dim_);
  for (size_t r = 0; r < rows.rows(); ++r) {
    const auto row = rows.Row(r);
    SWSKETCH_CHECK_GE(ts[r], now_);
    now_ = ts[r];
    frobenius_.EvictBefore(window_.Start(ts[r]));

    const double w = NormSq(row);
    if (w <= 0.0) continue;
    frobenius_.Add(w, ts[r]);

    const SworMetrics& metrics =
        SworMetrics::Get(options_.query_mode == QueryMode::kAll);
    metrics.rows_ingested->Add();
    metrics.priority_draws->Add();
    const double lp = LogPriority(&rng_, w);
    const size_t before = queue_.size();
    size_t write = 0;
    for (size_t read = 0; read < queue_.size(); ++read) {
      Candidate& c = queue_[read];
      if (lp > c.log_priority) ++c.rank;
      if (c.rank > options_.ell) continue;
      if (write != read) queue_[write] = std::move(c);
      ++write;
    }
    if (before != write) metrics.replacements->Add(before - write);
    queue_.resize(write);
    queue_.push_back(Candidate{
        MakeSharedRow(std::vector<double>(row.begin(), row.end()), ts[r]), lp,
        1});
  }
  Expire(now_);
}

void SworSketch::AdvanceTo(double now) {
  SWSKETCH_CHECK_GE(now, now_);
  now_ = now;
  Expire(now);
}

void SworSketch::Expire(double now) {
  const double start = window_.Start(now);
  uint64_t expired = 0;
  while (!queue_.empty() && queue_.front().row->ts < start) {
    queue_.pop_front();
    ++expired;
  }
  if (expired != 0) {
    SworMetrics::Get(options_.query_mode == QueryMode::kAll)
        .front_expiries->Add(expired);
  }
  frobenius_.EvictBefore(start);
}

Matrix SworSketch::Query() {
  SworMetrics::Get(options_.query_mode == QueryMode::kAll).queries->Add();
  Expire(now_);
  const double start = window_.Start(now_);
  const double frob_sq = frobenius_.Estimate(start);
  Matrix b(0, dim_);
  if (frob_sq <= 0.0 || queue_.empty()) return b;

  std::vector<const Candidate*> selected;
  selected.reserve(queue_.size());
  for (const auto& c : queue_) selected.push_back(&c);

  if (options_.query_mode == QueryMode::kTopEll &&
      selected.size() > options_.ell) {
    std::nth_element(selected.begin(), selected.begin() + options_.ell - 1,
                     selected.end(), [](const Candidate* a, const Candidate* b) {
                       return a->log_priority > b->log_priority;
                     });
    selected.resize(options_.ell);
  }

  if (options_.query_mode == QueryMode::kTopEll) {
    // Per-row rescaling by ||A||_F / (sqrt(ell) ||a_j||) — the paper's
    // Section 5.1 query (responsible for the Figure 6 skew behavior).
    const double frob = std::sqrt(frob_sq);
    const double k = static_cast<double>(selected.size());
    for (const Candidate* c : selected) {
      b.AppendRowScaled(c->row->view(),
                        frob / std::sqrt(k * c->row->NormSq()));
    }
    return b;
  }

  // SWOR-ALL: all candidates with the common factor
  // ||A||_F / sqrt(sum of candidate squared norms) (Section 3 scheme).
  double sampled_mass = 0.0;
  for (const Candidate* c : selected) sampled_mass += c->row->NormSq();
  if (sampled_mass <= 0.0) return b;
  const double scale = std::sqrt(frob_sq / sampled_mass);
  for (const Candidate* c : selected) {
    b.AppendRowScaled(c->row->view(), scale);
  }
  return b;
}

void SworSketch::Serialize(ByteWriter* writer) const {
  WriteHeader(writer, SworSketch::kSerialTag, 1);
  writer->Put<uint64_t>(dim_);
  window_.Serialize(writer);
  writer->Put<uint64_t>(options_.ell);
  writer->Put<uint8_t>(options_.query_mode == QueryMode::kAll ? 1 : 0);
  writer->Put(options_.frobenius_eps);
  writer->Put<uint8_t>(options_.exact_frobenius ? 1 : 0);
  writer->Put<uint64_t>(options_.seed);
  rng_.Serialize(writer);
  writer->Put(now_);
  frobenius_.Serialize(writer);
  writer->Put<uint64_t>(queue_.size());
  for (const auto& c : queue_) {
    writer->Put(c.log_priority);
    writer->Put<uint64_t>(c.rank);
    writer->Put(c.row->ts);
    writer->PutVector(c.row->values);
  }
}

Status SworSketch::LoadState(ByteReader* reader) {
  const auto corrupt = [] {
    return Status::InvalidArgument("corrupt SworSketch payload");
  };
  uint64_t n = 0;
  if (!rng_.Deserialize(reader) || !reader->Get(&now_) ||
      !std::isfinite(now_) || !frobenius_.Deserialize(reader) ||
      !reader->Get(&n)) {
    return corrupt();
  }
  for (uint64_t i = 0; i < n; ++i) {
    Candidate c;
    double ts = 0.0;
    std::vector<double> values;
    if (!reader->Get(&c.log_priority) || !reader->Get(&c.rank) ||
        !reader->Get(&ts) || !reader->GetVector(&values) ||
        values.size() != dim_ || c.rank == 0 || c.rank > options_.ell) {
      return corrupt();
    }
    c.row = MakeSharedRow(std::move(values), ts);
    queue_.push_back(std::move(c));
  }
  return Status::OK();
}

}  // namespace swsketch

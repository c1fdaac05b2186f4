#include "core/window_sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "sketch/priority_sampler.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace swsketch {

// Handles under the name() slug ("swr." / "swor." / "swor_all."), resolved
// once per process and scheme.
struct SamplerMetrics {
  Counter* rows_ingested;
  Counter* priority_draws;
  Counter* replacements;
  Counter* front_expiries;
  Counter* queries;

  explicit SamplerMetrics(const char* prefix) {
    MetricScope scope(prefix);
    rows_ingested = scope.counter("rows_ingested");
    priority_draws = scope.counter("priority_draws");
    replacements = scope.counter("replacements");
    front_expiries = scope.counter("front_expiries");
    queries = scope.counter("queries");
  }

  static const SamplerMetrics* For(WindowSampler::Scheme scheme) {
    switch (scheme) {
      case WindowSampler::Scheme::kSwr: {
        static const SamplerMetrics m("swr");
        return &m;
      }
      case WindowSampler::Scheme::kSwor: {
        static const SamplerMetrics m("swor");
        return &m;
      }
      case WindowSampler::Scheme::kSworAll:
        break;
    }
    static const SamplerMetrics m("swor_all");
    return &m;
  }
};

WindowSampler::WindowSampler(size_t dim, WindowSpec window, Options options)
    : dim_(dim),
      window_(window),
      options_(options),
      keep_(options.scheme == Scheme::kSwr ? 1 : options.ell),
      metrics_(SamplerMetrics::For(options.scheme)),
      rng_(options.seed),
      chains_(options.scheme == Scheme::kSwr ? options.ell : 1),
      frobenius_(options.exact_frobenius
                     ? FrobeniusTracker::Mode::kExact
                     : FrobeniusTracker::Mode::kExponentialHistogram,
                 options.frobenius_eps) {
  SWSKETCH_CHECK_GT(options_.ell, 0u);
}

std::string WindowSampler::name() const {
  switch (options_.scheme) {
    case Scheme::kSwr:
      return "SWR";
    case Scheme::kSwor:
      return "SWOR";
    case Scheme::kSworAll:
      break;
  }
  return "SWOR-ALL";
}

void WindowSampler::Update(std::span<const double> row, double ts) {
  SWSKETCH_CHECK_EQ(row.size(), dim_);
  SWSKETCH_CHECK_GE(ts, now_);
  now_ = ts;
  Expire(ts);
  Ingest(row, IngestWeight(row), ts);
}

void WindowSampler::UpdateBatch(const Matrix& rows,
                                std::span<const double> ts) {
  SWSKETCH_CHECK_EQ(rows.rows(), ts.size());
  if (rows.rows() == 0) return;
  SWSKETCH_CHECK_EQ(rows.cols(), dim_);
  for (size_t r = 0; r < rows.rows(); ++r) {
    SWSKETCH_CHECK_GE(ts[r], now_);
    now_ = ts[r];
    frobenius_.EvictBefore(window_.Start(ts[r]));
    const auto row = rows.Row(r);
    Ingest(row, IngestWeight(row), ts[r]);
  }
  Expire(now_);
}

void WindowSampler::Ingest(std::span<const double> row, double w, double ts) {
  // Zero rows carry no weight (and are disallowed in sequence windows,
  // Section 1); IngestWeight maps non-finite rows to zero too.
  if (w <= 0.0) return;
  frobenius_.Add(w, ts);
  metrics_->rows_ingested->Add();
  metrics_->priority_draws->Add(chains_.size());
  const SharedRow shared =
      MakeSharedRow(std::vector<double>(row.begin(), row.end()), ts);
  uint64_t dropped = 0;
  for (auto& chain : chains_) {
    const double lp = LogPriority(&rng_, w);
    // Algorithms 5.1/5.2 lines 4-8: bump the rank of every candidate the
    // arrival outranks and drop those pushed past keep_, compacting in one
    // pass. With keep_ = 1 the chain is monotone and the dropped
    // candidates are exactly its dominated back.
    auto out = chain.begin();
    for (auto it = chain.begin(); it != chain.end(); ++it) {
      if (lp > it->log_priority) ++it->rank;
      if (it->rank > keep_) continue;
      if (out != it) *out = std::move(*it);
      ++out;
    }
    dropped += static_cast<uint64_t>(chain.end() - out);
    chain.erase(out, chain.end());
    chain.push_back(Candidate{shared, lp, 1});
  }
  if (dropped != 0) metrics_->replacements->Add(dropped);
}

void WindowSampler::AdvanceTo(double now) {
  SWSKETCH_CHECK_GE(now, now_);
  now_ = now;
  Expire(now);
}

void WindowSampler::Expire(double now) {
  const double start = window_.Start(now);
  uint64_t expired = 0;
  for (auto& chain : chains_) {
    while (!chain.empty() && chain.front().row->ts < start) {
      chain.pop_front();
      ++expired;
    }
  }
  if (expired != 0) metrics_->front_expiries->Add(expired);
  frobenius_.EvictBefore(start);
}

Matrix WindowSampler::Query() {
  metrics_->queries->Add();
  WindowSampler* self = this;
  return PriorityUnionQuery(std::span<WindowSampler* const>(&self, 1));
}

Matrix WindowSampler::PriorityUnionQuery(
    std::span<WindowSampler* const> samplers) {
  SWSKETCH_CHECK_GT(samplers.size(), 0u);
  const WindowSampler& first = *samplers[0];
  // Union-window Frobenius mass = sum of the samplers' window masses
  // (sub-streams are disjoint).
  double frob_sq = 0.0;
  for (WindowSampler* s : samplers) {
    SWSKETCH_CHECK(s->options_.scheme == first.options_.scheme);
    SWSKETCH_CHECK_EQ(s->options_.ell, first.options_.ell);
    s->Expire(s->now_);
    frob_sq += s->frobenius_.Estimate(s->window_.Start(s->now_));
  }
  Matrix b(0, first.dim_);
  if (frob_sq <= 0.0) return b;

  // Per chain, the top-keep_ candidates across the samplers (every
  // candidate for swor-all), in sampler then chain order when they all
  // fit, else in nth_element's order.
  const bool all = first.options_.scheme == Scheme::kSworAll;
  std::vector<const Candidate*> selected;
  std::vector<const Candidate*> pool;
  for (size_t c = 0; c < first.chains_.size(); ++c) {
    pool.clear();
    for (const WindowSampler* s : samplers) {
      for (const Candidate& cand : s->chains_[c]) pool.push_back(&cand);
    }
    if (!all && pool.size() > first.keep_) {
      std::nth_element(pool.begin(), pool.begin() + (first.keep_ - 1),
                       pool.end(), [](const Candidate* x, const Candidate* y) {
                         return x->log_priority > y->log_priority;
                       });
      pool.resize(first.keep_);
    }
    selected.insert(selected.end(), pool.begin(), pool.end());
  }

  if (all) {
    // SWOR-ALL: the common factor ||A||_F / sqrt(sum of candidate squared
    // norms) (Section 3 scheme).
    double sampled_mass = 0.0;
    for (const Candidate* c : selected) sampled_mass += c->row->NormSq();
    if (sampled_mass <= 0.0) return b;
    const double scale = std::sqrt(frob_sq / sampled_mass);
    for (const Candidate* c : selected) {
      b.AppendRowScaled(c->row->view(), scale);
    }
    return b;
  }
  // Per-row rescaling by ||A||_F / (sqrt(k) ||a_j||) over the k sampled
  // rows — the paper's Section 5.1 query (responsible for the Figure 6
  // skew behavior). A non-empty window leaves every swr chain a sample,
  // so k = ell there.
  const double frob = std::sqrt(frob_sq);
  const double k = static_cast<double>(selected.size());
  for (const Candidate* c : selected) {
    b.AppendRowScaled(c->row->view(), frob / std::sqrt(k * c->row->NormSq()));
  }
  return b;
}

size_t WindowSampler::RowsStored() const {
  size_t n = 0;
  for (const auto& chain : chains_) n += chain.size();
  return n;
}

size_t WindowSampler::UniqueRowsStored() const {
  std::unordered_set<const Row*> distinct;
  for (const auto& chain : chains_) {
    for (const auto& c : chain) distinct.insert(c.row.get());
  }
  return distinct.size();
}

void WindowSampler::Serialize(ByteWriter* writer) const {
  const bool swr = options_.scheme == Scheme::kSwr;
  WriteHeader(writer, swr ? kSerialTag : kSworSerialTag, 1);
  writer->Put<uint64_t>(dim_);
  window_.Serialize(writer);
  writer->Put<uint64_t>(options_.ell);
  if (!swr) {
    writer->Put<uint8_t>(options_.scheme == Scheme::kSworAll ? 1 : 0);
  }
  writer->Put(options_.frobenius_eps);
  writer->Put<uint8_t>(options_.exact_frobenius ? 1 : 0);
  writer->Put<uint64_t>(options_.seed);
  rng_.Serialize(writer);
  writer->Put(now_);
  frobenius_.Serialize(writer);
  if (swr) writer->Put<uint64_t>(chains_.size());
  for (const auto& chain : chains_) {
    writer->Put<uint64_t>(chain.size());
    for (const auto& c : chain) {
      writer->Put(c.log_priority);
      if (!swr) writer->Put<uint64_t>(c.rank);
      writer->Put(c.row->ts);
      writer->PutVector(c.row->values);
    }
  }
}

Status WindowSampler::LoadState(ByteReader* reader) {
  const auto corrupt = [] {
    return Status::InvalidArgument("corrupt WindowSampler payload");
  };
  const bool swr = options_.scheme == Scheme::kSwr;
  uint64_t num_chains = 1;
  if (!rng_.Deserialize(reader) || !reader->Get(&now_) ||
      !std::isfinite(now_) || !frobenius_.Deserialize(reader) ||
      (swr && !reader->Get(&num_chains)) || num_chains != chains_.size()) {
    return corrupt();
  }
  for (auto& chain : chains_) {
    uint64_t n = 0;
    if (!reader->Get(&n)) return corrupt();
    // swr chains carry no ranks: a stored candidate has rank 1, which
    // makes the chain strictly decreasing in priority.
    double prev = std::numeric_limits<double>::infinity();
    for (uint64_t i = 0; i < n; ++i) {
      Candidate c{nullptr, 0.0, 1};
      double ts = 0.0;
      std::vector<double> values;
      if (!reader->Get(&c.log_priority) || (!swr && !reader->Get(&c.rank)) ||
          !reader->Get(&ts) || !reader->GetVector(&values) ||
          values.size() != dim_ || c.rank == 0 || c.rank > keep_ ||
          (swr && c.log_priority >= prev)) {
        return corrupt();
      }
      prev = c.log_priority;
      c.row = MakeSharedRow(std::move(values), ts);
      chain.push_back(std::move(c));
    }
  }
  return Status::OK();
}

}  // namespace swsketch

#include "core/swr.h"

#include <cmath>
#include <limits>
#include <unordered_set>

#include "sketch/priority_sampler.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace swsketch {

namespace {

// Handles under the fixed "swr." prefix, resolved once per process.
struct SwrMetrics {
  Counter* rows_ingested;
  Counter* priority_draws;
  Counter* replacements;
  Counter* front_expiries;
  Counter* queries;

  static const SwrMetrics& Get() {
    static const SwrMetrics m = [] {
      MetricScope scope("swr");
      return SwrMetrics{scope.counter("rows_ingested"),
                        scope.counter("priority_draws"),
                        scope.counter("replacements"),
                        scope.counter("front_expiries"),
                        scope.counter("queries")};
    }();
    return m;
  }
};

}  // namespace

SwrSketch::SwrSketch(size_t dim, WindowSpec window, Options options)
    : dim_(dim),
      window_(window),
      options_(options),
      rng_(options.seed),
      chains_(options.ell),
      frobenius_(options.exact_frobenius
                     ? FrobeniusTracker::Mode::kExact
                     : FrobeniusTracker::Mode::kExponentialHistogram,
                 options.frobenius_eps) {
  SWSKETCH_CHECK_GT(options_.ell, 0u);
}

void SwrSketch::Update(std::span<const double> row, double ts) {
  SWSKETCH_CHECK_EQ(row.size(), dim_);
  SWSKETCH_CHECK_GE(ts, now_);
  now_ = ts;
  Expire(ts);

  const double w = NormSq(row);
  if (w <= 0.0) return;  // Zero rows carry no weight (and are disallowed in
                         // sequence windows, Section 1).
  frobenius_.Add(w, ts);

  const SwrMetrics& metrics = SwrMetrics::Get();
  metrics.rows_ingested->Add();
  metrics.priority_draws->Add(chains_.size());
  const SharedRow shared =
      MakeSharedRow(std::vector<double>(row.begin(), row.end()), ts);
  uint64_t replaced = 0;
  for (auto& chain : chains_) {
    const double lp = LogPriority(&rng_, w);
    // Algorithm 5.1 lines 4-8: drop dominated candidates from the back.
    while (!chain.empty() && chain.back().log_priority < lp) {
      chain.pop_back();
      ++replaced;
    }
    chain.push_back(Candidate{shared, lp});
  }
  if (replaced != 0) metrics.replacements->Add(replaced);
}

void SwrSketch::UpdateBatch(const Matrix& rows, std::span<const double> ts) {
  SWSKETCH_CHECK_EQ(rows.rows(), ts.size());
  if (rows.rows() == 0) return;
  SWSKETCH_CHECK_EQ(rows.cols(), dim_);
  for (size_t r = 0; r < rows.rows(); ++r) {
    const auto row = rows.Row(r);
    SWSKETCH_CHECK_GE(ts[r], now_);
    now_ = ts[r];
    // The EH must see evictions at the same timestamps as the serial path
    // (its bucket merges depend on when mass leaves), so it is advanced per
    // row even though the chain fronts are expired only once at the end.
    frobenius_.EvictBefore(window_.Start(ts[r]));

    const double w = NormSq(row);
    if (w <= 0.0) continue;
    frobenius_.Add(w, ts[r]);

    const SwrMetrics& metrics = SwrMetrics::Get();
    metrics.rows_ingested->Add();
    metrics.priority_draws->Add(chains_.size());
    const SharedRow shared =
        MakeSharedRow(std::vector<double>(row.begin(), row.end()), ts[r]);
    uint64_t replaced = 0;
    for (auto& chain : chains_) {
      const double lp = LogPriority(&rng_, w);
      while (!chain.empty() && chain.back().log_priority < lp) {
        chain.pop_back();
        ++replaced;
      }
      chain.push_back(Candidate{shared, lp});
    }
    if (replaced != 0) metrics.replacements->Add(replaced);
  }
  // Expired candidates form a prefix of each deque (timestamps increase
  // front to back) and a stale front never influences back-side pops, so
  // one final expiry leaves exactly the serial state.
  Expire(now_);
}

void SwrSketch::AdvanceTo(double now) {
  SWSKETCH_CHECK_GE(now, now_);
  now_ = now;
  Expire(now);
}

void SwrSketch::Expire(double now) {
  const double start = window_.Start(now);
  uint64_t expired = 0;
  for (auto& chain : chains_) {
    while (!chain.empty() && chain.front().row->ts < start) {
      chain.pop_front();
      ++expired;
    }
  }
  if (expired != 0) SwrMetrics::Get().front_expiries->Add(expired);
  frobenius_.EvictBefore(start);
}

Matrix SwrSketch::Query() {
  SwrMetrics::Get().queries->Add();
  Expire(now_);
  const double start = window_.Start(now_);
  const double frob_sq = frobenius_.Estimate(start);
  Matrix b(0, dim_);
  if (frob_sq <= 0.0) return b;
  const double frob = std::sqrt(frob_sq);
  const double ell = static_cast<double>(chains_.size());
  for (const auto& chain : chains_) {
    if (chain.empty()) continue;
    const Row& sample = *chain.front().row;
    const double w = sample.NormSq();
    b.AppendRowScaled(sample.view(), frob / std::sqrt(ell * w));
  }
  return b;
}

size_t SwrSketch::RowsStored() const {
  // Paper accounting: every candidate entry counts as a stored row (each
  // sampler conceptually owns its queue).
  size_t n = 0;
  for (const auto& chain : chains_) n += chain.size();
  return n;
}

size_t SwrSketch::UniqueRowsStored() const {
  std::unordered_set<const Row*> distinct;
  for (const auto& chain : chains_) {
    for (const auto& c : chain) distinct.insert(c.row.get());
  }
  return distinct.size();
}

std::vector<std::optional<SwrSketch::ChainSample>> SwrSketch::ChainSamples() {
  Expire(now_);
  std::vector<std::optional<ChainSample>> out;
  out.reserve(chains_.size());
  for (const auto& chain : chains_) {
    if (chain.empty()) {
      out.emplace_back(std::nullopt);
    } else {
      out.emplace_back(
          ChainSample{chain.front().row, chain.front().log_priority});
    }
  }
  return out;
}

double SwrSketch::FrobeniusSqEstimate() {
  Expire(now_);
  return frobenius_.Estimate(window_.Start(now_));
}

void SwrSketch::Serialize(ByteWriter* writer) const {
  WriteHeader(writer, SwrSketch::kSerialTag, 1);
  writer->Put<uint64_t>(dim_);
  window_.Serialize(writer);
  writer->Put<uint64_t>(options_.ell);
  writer->Put(options_.frobenius_eps);
  writer->Put<uint8_t>(options_.exact_frobenius ? 1 : 0);
  writer->Put<uint64_t>(options_.seed);
  rng_.Serialize(writer);
  writer->Put(now_);
  frobenius_.Serialize(writer);
  writer->Put<uint64_t>(chains_.size());
  for (const auto& chain : chains_) {
    writer->Put<uint64_t>(chain.size());
    for (const auto& c : chain) {
      writer->Put(c.log_priority);
      writer->Put(c.row->ts);
      writer->PutVector(c.row->values);
    }
  }
}

Status SwrSketch::LoadState(ByteReader* reader) {
  const auto corrupt = [] {
    return Status::InvalidArgument("corrupt SwrSketch payload");
  };
  uint64_t num_chains = 0;
  if (!rng_.Deserialize(reader) || !reader->Get(&now_) ||
      !std::isfinite(now_) || !frobenius_.Deserialize(reader) ||
      !reader->Get(&num_chains) || num_chains != chains_.size()) {
    return corrupt();
  }
  for (auto& chain : chains_) {
    uint64_t n = 0;
    if (!reader->Get(&n)) return corrupt();
    double prev = std::numeric_limits<double>::infinity();
    for (uint64_t i = 0; i < n; ++i) {
      Candidate c;
      double ts = 0.0;
      std::vector<double> values;
      if (!reader->Get(&c.log_priority) || !reader->Get(&ts) ||
          !reader->GetVector(&values) || values.size() != dim_ ||
          c.log_priority >= prev) {
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

#include "amm/amm_exact.h"

#include <cmath>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace swsketch {

AmmExact::AmmExact(size_t dim_a, size_t dim_b, WindowSpec window)
    : AmmExact(dim_a, dim_b, window, MetricSet(MetricScope("amm"))) {}

AmmExact::AmmExact(size_t dim_a, size_t dim_b, WindowSpec window,
                   const MetricSet& metrics)
    : AmmSketch(dim_a, dim_b, metrics),
      window_(window),
      buffer_a_(window),
      buffer_b_(window) {}

void AmmExact::Update(std::span<const double> row, double ts) {
  SWSKETCH_CHECK_EQ(row.size(), dim());
  SWSKETCH_CHECK_GE(ts, now_);
  ++mutation_version_;
  now_ = ts;
  metrics().pairs_ingested->Add();
  buffer_a_.Add(
      Row(std::vector<double>(row.begin(), row.begin() + dim_a()), ts));
  buffer_b_.Add(
      Row(std::vector<double>(row.begin() + dim_a(), row.end()), ts));
}

void AmmExact::UpdateBatch(const Matrix& rows, std::span<const double> ts) {
  SWSKETCH_CHECK_EQ(rows.rows(), ts.size());
  if (rows.rows() > 0) SWSKETCH_CHECK_EQ(rows.cols(), dim());
  for (size_t i = 0; i < rows.rows(); ++i) Update(rows.Row(i), ts[i]);
}

void AmmExact::AdvanceTo(double now) {
  SWSKETCH_CHECK_GE(now, now_);
  ++mutation_version_;
  now_ = now;
  buffer_a_.AdvanceTo(now);
  buffer_b_.AdvanceTo(now);
}

Matrix AmmExact::Query() {
  SWSKETCH_CHECK_EQ(buffer_a_.size(), buffer_b_.size());
  Matrix stacked(buffer_a_.size(), dim());
  size_t i = 0;
  auto it_b = buffer_b_.rows().begin();
  for (const Row& ra : buffer_a_.rows()) {
    const Row& rb = *it_b++;
    for (size_t j = 0; j < dim_a(); ++j) stacked(i, j) = ra.values[j];
    for (size_t j = 0; j < dim_b(); ++j) {
      stacked(i, dim_a() + j) = rb.values[j];
    }
    ++i;
  }
  return stacked;
}

Matrix AmmExact::ComputeProduct() {
  SWSKETCH_CHECK_EQ(buffer_a_.size(), buffer_b_.size());
  Matrix product(dim_a(), dim_b());
  auto it_b = buffer_b_.rows().begin();
  for (const Row& ra : buffer_a_.rows()) {
    const Row& rb = *it_b++;
    for (size_t i = 0; i < dim_a(); ++i) {
      const double left = ra.values[i];
      if (left == 0.0) continue;
      for (size_t j = 0; j < dim_b(); ++j) {
        product(i, j) += left * rb.values[j];
      }
    }
  }
  return product;
}

void AmmExact::Serialize(ByteWriter* writer) const {
  WriteHeader(writer, kSerialTag, 1);
  writer->Put<uint64_t>(dim_a());
  writer->Put<uint64_t>(dim_b());
  window_.Serialize(writer);
  writer->Put(now_);
  SWSKETCH_CHECK_EQ(buffer_a_.size(), buffer_b_.size());
  writer->Put<uint64_t>(buffer_a_.size());
  auto it_b = buffer_b_.rows().begin();
  for (const Row& ra : buffer_a_.rows()) {
    const Row& rb = *it_b++;
    writer->Put(ra.ts);
    writer->PutVector(ra.values);
    writer->PutVector(rb.values);
  }
}

Status AmmExact::LoadState(ByteReader* reader) {
  double now = 0.0;
  uint64_t n = 0;
  if (!reader->Get(&now) || !std::isfinite(now) || !reader->Get(&n)) {
    return Status::InvalidArgument("truncated AMM-EXACT payload");
  }
  for (uint64_t i = 0; i < n; ++i) {
    double ts = 0.0;
    std::vector<double> a, b;
    if (!reader->Get(&ts) || !reader->GetVector(&a) ||
        !reader->GetVector(&b) || a.size() != dim_a() ||
        b.size() != dim_b()) {
      return Status::InvalidArgument("bad AMM-EXACT pair");
    }
    buffer_a_.Add(Row(std::move(a), ts));
    buffer_b_.Add(Row(std::move(b), ts));
  }
  buffer_a_.AdvanceTo(now);
  buffer_b_.AdvanceTo(now);
  now_ = now;
  mutation_version_ = 1;  // Loaded state is valid but cold.
  metrics().reloads->Add();
  return Status::OK();
}

}  // namespace swsketch

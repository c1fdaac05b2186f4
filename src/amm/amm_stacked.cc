#include "amm/amm_stacked.h"

#include "util/logging.h"

namespace swsketch {

AmmStacked::AmmStacked(size_t dim_a, size_t dim_b,
                       std::unique_ptr<SlidingWindowSketch> inner)
    : AmmStacked(dim_a, dim_b, std::move(inner),
                 MetricSet(MetricScope("amm"))) {}

AmmStacked::AmmStacked(size_t dim_a, size_t dim_b,
                       std::unique_ptr<SlidingWindowSketch> inner,
                       const MetricSet& metrics)
    : AmmSketch(dim_a, dim_b, metrics), inner_(std::move(inner)) {
  SWSKETCH_CHECK(inner_ != nullptr);
  SWSKETCH_CHECK_EQ(inner_->dim(), dim_a + dim_b);
}

void AmmStacked::Update(std::span<const double> row, double ts) {
  metrics().pairs_ingested->Add();
  inner_->Update(row, ts);
}

void AmmStacked::UpdateBatch(const Matrix& rows,
                             std::span<const double> ts) {
  metrics().pairs_ingested->Add(rows.rows());
  inner_->UpdateBatch(rows, ts);
}

void AmmStacked::UpdateSparse(const SparseVector& row, double ts) {
  metrics().pairs_ingested->Add();
  inner_->UpdateSparse(row, ts);
}

void AmmStacked::Serialize(ByteWriter* writer) const {
  const Status st = SerializeTo(writer);
  SWSKETCH_CHECK(st.ok());
}

Status AmmStacked::SerializeTo(ByteWriter* writer) const {
  WriteHeader(writer, kSerialTag, 1);
  writer->Put<uint64_t>(dim_a());
  writer->Put<uint64_t>(dim_b());
  return inner_->SerializeTo(writer);
}

Status AmmStacked::LoadState(ByteReader* reader) {
  if (Status s = inner_->LoadState(reader); !s.ok()) return s;
  metrics().reloads->Add();
  return Status::OK();
}

}  // namespace swsketch

// Stacked-operand AMM backends: wrap any single-operand sliding-window
// covariance sketch at the stacked dimension d_a + d_b and read the
// product estimate off the off-diagonal block of its approximation's
// Gram (see amm_sketch.h for the identity). The factory registers three
// wrappers over the existing FrequentDirections-core machinery:
//
//   amm-co-fd  — DS-FD underlying: one live frame FD ingests the stacked
//                rows directly (the co-FD estimator of arXiv 2502.17940:
//                the product block of the shrunk Gram), dump/snapshot
//                ladder handles the window boundary.
//   amm-lm-fd  — LogarithmicMethod<FrequentDirections> underlying: the
//                paper's LM block lifecycle, EH norm levels and merge
//                caches, all at the stacked dimension.
//   amm-di-fd  — DyadicInterval<FrequentDirections> underlying (sequence
//                windows only), dyadic cover over stacked FD blocks.
//
// Every SlidingWindowSketch obligation (Update/UpdateBatch/AdvanceTo/
// Query/Flush/StateVersion/serialize) forwards to the underlying sketch,
// so the wrapper inherits its error bound, its caches and its
// concurrency contract unchanged; QueryProduct() adds a product cache
// keyed on the underlying StateVersion.
#ifndef SWSKETCH_AMM_AMM_STACKED_H_
#define SWSKETCH_AMM_AMM_STACKED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "amm/amm_sketch.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// AMM wrapper over an arbitrary stacked-dimension sliding-window sketch.
class AmmStacked : public AmmSketch {
 public:
  /// `inner` must sketch dimension dim_a + dim_b.
  AmmStacked(size_t dim_a, size_t dim_b,
             std::unique_ptr<SlidingWindowSketch> inner);

  /// Mass-construction overload (SketchPrototype): pre-resolved amm.*
  /// metric handles.
  AmmStacked(size_t dim_a, size_t dim_b,
             std::unique_ptr<SlidingWindowSketch> inner,
             const MetricSet& metrics);

  AmmStacked(AmmStacked&&) = default;

  void Update(std::span<const double> row, double ts) override;
  void UpdateBatch(const Matrix& rows, std::span<const double> ts) override;
  void UpdateSparse(const SparseVector& row, double ts) override;
  void AdvanceTo(double now) override { inner_->AdvanceTo(now); }

  /// The underlying stacked approximation C (columns = d_a + d_b).
  Matrix Query() override { return inner_->Query(); }

  void Flush() override { inner_->Flush(); }
  uint64_t StateVersion() const override { return inner_->StateVersion(); }
  size_t RowsStored() const override { return inner_->RowsStored(); }
  std::string name() const override { return "AMM[" + inner_->name() + "]"; }
  const WindowSpec& window() const override { return inner_->window(); }

  const SlidingWindowSketch& inner() const { return *inner_; }

  /// Version 1 AMM-stacked wire format: framed header + dims, then the
  /// underlying sketch's own tagged payload. core/factory.h reads both
  /// headers (the inner tag names the backend: amm-co-fd, amm-lm-fd or
  /// amm-di-fd), so LoadState is the inner sketch's.
  static constexpr uint32_t kSerialTag = 0x414D5331;  // "AMS1"
  void Serialize(ByteWriter* writer) const;
  Status SerializeTo(ByteWriter* writer) const override;
  Status LoadState(ByteReader* reader) override;

 protected:
  Matrix ComputeProduct() override {
    return ProductFromStacked(inner_->Query(), dim_a());
  }

 private:
  std::unique_ptr<SlidingWindowSketch> inner_;
};

}  // namespace swsketch

#endif  // SWSKETCH_AMM_AMM_STACKED_H_

// Exact AMM reference backend: dual WindowBuffers hold every live
// (row_a, row_b) pair, so QueryProduct() is the exact A_W^T B_W — the
// ground truth the differential harness locksteps every approximate AMM
// backend against (the same role ExactWindow plays for covariance, and
// the same Theta(N) space Theorem 4.1 proves unavoidable for exactness).
#ifndef SWSKETCH_AMM_AMM_EXACT_H_
#define SWSKETCH_AMM_AMM_EXACT_H_

#include <cstdint>
#include <string>

#include "amm/amm_sketch.h"
#include "stream/window_buffer.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// Linear-space exact two-operand window tracker.
class AmmExact : public AmmSketch {
 public:
  AmmExact(size_t dim_a, size_t dim_b, WindowSpec window);

  /// Mass-construction overload (SketchPrototype): pre-resolved metric
  /// handles instead of per-instance registry probes.
  AmmExact(size_t dim_a, size_t dim_b, WindowSpec window,
           const MetricSet& metrics);

  AmmExact(AmmExact&&) = default;

  void Update(std::span<const double> row, double ts) override;
  void UpdateBatch(const Matrix& rows, std::span<const double> ts) override;
  void AdvanceTo(double now) override;

  /// The stacked window matrix [A_W | B_W] itself (zero error).
  Matrix Query() override;

  uint64_t StateVersion() const override { return mutation_version_; }

  /// Both operand buffers count: the honest dual-storage footprint.
  size_t RowsStored() const override {
    return buffer_a_.size() + buffer_b_.size();
  }

  std::string name() const override { return "AMM-EXACT"; }
  const WindowSpec& window() const override { return window_; }

  const WindowBuffer& buffer_a() const { return buffer_a_; }
  const WindowBuffer& buffer_b() const { return buffer_b_; }

  /// Version 1 AMM-EXACT wire format (v2 container conventions): framed
  /// header, dims, window, clock, then the live pairs in arrival order.
  /// core/factory.h reads the header through the window; LoadState reads
  /// the clock and the pairs.
  static constexpr uint32_t kSerialTag = 0x414D4531;  // "AME1"
  void Serialize(ByteWriter* writer) const;
  Status SerializeTo(ByteWriter* writer) const override {
    Serialize(writer);
    return Status::OK();
  }
  Status LoadState(ByteReader* reader) override;

 protected:
  /// Exact A_W^T B_W, accumulated pair-by-pair in arrival order (the
  /// stacked-row-outermost order ProductFromStacked documents, so operand
  /// swap transposes the result bitwise).
  Matrix ComputeProduct() override;

 private:
  WindowSpec window_;
  WindowBuffer buffer_a_;
  WindowBuffer buffer_b_;
  double now_ = 0.0;
  uint64_t mutation_version_ = 0;
};

}  // namespace swsketch

#endif  // SWSKETCH_AMM_AMM_EXACT_H_

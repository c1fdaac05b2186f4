#include "core/window_pca.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/tridiag_eigen.h"
#include "linalg/vector_ops.h"
#include "util/logging.h"

namespace swsketch {

WindowPca::WindowPca(std::unique_ptr<SlidingWindowSketch> sketch)
    : sketch_(std::move(sketch)) {
  SWSKETCH_CHECK(sketch_ != nullptr);
}

void WindowPca::Update(std::span<const double> row, double ts) {
  sketch_->Update(row, ts);
}

void WindowPca::AdvanceTo(double now) { sketch_->AdvanceTo(now); }

PcaResult WindowPca::Principal(size_t k) {
  const size_t d = sketch_->dim();
  k = std::min(k, d);
  const Matrix b = sketch_->Query();
  Matrix gram(d, d);
  for (size_t i = 0; i < b.rows(); ++i) gram.AddOuterProduct(b.Row(i));
  const SymmetricEigen eig = TridiagEigen(gram);

  PcaResult out;
  out.eigenvalues.assign(eig.eigenvalues.begin(), eig.eigenvalues.begin() + k);
  out.components = Matrix(k, d);
  for (size_t c = 0; c < k; ++c) {
    for (size_t j = 0; j < d; ++j) {
      out.components(c, j) = eig.eigenvectors(j, c);
    }
  }
  return out;
}

double WindowPca::CapturedEnergy(const Matrix& basis,
                                 std::span<const double> row) {
  SWSKETCH_CHECK_EQ(basis.cols(), row.size());
  const double total = NormSq(row);
  if (total <= 0.0) return 0.0;
  double captured = 0.0;
  for (size_t c = 0; c < basis.rows(); ++c) {
    const double proj = Dot(basis.Row(c), row);
    captured += proj * proj;
  }
  return captured / total;
}

double WindowPca::SubspaceAffinity(const Matrix& basis1,
                                   const Matrix& basis2) {
  SWSKETCH_CHECK_EQ(basis1.cols(), basis2.cols());
  SWSKETCH_CHECK_GT(basis1.rows(), 0u);
  const Matrix m = basis1.Multiply(basis2.Transpose());
  return m.FrobeniusNormSq() / static_cast<double>(basis1.rows());
}

PcaChangeDetector::PcaChangeDetector(
    std::unique_ptr<SlidingWindowSketch> sketch, Options options)
    : pca_(std::move(sketch)), options_(options) {
  SWSKETCH_CHECK_GT(options_.k, 0u);
}

void PcaChangeDetector::Update(std::span<const double> row, double ts) {
  pca_.Update(row, ts);
}

void PcaChangeDetector::FreezeReference() {
  reference_ = pca_.Principal(options_.k).components;
}

double PcaChangeDetector::Score() {
  SWSKETCH_CHECK(has_reference());
  const Matrix live = pca_.Principal(options_.k).components;
  return WindowPca::SubspaceAffinity(reference_, live);
}

}  // namespace swsketch

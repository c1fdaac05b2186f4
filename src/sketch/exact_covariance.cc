#include "sketch/exact_covariance.h"

#include <cmath>

#include "linalg/tridiag_eigen.h"
#include "linalg/vector_ops.h"
#include "util/logging.h"

namespace swsketch {

ExactCovariance::ExactCovariance(size_t dim)
    : dim_(dim), gram_(dim, dim) {}

void ExactCovariance::Append(std::span<const double> row, uint64_t) {
  SWSKETCH_CHECK_EQ(row.size(), dim_);
  gram_.AddOuterProduct(row);
  frob_sq_ += NormSq(row);
}

Matrix ExactCovariance::Approximation() const {
  const SymmetricEigen eig = TridiagEigen(gram_);
  Matrix b(dim_, dim_);
  for (size_t i = 0; i < dim_; ++i) {
    const double s = std::sqrt(std::max(eig.eigenvalues[i], 0.0));
    for (size_t j = 0; j < dim_; ++j) {
      b(i, j) = s * eig.eigenvectors(j, i);
    }
  }
  return b;
}

}  // namespace swsketch

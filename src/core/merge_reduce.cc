#include "core/merge_reduce.h"

#include <utility>

#include "sketch/frequent_directions.h"
#include "util/logging.h"

namespace swsketch {

QueryReduceSpec ReduceSpecFor(const std::string& algorithm, size_t ell) {
  if (algorithm == "lm-fd" || algorithm == "ds-fd" ||
      algorithm == "amm-co-fd" || algorithm == "amm-lm-fd") {
    // AMM wrappers expose Query() as the stacked [A | B] approximation, so
    // FD-merging shard outputs at the stacked dimension preserves the
    // co-sketch product bound exactly like the covariance bound.
    return {QueryReduceKind::kFdMerge, ell};
  }
  if (algorithm == "di-fd" || algorithm == "amm-di-fd") {
    return {QueryReduceKind::kFdMerge, 2 * ell};
  }
  if (algorithm == "lm-hash" || algorithm == "lm-rp") {
    return {QueryReduceKind::kSum, 0};
  }
  if (algorithm == "swr" || algorithm == "swor") {
    return {QueryReduceKind::kPriorityUnion, 0};
  }
  return {QueryReduceKind::kStack, 0};
}

Matrix CombineQueryPair(const QueryReduceSpec& spec, size_t dim,
                        const Matrix& a, const Matrix& b) {
  if (a.rows() == 0) return b;
  if (b.rows() == 0) return a;
  SWSKETCH_CHECK_EQ(a.cols(), dim);
  SWSKETCH_CHECK_EQ(b.cols(), dim);
  switch (spec.kind) {
    case QueryReduceKind::kStack:
      return a.VStack(b);
    case QueryReduceKind::kSum: {
      SWSKETCH_CHECK_EQ(a.rows(), b.rows());
      Matrix out = a;
      auto data = out.Data();
      const auto other = b.Data();
      for (size_t i = 0; i < data.size(); ++i) data[i] += other[i];
      return out;
    }
    case QueryReduceKind::kFdMerge: {
      SWSKETCH_CHECK_GE(spec.reduce_ell, 2u);
      FrequentDirections fd(
          dim, FrequentDirections::Options{.ell = spec.reduce_ell});
      fd.AppendMatrix(a);
      fd.AppendMatrix(b);
      return fd.Approximation();
    }
    case QueryReduceKind::kPriorityUnion:
      break;  // Reads candidates, not matrices: PriorityUnionQuery.
  }
  SWSKETCH_CHECK(false);
  return Matrix(0, dim);
}

Matrix TreeReduceQueries(const QueryReduceSpec& spec, size_t dim,
                         std::vector<Matrix> parts, ThreadPool* pool) {
  const size_t m = parts.size();
  if (m == 0) return Matrix(0, dim);
  return PairwiseTreeReduce<Matrix>(
      m,
      [&](size_t p) {
        return 2 * p + 1 < m
                   ? CombineQueryPair(spec, dim, parts[2 * p], parts[2 * p + 1])
                   : std::move(parts[2 * p]);
      },
      [&](Matrix& left, const Matrix& right) {
        left = CombineQueryPair(spec, dim, left, right);
      },
      pool);
}

}  // namespace swsketch

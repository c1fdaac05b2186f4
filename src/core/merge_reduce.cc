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
  if (m == 1) return std::move(parts[0]);
  const ParallelForOptions opts{.grain = 1, .pool = pool};
  std::vector<Matrix> nodes((m + 1) / 2, Matrix(0, dim));
  ParallelFor(
      nodes.size(),
      [&](size_t p) {
        nodes[p] = 2 * p + 1 < m
                       ? CombineQueryPair(spec, dim, parts[2 * p],
                                          parts[2 * p + 1])
                       : std::move(parts[2 * p]);
      },
      opts);
  size_t width = nodes.size();
  while (width > 1) {
    const size_t next = (width + 1) / 2;
    ParallelFor(
        next,
        [&](size_t p) {
          if (2 * p + 1 < width) {
            nodes[2 * p] =
                CombineQueryPair(spec, dim, nodes[2 * p], nodes[2 * p + 1]);
          }
        },
        opts);
    // Compact serially: tasks above read nodes[2p + 1], which is exactly
    // the slot a concurrent compaction of pair p' = 2p + 1 would move.
    for (size_t p = 1; p < next; ++p) nodes[p] = std::move(nodes[2 * p]);
    width = next;
  }
  return std::move(nodes[0]);
}

}  // namespace swsketch

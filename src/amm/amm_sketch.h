// Sliding-window approximate matrix multiplication (AMM): estimate
// A_W^T B_W for two synchronized row streams A (d_a columns) and B (d_b
// columns) over one shared sliding window, per "Optimal Approximate
// Matrix Multiplication over Sliding Window" (PAPERS.md, arXiv
// 2502.17940).
//
// The estimator is the paper's co-sketching identity: sketch the stacked
// rows M = [A | B] (dimension d = d_a + d_b) with any sliding-window
// covariance sketch C, so
//
//     C^T C  ~=  M_W^T M_W  =  [ A^T A   A^T B ]
//                              [ B^T A   B^T B ]
//
// and the off-diagonal d_a x d_b block of C^T C estimates A_W^T B_W with
// spectral error at most ||M_W^T M_W - C^T C||_2 — every bound the
// single-operand machinery earns on the stacked stream transfers to the
// product verbatim. AmmSketch therefore IS-A SlidingWindowSketch at the
// stacked dimension: Query() returns the stacked sketch C itself (so
// ConcurrentSketch snapshots, ShardedSketch FD-merge reduction, tenant
// spill and the factory round-trip contract all work unchanged), and
// QueryProduct() extracts the product estimate from C.
#ifndef SWSKETCH_AMM_AMM_SKETCH_H_
#define SWSKETCH_AMM_AMM_SKETCH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sliding_window_sketch.h"
#include "linalg/matrix.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/versioned_cache.h"

namespace swsketch {

/// Two-operand sliding-window sketch: ingests synchronized row pairs
/// (row_a, row_b) and estimates the product A_W^T B_W of the window.
class AmmSketch : public SlidingWindowSketch {
 public:
  // Handles into the global registry under the "amm." scope, shared by
  // every AMM backend (exact and stacked). Ledger (checked by
  // metrics_invariants_test):
  //   product_queries == product_cache_hits + product_cache_misses
  // pairs_ingested counts every (row_a, row_b) pair consumed by Update /
  // UpdateBatch across all instances; reloads counts deserializations.
  struct MetricSet {
    explicit MetricSet(const MetricScope& scope)
        : pairs_ingested(scope.counter("pairs_ingested")),
          product_queries(scope.counter("product_queries")),
          product_cache_hits(scope.counter("product_cache_hits")),
          product_cache_misses(scope.counter("product_cache_misses")),
          reloads(scope.counter("reloads")) {}
    Counter* pairs_ingested;
    Counter* product_queries;
    Counter* product_cache_hits;
    Counter* product_cache_misses;
    Counter* reloads;
  };

  AmmSketch(size_t dim_a, size_t dim_b, const MetricSet& metrics)
      : dim_a_(dim_a), dim_b_(dim_b), metrics_(metrics) {
    SWSKETCH_CHECK_GT(dim_a, 0u);
    SWSKETCH_CHECK_GT(dim_b, 0u);
  }

  size_t dim_a() const { return dim_a_; }
  size_t dim_b() const { return dim_b_; }

  /// Stacked dimension d_a + d_b (the SlidingWindowSketch contract:
  /// Update rows and Query columns are both this wide).
  size_t dim() const override { return dim_a_ + dim_b_; }

  /// Two-operand convenience: stacks (row_a, row_b) and forwards to the
  /// single-operand Update at the stacked dimension.
  void UpdatePair(std::span<const double> row_a,
                  std::span<const double> row_b, double ts) {
    SWSKETCH_CHECK_EQ(row_a.size(), dim_a_);
    SWSKETCH_CHECK_EQ(row_b.size(), dim_b_);
    stack_scratch_.resize(dim());
    for (size_t j = 0; j < dim_a_; ++j) stack_scratch_[j] = row_a[j];
    for (size_t j = 0; j < dim_b_; ++j) {
      stack_scratch_[dim_a_ + j] = row_b[j];
    }
    Update(stack_scratch_, ts);
  }

  /// Batched two-operand ingest: a.Row(i) and b.Row(i) arrive together at
  /// ts[i]. Stacks once and rides the backend's UpdateBatch fast path.
  void UpdatePairBatch(const Matrix& a, const Matrix& b,
                       std::span<const double> ts) {
    SWSKETCH_CHECK_EQ(a.rows(), b.rows());
    SWSKETCH_CHECK_EQ(a.rows(), ts.size());
    if (a.rows() > 0) {
      SWSKETCH_CHECK_EQ(a.cols(), dim_a_);
      SWSKETCH_CHECK_EQ(b.cols(), dim_b_);
    }
    UpdateBatch(StackOperands(a, b), ts);
  }

  /// The d_a x d_b product estimate for the current window, extracted
  /// from the stacked approximation Query() returns. Cached until
  /// StateVersion() moves (version 0 = untracked = always cold).
  Matrix QueryProduct() {
    metrics_.product_queries->Add();
    const uint64_t version = StateVersion();
    if (version == 0) product_cache_.Invalidate();
    return product_cache_.GetOrCompute(
        version, metrics_.product_cache_hits, metrics_.product_cache_misses,
        [this] { return ComputeProduct(); });
  }

  /// Off-diagonal block extraction: given a stacked approximation `c`
  /// (any row count, d_a + d_b columns), returns the d_a x d_b estimate
  /// (first d_a columns of c)^T x (last d_b columns of c). Accumulates
  /// row-major with the stacked row index outermost, so two sketches
  /// whose states are column-block swaps of each other produce exact
  /// transposes (the transpose-symmetry law the property tests pin).
  static Matrix ProductFromStacked(const Matrix& c, size_t dim_a) {
    SWSKETCH_CHECK_GE(c.cols(), dim_a + 1);
    const size_t dim_b = c.cols() - dim_a;
    Matrix product(dim_a, dim_b);
    for (size_t r = 0; r < c.rows(); ++r) {
      for (size_t i = 0; i < dim_a; ++i) {
        const double left = c(r, i);
        if (left == 0.0) continue;
        for (size_t j = 0; j < dim_b; ++j) {
          product(i, j) += left * c(r, dim_a + j);
        }
      }
    }
    return product;
  }

  /// Horizontal concatenation [a | b] of two row-synchronized operands.
  static Matrix StackOperands(const Matrix& a, const Matrix& b) {
    SWSKETCH_CHECK_EQ(a.rows(), b.rows());
    Matrix stacked(a.rows(), a.cols() + b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
      for (size_t j = 0; j < a.cols(); ++j) stacked(i, j) = a(i, j);
      for (size_t j = 0; j < b.cols(); ++j) {
        stacked(i, a.cols() + j) = b(i, j);
      }
    }
    return stacked;
  }

  /// Read-only handle set into the shared "amm." counters (drivers print
  /// pairs_ingested / product_queries for live stats).
  const MetricSet& metrics() const { return metrics_; }

 protected:
  /// Backend hook for the cold product path. AmmExact computes the exact
  /// A_W^T B_W; stacked backends extract the block from Query().
  virtual Matrix ComputeProduct() = 0;

 private:
  size_t dim_a_;
  size_t dim_b_;
  MetricSet metrics_;
  std::vector<double> stack_scratch_;
  // QueryProduct() result, keyed on StateVersion().
  VersionedCache<uint64_t, Matrix> product_cache_;
};

}  // namespace swsketch

#endif  // SWSKETCH_AMM_AMM_SKETCH_H_

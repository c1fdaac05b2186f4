#include "sketch/frequent_directions.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/tridiag_eigen.h"
#include "linalg/vector_ops.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace swsketch {

namespace {

// Handles resolved once per process; every FD instance shares them (the
// "fd." prefix is per-backend, not per-sketch — LM/DI attribute per-sketch
// work at their own layer). Increments are single relaxed atomic adds.
struct FdMetrics {
  Counter* appends;
  Counter* shrinks;
  Counter* shrink_route_gram_wide;
  Counter* shrink_route_gram_tall;
  Counter* merge_route_tall;
  Counter* merge_route_tree;
  Counter* eigen_route_tridiag;
  Counter* eigen_vectors_inverse;
  Counter* scratch_creates;
  Counter* merges;
  Histogram* shrink_ns;

  static const FdMetrics& Get() {
    static const FdMetrics m = [] {
      MetricScope scope("fd");
      return FdMetrics{scope.counter("appends"),
                       scope.counter("shrinks"),
                       scope.counter("shrink_route_gram_wide"),
                       scope.counter("shrink_route_gram_tall"),
                       scope.counter("merge_route_tall"),
                       scope.counter("merge_route_tree"),
                       scope.counter("eigen_route_tridiag"),
                       scope.counter("eigen_vectors_inverse"),
                       scope.counter("scratch_creates"),
                       scope.counter("merges"),
                       scope.histogram("shrink_ns")};
    }();
    return m;
  }
};

// Everything the Gram-eigen shrink touches between calls. Recycled across
// shrinks and across FD instances so the steady state does no heap
// allocation: each member is reshaped in place via ResetShape / assign,
// which reuse capacity once the largest problem size has been seen.
//
// One workspace per thread (Rebuild's thread_local), created on the
// thread's first shrink. A workspace is live only inside one Rebuild and
// Rebuild never re-enters itself, so two shrinks that share it would have
// to overlap on one thread, which cannot happen: ThreadPool workers run
// one task at a time, a caller waiting in ParallelFor runs no queued
// tasks, and a ParallelFor nested in a pool task runs inline
// (util/parallel.cc). Its contents never influence results.
struct FdShrinkScratch {
  FdShrinkScratch() { FdMetrics::Get().scratch_creates->Add(); }

  Matrix gram;                  // Small-side Gram: n x n (wide) or d x d.
  SymmetricEigenScratch eigen;  // Symmetric eigensolver workspace.
  Matrix lhs;                   // Retained eigenvectors transposed, k x n.
  Matrix product;               // W^T B staging, k x d.
  std::vector<double> row_tmp;  // Tall-route eigenvector column staging.
};

// Cost of an eigensolve per n^3, in units of one Gram multiply-add:
// micro_linalg's BM_TridiagEigenVectors over BM_Gram (see EXPERIMENTS.md
// "Kept eigenvectors only"). The tree's 2ell x 2ell solves keep ell of 2ell
// vectors, which TridiagEigen runs on the accumulated stage (w = 5.7 at
// ell = 32); the tall d x d solve keeps ell of d, on the kept-vector stage
// from d ~ 64 on (w = 2.9 / 2.4 / 1.9 at d = 150 / 200 / 300, ell = 32).
constexpr double kEigenWeight = 5.0;
constexpr double kTallEigenWeight = 2.5;

// MergeAll's route rule: true when one tall shrink of all `rows` stacked
// rows (the summed d x d Gram, one d x d eigensolve) is predicted to cost
// less than the pairwise tree's parts - 1 wide 2ell x 2ell shrinks (Gram
// and W^T B products of 2 ell^2 d each, one 2ell eigensolve).
bool TallMergeIsCheaper(size_t parts, size_t rows, size_t dim, size_t ell) {
  const double d = static_cast<double>(dim);
  const double l = static_cast<double>(ell);
  const double tall = static_cast<double>(rows) * d * d / 2 +
                      kTallEigenWeight * d * d * d;
  const double tree = static_cast<double>(parts - 1) *
                      (4 * l * l * d + kEigenWeight * 8 * l * l * l);
  return tall < tree;
}

}  // namespace

FrequentDirections::FrequentDirections(size_t dim, Options options)
    : FrequentDirections(dim, options, Matrix(0, dim)) {
  b_.ReserveRows(capacity_);
}

FrequentDirections::FrequentDirections(size_t dim, Options options, Matrix b)
    : dim_(dim), options_(options), b_(std::move(b)) {
  SWSKETCH_CHECK_GE(options_.ell, 2u);
  SWSKETCH_CHECK_GE(options_.buffer_factor, 1.0);
  shrink_rank_ = options_.shrink_rank == 0 ? (options_.ell + 1) / 2
                                           : options_.shrink_rank;
  SWSKETCH_CHECK_GE(shrink_rank_, 1u);
  SWSKETCH_CHECK_LE(shrink_rank_, options_.ell);
  capacity_ = std::max(
      options_.ell,
      static_cast<size_t>(options_.buffer_factor *
                          static_cast<double>(options_.ell)));
}

void FrequentDirections::Append(std::span<const double> row, uint64_t) {
  SWSKETCH_CHECK_EQ(row.size(), dim_);
  FdMetrics::Get().appends->Add();
  if (b_.rows() == capacity_) ShrinkWithRank(shrink_rank_);
  b_.AppendRow(row);
  input_mass_ += NormSq(row);
}

void FrequentDirections::AppendBatch(const Matrix& m, size_t begin, size_t end,
                                     uint64_t first_id) {
  SWSKETCH_CHECK_LE(begin, end);
  SWSKETCH_CHECK_LE(end, m.rows());
  const size_t count = end - begin;
  if (count == 0) return;
  if (count == 1 || capacity_ < dim_) {
    // Shrinking an n x d buffer costs O(min(n, d)^2 (n + d)); below d rows
    // that is cubic in n, so batching rows before the shrink makes each
    // shrink more expensive than the per-row schedule saves. Replay the
    // serial path.
    for (size_t i = begin; i < end; ++i) Append(m.Row(i), first_id + (i - begin));
    return;
  }
  // Tall regime: every shrink costs O(d^3) regardless of how many rows are
  // buffered, so append the whole block and pay one shrink instead of up to
  // `count`. The single shrink still sheds >= shrink_rank * lambda of mass,
  // so shed_mass() stays <= input_mass() / shrink_rank.
  FdMetrics::Get().appends->Add(count);
  b_.ReserveRows(b_.rows() + count);
  for (size_t i = begin; i < end; ++i) {
    const auto row = m.Row(i);
    b_.AppendRow(row);
    input_mass_ += NormSq(row);
  }
  if (b_.rows() > capacity_) ShrinkWithRank(shrink_rank_);
}

void FrequentDirections::AppendSparse(const SparseVector& row, uint64_t) {
  SWSKETCH_CHECK_EQ(row.dim(), dim_);
  FdMetrics::Get().appends->Add();
  if (b_.rows() == capacity_) ShrinkWithRank(shrink_rank_);
  thread_local std::vector<double> dense;  // Per thread, like the shrink's.
  dense.assign(dim_, 0.0);
  row.AxpyInto(dense);
  b_.AppendRow(dense);
  input_mass_ += row.NormSq();
}

void FrequentDirections::AppendMatrix(const Matrix& m) {
  // Feed AppendBatch in capacity-sized chunks: the narrow regime replays
  // per-row appends exactly, and the tall regime pays one shrink per chunk
  // while the buffer never transiently exceeds 2 * capacity rows (an
  // unchunked batch would stage the whole matrix before its one shrink).
  const size_t chunk = std::max<size_t>(capacity_, 1);
  for (size_t b = 0; b < m.rows(); b += chunk) {
    AppendBatch(m, b, std::min(m.rows(), b + chunk), 0);
  }
}

void FrequentDirections::ShrinkNow() { ShrinkWithRank(shrink_rank_); }

void FrequentDirections::ShrinkWithRank(size_t rank) {
  if (b_.rows() == 0) return;
  Rebuild(rank, capacity_);
}

void FrequentDirections::Rebuild(
    size_t rank, size_t max_rows,
    std::span<const FrequentDirections* const> parts) {
  const FdMetrics& metrics = FdMetrics::Get();
  metrics.shrinks->Add();
  ScopedTimer timer(metrics.shrink_ns);
  thread_local FdShrinkScratch s;
  ++shrink_count_;
  const size_t n = b_.rows();
  const size_t d = dim_;
  const bool wide = parts.empty() && n <= d;
  (wide ? metrics.shrink_route_gram_wide : metrics.shrink_route_gram_tall)
      ->Add();

  // The spectrum step, shared by both routes. Wide buffer (the streaming
  // steady state): G = B B^T is n x n with n <= capacity << d. Tall buffer
  // (capacity > dim, e.g. merges at small d): G = B^T B is d x d. Either
  // way eigenvalue i of G is sigma_i^2. MergeAll's parts sum into the
  // d x d Gram of their row stack.
  if (wide) {
    b_.GramOuterInto(&s.gram);
  } else if (parts.empty()) {
    b_.GramInto(&s.gram);
  } else {
    s.gram.ResetShape(d, d);
    for (const FrequentDirections* part : parts) {
      part->b_.AddGramUpperTo(&s.gram);
    }
    s.gram.MirrorUpperToLower();
  }
  metrics.eigen_route_tridiag->Add();
  // At most min(max_rows, rank - 1) rows survive (sigma^2 must exceed
  // sigma_rank^2), so only that many eigenvectors are needed.
  const SymmetricEigen& eig =
      TridiagEigen(s.gram, &s.eigen, std::min(max_rows, rank - 1));
  if (s.eigen.inverse_vectors) metrics.eigen_vectors_inverse->Add();
  const size_t r = NumericalRank(eig);
  double lambda = 0.0;
  if (rank <= r) {
    const double sigma = std::sqrt(eig.eigenvalues[rank - 1]);
    lambda = sigma * sigma;
  }
  // Survivor count: eigenvalues are descending, so the retained rows are
  // the prefix with sigma_i^2 > lambda, capped at max_rows.
  size_t k = 0;
  while (k < r && k < max_rows) {
    const double sigma = std::sqrt(eig.eigenvalues[k]);
    if (sigma * sigma - lambda <= 0.0) break;
    ++k;
  }

  if (wide) {
    // An eigenpair (sigma_i^2, w_i) of B B^T gives the right-singular
    // direction v_i^T = (w_i^T B) / ||w_i^T B||, so the shrunk row is
    // sqrt(sigma_i^2 - lambda) * (w_i^T B) / ||w_i^T B|| — ThinSvd's wide
    // route without ever materializing U or V. All k products w_i^T B are
    // computed as one k x n by n x d multiply, which the shared pool
    // partitions by rows when large enough.
    s.lhs.ResetShape(k, n);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < n; ++j) s.lhs(i, j) = eig.eigenvectors(j, i);
    }
    s.lhs.MultiplyRowsInto(b_, 0, &s.product);  // Row i = w_i^T B.
    b_.TruncateRows(0);
    for (size_t i = 0; i < k; ++i) {
      const double sigma = std::sqrt(eig.eigenvalues[i]);
      const double s2 = sigma * sigma - lambda;
      const double norm = std::sqrt(NormSq(s.product.Row(i)));
      if (norm == 0.0) continue;  // Unreachable past the rank cutoff.
      b_.AppendRowScaled(s.product.Row(i), std::sqrt(s2) / norm);
    }
  } else {
    // The eigenvectors of B^T B are the right-singular directions
    // themselves, scaled by sqrt(sigma_i^2 - lambda) — ThinSvd's tall
    // route, minus U.
    b_.TruncateRows(0);
    s.row_tmp.resize(d);
    for (size_t i = 0; i < k; ++i) {
      const double sigma = std::sqrt(eig.eigenvalues[i]);
      const double s2 = sigma * sigma - lambda;
      for (size_t j = 0; j < d; ++j) s.row_tmp[j] = eig.eigenvectors(j, i);
      b_.AppendRowScaled(s.row_tmp, std::sqrt(s2));
    }
  }
  // Every retained direction lost lambda, plus the zeroed tail; the FD
  // error analysis charges lambda once per shrink against the covariance
  // error, which is what accumulates here.
  if (lambda > 0.0) shed_mass_ += lambda;
}

void FrequentDirections::MergeWith(const FrequentDirections& other) {
  FdMetrics::Get().merges->Add();
  SWSKETCH_CHECK_EQ(dim_, other.dim_);
  SWSKETCH_CHECK_EQ(options_.ell, other.options_.ell);

  // Stack the other sketch's rows onto this buffer in place (the reserve
  // keeps row spans valid even when other == this), then shrink back with
  // sigma_{ell+1}^2 so that at most ell rows survive.
  const size_t other_rows = other.b_.rows();
  b_.ReserveRows(b_.rows() + other_rows);
  for (size_t i = 0; i < other_rows; ++i) b_.AppendRow(other.b_.Row(i));

  input_mass_ += other.input_mass_;
  shed_mass_ += other.shed_mass_;

  if (b_.rows() > options_.ell) Rebuild(options_.ell + 1, options_.ell);
}

FrequentDirections FrequentDirections::MergeAll(
    std::span<const FrequentDirections* const> parts) {
  SWSKETCH_CHECK(!parts.empty());
  const FrequentDirections& first = *parts[0];
  size_t rows = 0;
  for (const FrequentDirections* part : parts) {
    SWSKETCH_CHECK_EQ(part->dim_, first.dim_);
    SWSKETCH_CHECK(part->options_.ell == first.options_.ell);
    rows += part->b_.rows();
  }
  const FdMetrics& metrics = FdMetrics::Get();
  const size_t ell = first.options_.ell;
  if (rows <= ell ||
      !TallMergeIsCheaper(parts.size(), rows, first.dim_, ell)) {
    metrics.merge_route_tree->Add();
    return PairwiseMergeTree(parts);
  }
  metrics.merge_route_tall->Add();
  metrics.merges->Add(parts.size() - 1);
  // Tall route: the first part's copy carries the config and the counters
  // MergeWith keeps on its left operand; Rebuild replaces its rows.
  FrequentDirections out = first;
  for (const FrequentDirections* part : parts.subspan(1)) {
    out.input_mass_ += part->input_mass_;
    out.shed_mass_ += part->shed_mass_;
  }
  out.Rebuild(ell + 1, ell, parts);
  return out;
}

namespace {
constexpr uint32_t kFdTag = 0x46440001;  // "FD" marker space.
}  // namespace

void FrequentDirections::Serialize(ByteWriter* writer) const {
  WriteHeader(writer, kFdTag, 2);
  writer->Put<uint64_t>(dim_);
  writer->Put<uint64_t>(options_.ell);
  writer->Put<uint64_t>(options_.shrink_rank);
  writer->Put(options_.buffer_factor);
  writer->Put<uint64_t>(shrink_rank_);
  writer->Put<uint64_t>(shrink_count_);
  b_.Serialize(writer);
  writer->Put(shed_mass_);
  writer->Put(input_mass_);
}

Result<FrequentDirections> FrequentDirections::Deserialize(
    ByteReader* reader) {
  uint32_t tag = 0, version = 0;
  if (!reader->Get(&tag) || !reader->Get(&version) || tag != kFdTag ||
      version != 2) {
    return Status::InvalidArgument("bad FrequentDirections header");
  }
  uint64_t dim = 0, ell = 0, shrink_opt = 0, shrink_resolved = 0, shrinks = 0;
  double buffer_factor = 1.0;
  if (!reader->Get(&dim) || !reader->Get(&ell) || !reader->Get(&shrink_opt) ||
      !reader->Get(&buffer_factor) || !reader->Get(&shrink_resolved) ||
      !reader->Get(&shrinks)) {
    return Status::InvalidArgument("corrupt FrequentDirections payload");
  }
  // The buffer capacity buffer_factor * ell must be a defined size_t.
  if (ell < 2 || shrink_opt > ell || shrink_resolved < 1 ||
      shrink_resolved > ell ||
      !(buffer_factor >= 1.0 && buffer_factor <= kMaxBufferFactor) ||
      !(buffer_factor * static_cast<double>(ell) < 0x1p63)) {
    return Status::InvalidArgument("invalid FrequentDirections config");
  }
  auto b = Matrix::Deserialize(reader);
  if (!b.ok()) return b.status();
  if (b->cols() != dim) {
    return Status::InvalidArgument("corrupt FrequentDirections payload");
  }
  FrequentDirections fd(dim, Options{.ell = ell, .shrink_rank = shrink_opt,
                                     .buffer_factor = buffer_factor},
                        b.take());
  if (!reader->Get(&fd.shed_mass_) || !reader->Get(&fd.input_mass_) ||
      fd.b_.rows() > fd.capacity_) {
    return Status::InvalidArgument("corrupt FrequentDirections payload");
  }
  fd.shrink_rank_ = shrink_resolved;
  fd.shrink_count_ = shrinks;
  return fd;
}

}  // namespace swsketch

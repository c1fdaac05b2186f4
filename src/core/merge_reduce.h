// Backend-aware reduction of per-shard window approximations into one
// approximation of the union window. This is the query half of sharded
// ingest (DESIGN.md section 8): each shard answers Query() for its
// sub-stream, and the paper's composition properties say how to combine
// the answers —
//
//  - kStack: decomposability (Lemma 7.1). Stacking [B_1; ...; B_S]
//    preserves every per-shard guarantee additively; the output grows to
//    sum_i rows(B_i). Correct for every backend, used where no tighter
//    combiner exists (DI covers, samplers, exact buffers).
//  - kSum: linear sketches of fixed shape (LM-HASH buckets, LM-RP
//    projections). Per-shard seeds are independent, so the cross terms of
//    the summed sketch vanish in expectation and the output keeps the
//    single-sketch shape.
//  - kFdMerge: FD mergeability (Section 6.1). Feeding both operands
//    through one FD at reduce_ell rows sheds at most the sum of the
//    operands' shed mass, so the merged bound telescopes up the tree.
//  - kPriorityUnion: max-stability of sampler priorities. A row in the
//    union window's top keep is also in its own shard's top keep, so per
//    chain the top-keep candidates across the shards are a sample of the
//    union window with the single-sketch ell rows (swr, swor). It reads
//    the shards' candidates rather than their Query() matrices, so it is
//    not a pairwise reduce: WindowSampler::PriorityUnionQuery serves it,
//    CombineQueryPair rejects it.
//
// Determinism: CombineQueryPair is a pure function of its operands, and
// TreeReduceQueries is PairwiseTreeReduce (util/parallel.h), the LM merge
// tree (pairing depends only on the leaf count, never on scheduling), so
// pool execution is byte-identical to a serial left-to-right evaluation of
// the same tree.
#ifndef SWSKETCH_CORE_MERGE_REDUCE_H_
#define SWSKETCH_CORE_MERGE_REDUCE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/parallel.h"

namespace swsketch {

enum class QueryReduceKind : uint8_t {
  kStack = 0,
  kSum = 1,
  kFdMerge = 2,
  kPriorityUnion = 3,
};

struct QueryReduceSpec {
  QueryReduceKind kind = QueryReduceKind::kStack;
  /// kFdMerge only: rows the reduced sketch keeps (per-node FD size).
  size_t reduce_ell = 0;
};

/// The reduction for a factory algorithm name (`ell` = SketchConfig::ell):
/// lm-fd / di-fd -> kFdMerge at ell / 2*ell rows (a DI cover carries up to
/// ~2*ell rows, so halving it at the reduce would discard accuracy the
/// shards paid for); lm-hash / lm-rp -> kSum; swr / swor -> kPriorityUnion;
/// everything else -> kStack. swor-all stacks: its answer is every
/// candidate, and the shards' candidate sets together are a superset of
/// the union stream's candidates, not that set.
/// FD-backed AMM wrappers (amm-co-fd / amm-lm-fd / amm-di-fd) follow their
/// underlying backend — their Query() is the stacked [A | B] approximation,
/// which FD-merges at the stacked dimension like any covariance sketch.
QueryReduceSpec ReduceSpecFor(const std::string& algorithm, size_t ell);

/// Combines the approximations of two disjoint sub-streams. Either operand
/// may be empty (0 rows, the empty-window convention), in which case the
/// other is returned unchanged. kPriorityUnion is not accepted.
Matrix CombineQueryPair(const QueryReduceSpec& spec, size_t dim,
                        const Matrix& a, const Matrix& b);

/// Deterministic pairwise reduction tree over per-shard approximations in
/// shard order: level 0 combines (parts[2p], parts[2p+1]) into node p, and
/// so on up. Inner nodes run concurrently on `pool` (nullptr = shared
/// pool) but each writes only its own slot, so the result is byte-identical
/// to serial evaluation. Returns Matrix(0, dim) for no parts.
Matrix TreeReduceQueries(const QueryReduceSpec& spec, size_t dim,
                         std::vector<Matrix> parts, ThreadPool* pool);

}  // namespace swsketch

#endif  // SWSKETCH_CORE_MERGE_REDUCE_H_

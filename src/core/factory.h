// Name-based construction of sliding-window sketches, used by benches,
// examples and integration tests to sweep algorithms uniformly. Every
// sketch, heap or arena, is built through SketchPrototype: one algorithm
// dispatch that validates the SketchConfig before any constructor runs.
#ifndef SWSKETCH_CORE_FACTORY_H_
#define SWSKETCH_CORE_FACTORY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sliding_window_sketch.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// Union of the knobs of every algorithm; each algorithm reads the subset
/// it understands.
struct SketchConfig {
  /// One of: swr, swor, swor-all, lm-fd, ds-fd, lm-hash, lm-rp, di-fd,
  /// di-rp, di-hash, exact, best, or a two-operand AMM backend:
  /// amm-exact, amm-co-fd, amm-lm-fd, amm-di-fd (src/amm/). AMM sketches
  /// run at the stacked dimension d = d_a + d_b; see amm_dim_a.
  std::string algorithm = "lm-fd";

  /// Sample count (samplers), FD rows per block (LM-FD), top-level size
  /// (DI-*), hash buckets (LM-HASH), or k (best).
  size_t ell = 32;

  /// LM: blocks per level (b ~ 1/epsilon).
  size_t blocks_per_level = 8;

  /// LM: block capacity in squared-norm mass. 0 means ell — the paper's
  /// convention, which assumes row norms of order 1. When typical norms
  /// are far from 1, set this to ell * (typical squared norm) so level-1
  /// blocks hold about ell rows and the FD amortization works as analyzed.
  double lm_block_capacity = 0.0;

  /// DI: number of dyadic levels (L ~ log2(R / epsilon)).
  size_t levels = 6;

  /// DI: a-priori bound R on squared row norms.
  double max_norm_sq = 1.0;

  /// FD-based algorithms (lm-fd, di-fd): amortized-shrink buffer factor.
  /// Each FD instance may hold up to fd_buffer_factor * (its ell) rows
  /// before shrinking (Desai et al.), halving SVD frequency at 2.0. Must
  /// be in [1, 1e6] (FrequentDirections::kMaxBufferFactor); 1 disables
  /// buffering.
  double fd_buffer_factor = 1.0;

  /// DS-FD: snapshot ladder density k — a snapshot is dumped every
  /// F_hat / k of window mass, so the boundary leak is about 1/k of the
  /// window's squared Frobenius norm; 0 auto-scales with ell
  /// (see DsFd::Options::snapshots_per_window).
  size_t ds_snapshots_per_window = 0;

  /// DS-FD: spectral truncation of dumped snapshots relative to the
  /// ladder quantum F_hat / k; 0 disables truncation.
  double ds_snapshot_trunc = 0.25;

  /// DS-FD: internal frame-FD oversize; the per-frame FD runs at
  /// round(factor * ell) directions, dim-capped, while Query output stays
  /// <= ell (see DsFd::Options::frame_ell_factor).
  double ds_frame_ell_factor = 1.5;

  /// DS-FD: buffer_factor of the internal frame FDs, separate from the
  /// global fd_buffer_factor because frame FDs are long-lived
  /// single-writer instances that benefit from amortized shrinks by
  /// default (see DsFd::Options::fd_buffer_factor; dim-capped capacity).
  double ds_fd_buffer_factor = 3.0;

  /// Samplers and DS-FD: exponential-histogram error for the ||A||_F^2
  /// tracker, or exact tracking when exact_frobenius is set.
  double frobenius_eps = 0.05;
  bool exact_frobenius = false;

  /// AMM backends only: columns of the first operand A inside the stacked
  /// dimension passed to the factory (operand B gets dim - amm_dim_a).
  /// 0 (the default) splits the stacked dimension evenly, dim / 2.
  /// Must satisfy 0 < amm_dim_a < dim; AMM requires dim >= 2.
  size_t amm_dim_a = 0;

  uint64_t seed = 1;

  bool operator==(const SketchConfig&) const = default;
};

/// Builds the sketch named by `config.algorithm` from a fresh
/// SketchPrototype, or returns its InvalidArgument (unknown name,
/// incompatible window type — DI requires sequence windows — or an
/// out-of-range config field).
Result<std::unique_ptr<SlidingWindowSketch>> MakeSlidingWindowSketch(
    size_t dim, WindowSpec window, const SketchConfig& config);

/// All algorithm names the factory accepts.
std::vector<std::string> KnownAlgorithms();

/// Reloads a sketch serialized with SlidingWindowSketch::SerializeTo: the
/// one load path. It reads the wire header into (dim, window, config),
/// builds an empty sketch from SketchPrototype::Make — which validates the
/// header like any config — and loads the state payload into it. Any byte
/// string yields either a sketch or InvalidArgument.
Result<std::unique_ptr<SlidingWindowSketch>> DeserializeSlidingWindowSketch(
    ByteReader* reader);

/// The one construction path: Make() is the only place that maps an
/// algorithm name to a sketch type, its options and its constructor
/// arguments. It validates the config, then resolves the options and the
/// metric-registry handles ONCE, and stamps instances from them either
/// into caller-provided storage (ConstructAt, the TenantManager arena
/// path) or on the heap (Construct;
/// MakeSlidingWindowSketch is a one-instance prototype). A multi-tenant
/// manager constructing 100k identical sketches pays the registry mutex
/// and name dispatch once here instead of once per tenant.
///
/// Instances of one prototype may be driven from different threads: the
/// metric handles they share are atomic, and the FD shrink workspace is
/// per thread, not per prototype (sketch/frequent_directions.cc).
///
/// The caller owns ConstructAt storage: instance_size() bytes at
/// instance_align() alignment per instance, destruction via the virtual
/// destructor (sketch->~SlidingWindowSketch()).
class SketchPrototype {
 public:
  /// Returns InvalidArgument for unknown names, incompatible window types,
  /// out-of-range config fields and configs whose instances would reserve
  /// more than 1 GiB up front, before any constructor runs.
  static Result<SketchPrototype> Make(size_t dim, WindowSpec window,
                                      const SketchConfig& config);

  /// Slab footprint of one instance (fixed per prototype).
  size_t instance_size() const { return size_; }
  size_t instance_align() const { return align_; }

  /// True when instances support SerializeTo / DeserializeAt (the
  /// algorithms DeserializeSlidingWindowSketch can reload).
  bool serializable() const { return serializable_; }

  size_t dim() const { return dim_; }
  const WindowSpec& window() const { return window_; }

  /// Placement-constructs a fresh empty sketch into `mem`.
  SlidingWindowSketch* ConstructAt(void* mem) const { return construct_(mem); }

  /// Heap-constructs a fresh empty sketch (same arguments as ConstructAt).
  std::unique_ptr<SlidingWindowSketch> Construct() const { return make_(); }

  /// Placement-deserializes a sketch previously written with SerializeTo
  /// into `mem`: constructs an instance like ConstructAt, then loads the
  /// state payload into it. A header whose dim, window or config differs
  /// from this prototype's is InvalidArgument. On error nothing is left
  /// constructed and `mem` stays free. Requires serializable().
  Result<SlidingWindowSketch*> DeserializeAt(void* mem,
                                             ByteReader* reader) const;

 private:
  SketchPrototype() = default;

  // Make minus the footprint bound and the stored config: one branch per
  // algorithm.
  static Result<SketchPrototype> Dispatch(size_t dim, WindowSpec window,
                                          const SketchConfig& config);

  // The per-type recipe: footprint and the placement and heap
  // constructors over the same captured constructor arguments.
  template <typename T, typename... Args>
  static SketchPrototype Of(size_t dim, WindowSpec window, Args... args);

  std::function<SlidingWindowSketch*(void*)> construct_;
  std::function<std::unique_ptr<SlidingWindowSketch>()> make_;
  bool serializable_ = false;
  size_t size_ = 0;
  size_t align_ = 0;
  size_t dim_ = 0;
  WindowSpec window_ = WindowSpec::Sequence(1);
  // The validated config as a wire header maps it back (amm_dim_a
  // resolved), so DeserializeAt can compare a header against it.
  SketchConfig config_;
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_FACTORY_H_

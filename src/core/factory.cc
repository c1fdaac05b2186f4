#include "core/factory.h"

#include <cmath>
#include <memory>
#include <new>
#include <utility>

#include "amm/amm_exact.h"
#include "amm/amm_stacked.h"
#include "core/best_rank_k.h"
#include "core/dump_snapshot.h"
#include "core/dyadic_interval.h"
#include "core/exact_window.h"
#include "core/logarithmic_method.h"
#include "core/swor.h"
#include "core/swr.h"
#include "sketch/frequent_directions.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace swsketch {

namespace {

// Config checks: each mirrors a constructor CHECK that a SketchConfig field
// can reach, so a bad field comes back as InvalidArgument before anything
// is built instead of aborting in a constructor (or at the first block
// close). Bounds are written as !(x >= lo) so that NaN fails too. Fixed
// messages go through one out-of-line Invalid() to keep error paths small.
Status Invalid(const char* what) { return Status::InvalidArgument(what); }

Status CheckFd(size_t ell, double buffer_factor, const char* field) {
  if (ell < 2) return Invalid("FD-based sketches need ell >= 2");
  return CheckFdBuffer(buffer_factor, field);
}

Status CheckLm(const SketchConfig& c) {
  if (c.blocks_per_level < 2) {
    return Invalid("blocks_per_level must be >= 2");
  }
  return Status::OK();
}

Status CheckDsFd(const SketchConfig& c) {
  if (Status s = CheckFd(c.ell, c.ds_fd_buffer_factor, "ds_fd_buffer_factor");
      !s.ok()) {
    return s;
  }
  if (Status s = CheckDsFdFrame(c.ds_frame_ell_factor, c.ds_snapshot_trunc);
      !s.ok()) {
    return s;
  }
  return CheckFrobeniusEps(c.frobenius_eps);
}

// DI runs on sequence windows only (Section 7).
Status CheckDi(const WindowSpec& window, const SketchConfig& c,
               const std::string& algo) {
  if (window.type() != WindowType::kSequence) {
    return Status::InvalidArgument(
        algo + " supports sequence-based windows only (Section 7)");
  }
  return CheckDiLevels(static_cast<uint64_t>(window.extent()), c.levels,
                       c.max_norm_sq);
}

// Resolves SketchConfig::amm_dim_a against the stacked dimension.
Result<size_t> ResolveAmmDimA(size_t dim, const SketchConfig& config) {
  if (dim < 2) {
    return Status::InvalidArgument(
        "AMM needs a stacked dimension of at least 2 (one column per "
        "operand)");
  }
  const size_t dim_a = config.amm_dim_a == 0 ? dim / 2 : config.amm_dim_a;
  if (dim_a == 0 || dim_a >= dim) {
    return Status::InvalidArgument(
        "amm_dim_a must satisfy 0 < amm_dim_a < dim");
  }
  return dim_a;
}

// Constructor argument that stands for a fresh heap sketch per instance:
// the sketch an AmmStacked wrapper owns. Every other argument is passed
// through unchanged.
struct InnerSketch {
  std::shared_ptr<const SketchPrototype> proto;
};

template <typename A>
const A& Fresh(const A& arg) {
  return arg;
}

std::unique_ptr<SlidingWindowSketch> Fresh(const InnerSketch& inner) {
  return inner.proto->Construct();
}

template <typename T>
Result<std::unique_ptr<SlidingWindowSketch>> LoadAs(ByteReader* reader) {
  auto loaded = T::Deserialize(reader);
  if (!loaded.ok()) return loaded.status();
  return std::unique_ptr<SlidingWindowSketch>(
      std::make_unique<T>(std::move(loaded.take())));
}

// Placement counterpart of LoadAs: deserializes T and move-constructs it
// into caller storage. On a corrupt payload nothing is constructed.
template <typename T>
Result<SlidingWindowSketch*> PlacementLoad(void* mem, ByteReader* reader) {
  auto loaded = T::Deserialize(reader);
  if (!loaded.ok()) return loaded.status();
  return static_cast<SlidingWindowSketch*>(
      new (mem) T(std::move(loaded.take())));
}

}  // namespace

Status CheckFrobeniusEps(double frobenius_eps) {
  if (!(frobenius_eps > 0.0 && frobenius_eps < 1.0)) {
    return Invalid("frobenius_eps must be in (0, 1)");
  }
  return Status::OK();
}

Status CheckFdBuffer(double buffer_factor, const char* field) {
  if (!(buffer_factor >= 1.0 &&
        buffer_factor <= FrequentDirections::kMaxBufferFactor)) {
    return Status::InvalidArgument(std::string(field) + " must be in [1, 1e6]");
  }
  return Status::OK();
}

Status CheckDsFdFrame(double frame_ell_factor, double snapshot_trunc) {
  if (!(frame_ell_factor >= 1.0)) {
    return Invalid("ds_frame_ell_factor must be >= 1");
  }
  if (!(snapshot_trunc >= 0.0)) {
    return Invalid("ds_snapshot_trunc must be >= 0");
  }
  return Status::OK();
}

// Level i closes every 2^(i-1) level-1 blocks, so at most 63 levels fit a
// uint64_t span.
Status CheckDiLevels(uint64_t window_size, uint64_t levels,
                     double max_norm_sq) {
  if (levels < 1 || levels > 63) {
    return Invalid("levels must be in [1, 63]");
  }
  // The level-1 block capacity N * R / 2^L must come out positive.
  const double level1_capacity = static_cast<double>(window_size) *
                                 max_norm_sq /
                                 std::ldexp(1.0, static_cast<int>(levels));
  if (!(level1_capacity > 0.0)) {
    return Invalid("max_norm_sq must be positive");
  }
  return Status::OK();
}

Result<std::unique_ptr<SlidingWindowSketch>> MakeSlidingWindowSketch(
    size_t dim, WindowSpec window, const SketchConfig& config) {
  // A fresh prototype per sketch: its FD shrink workspace is never shared
  // with another heap sketch (ShardedSketch drives one per writer thread).
  auto proto = SketchPrototype::Make(dim, window, config);
  if (!proto.ok()) return proto.status();
  return proto->Construct();
}

Result<std::unique_ptr<SlidingWindowSketch>> DeserializeSlidingWindowSketch(
    ByteReader* reader) {
  uint32_t tag = 0;
  if (!reader->Peek(&tag)) {
    return Status::InvalidArgument("empty sketch payload");
  }
  switch (tag) {
    case SwrSketch::kSerialTag: return LoadAs<SwrSketch>(reader);
    case SworSketch::kSerialTag: return LoadAs<SworSketch>(reader);
    case LmFd::kSerialTag: return LoadAs<LmFd>(reader);
    case LmHash::kSerialTag: return LoadAs<LmHash>(reader);
    case DiFd::kSerialTag: return LoadAs<DiFd>(reader);
    case DsFd::kSerialTag: return LoadAs<DsFd>(reader);
    case AmmExact::kSerialTag: return LoadAs<AmmExact>(reader);
    case AmmStacked::kSerialTag: return LoadAs<AmmStacked>(reader);
    default:
      return Status::InvalidArgument("unknown sketch serialization tag");
  }
}

template <typename T, typename... Args>
SketchPrototype SketchPrototype::Of(size_t dim, WindowSpec window,
                                    Args... args) {
  SketchPrototype proto;
  proto.dim_ = dim;
  proto.window_ = window;
  proto.size_ = sizeof(T);
  proto.align_ = alignof(T);
  proto.construct_ = [args...](void* mem) -> SlidingWindowSketch* {
    return new (mem) T(Fresh(args)...);
  };
  proto.make_ = [args...]() -> std::unique_ptr<SlidingWindowSketch> {
    return std::make_unique<T>(Fresh(args)...);
  };
  if constexpr (requires { T::kSerialTag; }) {
    proto.deserialize_ = &PlacementLoad<T>;
  }
  return proto;
}

Result<SketchPrototype> SketchPrototype::Make(size_t dim, WindowSpec window,
                                              const SketchConfig& config) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (config.ell == 0) return Status::InvalidArgument("ell must be positive");
  const std::string& a = config.algorithm;

  // One branch per algorithm: validate the fields it reads, then resolve
  // its options, metric handles and FD shrink workspace once. Every
  // instance (placement or heap) is built from these same arguments.
  if (a == "swr") {
    if (Status s = CheckFrobeniusEps(config.frobenius_eps); !s.ok()) {
      return s;
    }
    return Of<SwrSketch>(dim, window, dim, window,
                         SwrSketch::Options{
                             .ell = config.ell,
                             .frobenius_eps = config.frobenius_eps,
                             .exact_frobenius = config.exact_frobenius,
                             .seed = config.seed});
  }
  if (a == "swor" || a == "swor-all") {
    if (Status s = CheckFrobeniusEps(config.frobenius_eps); !s.ok()) {
      return s;
    }
    return Of<SworSketch>(
        dim, window, dim, window,
        SworSketch::Options{
            .ell = config.ell,
            .query_mode = a == "swor-all" ? SworSketch::QueryMode::kAll
                                          : SworSketch::QueryMode::kTopEll,
            .frobenius_eps = config.frobenius_eps,
            .exact_frobenius = config.exact_frobenius,
            .seed = config.seed});
  }
  if (a == "lm-fd") {
    if (Status s = CheckLm(config); !s.ok()) return s;
    if (Status s =
            CheckFd(config.ell, config.fd_buffer_factor, "fd_buffer_factor");
        !s.ok()) {
      return s;
    }
    return Of<LmFd>(dim, window, dim, window,
                    LmFd::Options{.ell = config.ell,
                                  .blocks_per_level = config.blocks_per_level,
                                  .block_capacity = config.lm_block_capacity,
                                  .fd_buffer_factor = config.fd_buffer_factor},
                    LmFd::MetricSet(MetricScope(MetricScope::Slug("LM-FD"))),
                    FrequentDirections::MakeShrinkScratch());
  }
  if (a == "ds-fd") {
    if (Status s = CheckDsFd(config); !s.ok()) return s;
    return Of<DsFd>(
        dim, window, dim, window,
        DsFd::Options{.ell = config.ell,
                      .snapshots_per_window = config.ds_snapshots_per_window,
                      .snapshot_trunc = config.ds_snapshot_trunc,
                      .frame_ell_factor = config.ds_frame_ell_factor,
                      .fd_buffer_factor = config.ds_fd_buffer_factor,
                      .frobenius_eps = config.frobenius_eps,
                      .exact_frobenius = config.exact_frobenius},
        DsFd::MetricSet(MetricScope(MetricScope::Slug("DS-FD"))),
        FrequentDirections::MakeShrinkScratch());
  }
  if (a == "lm-hash") {
    if (Status s = CheckLm(config); !s.ok()) return s;
    return Of<LmHash>(
        dim, window, dim, window,
        LmHash::Options{.ell = config.ell,
                        .blocks_per_level = config.blocks_per_level,
                        .block_capacity = config.lm_block_capacity,
                        .seed = config.seed},
        LmHash::MetricSet(MetricScope(MetricScope::Slug("LM-HASH"))));
  }
  if (a == "lm-rp") {
    if (Status s = CheckLm(config); !s.ok()) return s;
    return Of<LmRp>(dim, window, dim, window,
                    LmRp::Options{.ell = config.ell,
                                  .blocks_per_level = config.blocks_per_level,
                                  .block_capacity = config.lm_block_capacity,
                                  .seed = config.seed});
  }
  if (a == "di-fd") {
    // No CheckFd on ell: LevelEll clamps every level to >= 2 rows.
    if (Status s = CheckDi(window, config, a); !s.ok()) return s;
    if (Status s = CheckFdBuffer(config.fd_buffer_factor, "fd_buffer_factor");
        !s.ok()) {
      return s;
    }
    return Of<DiFd>(
        dim, window, dim,
        DiFd::Options{.levels = config.levels,
                      .window_size = static_cast<uint64_t>(window.extent()),
                      .max_norm_sq = config.max_norm_sq,
                      .ell_top = config.ell,
                      .fd_buffer_factor = config.fd_buffer_factor},
        DiFd::MetricSet(MetricScope(MetricScope::Slug("DI-FD"))),
        FrequentDirections::MakeShrinkScratch());
  }
  if (a == "di-rp") {
    if (Status s = CheckDi(window, config, a); !s.ok()) return s;
    return Of<DiRp>(
        dim, window, dim,
        DiRp::Options{.levels = config.levels,
                      .window_size = static_cast<uint64_t>(window.extent()),
                      .max_norm_sq = config.max_norm_sq,
                      .ell_top = config.ell,
                      .seed = config.seed});
  }
  if (a == "di-hash") {
    if (Status s = CheckDi(window, config, a); !s.ok()) return s;
    return Of<DiHash>(
        dim, window, dim,
        DiHash::Options{.levels = config.levels,
                        .window_size = static_cast<uint64_t>(window.extent()),
                        .max_norm_sq = config.max_norm_sq,
                        .ell_top = config.ell,
                        .seed = config.seed});
  }
  if (a == "exact") return Of<ExactWindow>(dim, window, dim, window);
  if (a == "best") return Of<BestRankK>(dim, window, dim, window, config.ell);
  // AMM: amm-exact keeps both operands; the stacked backends wrap a
  // single-operand sketch at the stacked dimension.
  const char* stacked = a == "amm-co-fd"   ? "ds-fd"
                        : a == "amm-lm-fd" ? "lm-fd"
                        : a == "amm-di-fd" ? "di-fd"
                                           : nullptr;
  if (a == "amm-exact" || stacked != nullptr) {
    auto dim_a = ResolveAmmDimA(dim, config);
    if (!dim_a.ok()) return dim_a.status();
    const AmmSketch::MetricSet metrics{MetricScope("amm")};
    if (stacked == nullptr) {
      return Of<AmmExact>(dim, window, *dim_a, dim - *dim_a, window, metrics);
    }
    // The inner prototype validates the config; each instance then owns a
    // fresh heap inner sketch, since its size varies by backend and only
    // the fixed-size wrapper sits in an arena slab.
    SketchConfig inner = config;
    inner.algorithm = stacked;
    auto inner_proto = Make(dim, window, inner);
    if (!inner_proto.ok()) return inner_proto.status();
    return Of<AmmStacked>(
        dim, window, *dim_a, dim - *dim_a,
        InnerSketch{std::make_shared<const SketchPrototype>(
            inner_proto.take())},
        metrics);
  }
  return Status::InvalidArgument("unknown algorithm: " + a);
}

std::vector<std::string> KnownAlgorithms() {
  return {"swr",      "swor",  "swor-all",  "lm-fd",     "ds-fd",
          "lm-hash",  "lm-rp", "di-fd",     "di-rp",     "di-hash",
          "exact",    "best",  "amm-exact", "amm-co-fd", "amm-lm-fd",
          "amm-di-fd"};
}

}  // namespace swsketch

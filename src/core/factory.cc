#include "core/factory.h"

#include <algorithm>
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
#include "core/window_sampler.h"
#include "sketch/frequent_directions.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace swsketch {

namespace {

// Config checks: each mirrors a constructor CHECK that a SketchConfig field
// can reach, so a bad field comes back as InvalidArgument before anything
// is built instead of aborting in a constructor (or at the first block
// close). Make is their only caller, on configs from callers and from wire
// headers alike. Bounds are written as !(x >= lo) so that NaN fails too.
// Fixed messages go through one out-of-line Invalid() to keep error paths
// small.
Status Invalid(const char* what) { return Status::InvalidArgument(what); }

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
  if (!(c.ds_frame_ell_factor >= 1.0)) {
    return Invalid("ds_frame_ell_factor must be >= 1");
  }
  if (!(c.ds_snapshot_trunc >= 0.0)) {
    return Invalid("ds_snapshot_trunc must be >= 0");
  }
  return CheckFrobeniusEps(c.frobenius_eps);
}

// DI runs on sequence windows only (Section 7). Level i closes every
// 2^(i-1) level-1 blocks, so at most 63 levels fit a uint64_t span.
Status CheckDi(const WindowSpec& window, const SketchConfig& c,
               const std::string& algo) {
  if (window.type() != WindowType::kSequence) {
    return Status::InvalidArgument(
        algo + " supports sequence-based windows only (Section 7)");
  }
  if (window.extent() > WindowSpec::kMaxSequenceExtent) {
    return Invalid("DI window size must be at most 2^53");
  }
  if (c.levels < 1 || c.levels > 63) {
    return Invalid("levels must be in [1, 63]");
  }
  // The level-1 block capacity N * R / 2^L must come out positive.
  const double level1_capacity =
      window.extent() * c.max_norm_sq /
      std::ldexp(1.0, static_cast<int>(c.levels));
  if (!(level1_capacity > 0.0)) {
    return Invalid("max_norm_sq must be positive");
  }
  return Status::OK();
}

// Every config Make accepts must construct and ingest, so the memory one
// instance reserves before its first query — a row, each FD buffer's
// capacity x dim doubles, one deque per SWR chain — is bounded up front.
// The estimate runs in double, before any size_t cast can wrap. AMM
// wrappers are bounded through the inner sketch's own Make.
constexpr double kMaxInstanceBytes = 1 << 30;
// sizeof(std::deque) plus the map and the 512-byte node an empty libstdc++
// deque allocates.
constexpr double kDequeBytes = 656.0;

Status CheckFootprint(size_t dim, const SketchConfig& c) {
  const double d = static_cast<double>(dim);
  const double ell = static_cast<double>(c.ell);
  const double levels = static_cast<double>(c.levels);
  const std::string& a = c.algorithm;
  double rows = 1.0;  // Every sketch holds at least one row.
  if (a == "lm-fd") {
    rows = ell * c.fd_buffer_factor;
  } else if (a == "di-fd") {
    rows = levels * std::max(ell, 2.0) * c.fd_buffer_factor;
  } else if (a == "ds-fd") {
    rows = std::max(ell, d);  // Frame FD: at most max(ell, dim) rows.
  } else if (a == "lm-hash" || a == "lm-rp") {
    rows = ell;
  } else if (a == "di-rp" || a == "di-hash") {
    rows = levels * ell;
  }
  double bytes = rows * d * sizeof(double);
  if (a == "swr") bytes += ell * kDequeBytes;
  if (!(bytes <= kMaxInstanceBytes)) {
    return Invalid("config reserves more than 1 GiB per sketch instance");
  }
  return Status::OK();
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

// What a wire header carries: everything Make needs to build the empty
// sketch that the state payload after it loads into.
struct WireHeader {
  size_t dim = 0;
  WindowSpec window = WindowSpec::Sequence(1);
  SketchConfig config;
};

static_assert(sizeof(size_t) == sizeof(uint64_t),
              "wire headers store sizes as uint64_t");

bool GetWindow(ByteReader* reader, WindowSpec* window) {
  auto read = WindowSpec::Deserialize(reader);
  if (read.ok()) *window = *read;
  return read.ok();
}

// Reads the (tag, version, config) header that each type's SerializeTo
// writes, mapping its fields onto header->config and leaving the others
// as they are: a header written by an instance of a prototype reads back
// equal to that prototype's config. Only the framing is checked here;
// Make range-checks the values.
Status ReadWireHeader(ByteReader* reader, WireHeader* header) {
  uint32_t tag = 0, version = 0;
  if (!reader->Get(&tag) || !reader->Get(&version)) {
    return Invalid("empty sketch payload");
  }
  SketchConfig& c = header->config;
  uint8_t flag = 0;
  bool ok = false;
  switch (tag) {
    case WindowSampler::kSerialTag:
    case WindowSampler::kSworSerialTag: {
      const bool swor = tag == WindowSampler::kSworSerialTag;
      uint8_t all = 0;
      ok = version == 1 && reader->Get(&header->dim) &&
           GetWindow(reader, &header->window) && reader->Get(&c.ell) &&
           (!swor || reader->Get(&all)) && reader->Get(&c.frobenius_eps) &&
           reader->Get(&flag) && reader->Get(&c.seed);
      c.algorithm = !swor ? "swr" : all != 0 ? "swor-all" : "swor";
      c.exact_frobenius = flag != 0;
      break;
    }
    case LmFd::kSerialTag:
    case LmHash::kSerialTag: {
      const bool fd = tag == LmFd::kSerialTag;
      ok = version == (fd ? 2u : 1u) && reader->Get(&header->dim) &&
           GetWindow(reader, &header->window) && reader->Get(&c.ell) &&
           reader->Get(&c.blocks_per_level) &&
           reader->Get(&c.lm_block_capacity) &&
           (fd ? reader->Get(&c.fd_buffer_factor) : reader->Get(&c.seed));
      c.algorithm = fd ? "lm-fd" : "lm-hash";
      break;
    }
    case DiFd::kSerialTag: {
      // DI-FD's window is its size N; ell_min is not a SketchConfig field,
      // so a header must carry the one value the factory builds with.
      uint64_t window_size = 0, ell_min = 0;
      ok = version == 2 && reader->Get(&header->dim) &&
           reader->Get(&c.levels) && reader->Get(&window_size) &&
           reader->Get(&c.max_norm_sq) && reader->Get(&c.ell) &&
           reader->Get(&ell_min) && reader->Get(&c.fd_buffer_factor) &&
           window_size >= 1 && ell_min == DiFd::Options{}.ell_min;
      if (ok) header->window = WindowSpec::Sequence(window_size);
      c.algorithm = "di-fd";
      break;
    }
    case DsFd::kSerialTag:
      ok = version == 1 && reader->Get(&header->dim) &&
           GetWindow(reader, &header->window) && reader->Get(&c.ell) &&
           reader->Get(&c.ds_snapshots_per_window) &&
           reader->Get(&c.ds_snapshot_trunc) &&
           reader->Get(&c.ds_frame_ell_factor) &&
           reader->Get(&c.ds_fd_buffer_factor) &&
           reader->Get(&c.frobenius_eps) && reader->Get(&flag);
      c.algorithm = "ds-fd";
      c.exact_frobenius = flag != 0;
      break;
    case AmmExact::kSerialTag:
    case AmmStacked::kSerialTag: {
      // Operand widths, then amm-exact's window or the wrapped sketch's
      // own header. The header carries the resolved split, so a zero
      // width is corrupt; Make rejects widths whose sum wraps.
      uint64_t dim_b = 0;
      uint32_t inner = 0;
      ok = version == 1 && reader->Get(&c.amm_dim_a) && reader->Get(&dim_b) &&
           c.amm_dim_a != 0;
      if (ok && tag == AmmExact::kSerialTag) {
        ok = GetWindow(reader, &header->window);
        c.algorithm = "amm-exact";
      } else if (ok && reader->Peek(&inner) &&
                 (inner == DsFd::kSerialTag || inner == LmFd::kSerialTag ||
                  inner == DiFd::kSerialTag)) {
        const size_t dim_a = c.amm_dim_a;
        if (Status s = ReadWireHeader(reader, header); !s.ok()) return s;
        c.algorithm = inner == DsFd::kSerialTag   ? "amm-co-fd"
                      : inner == LmFd::kSerialTag ? "amm-lm-fd"
                                                  : "amm-di-fd";
        c.amm_dim_a = dim_a;
        ok = header->dim == dim_a + dim_b;
      } else {
        ok = false;
      }
      header->dim = c.amm_dim_a + dim_b;
      break;
    }
    default:
      return Invalid("unknown sketch serialization tag");
  }
  return ok ? Status::OK() : Invalid("corrupt sketch header");
}

}  // namespace

Result<std::unique_ptr<SlidingWindowSketch>> MakeSlidingWindowSketch(
    size_t dim, WindowSpec window, const SketchConfig& config) {
  // A one-instance prototype: the same construction path as the arena's
  // (ShardedSketch drives one such sketch per writer thread).
  auto proto = SketchPrototype::Make(dim, window, config);
  if (!proto.ok()) return proto.status();
  return proto->Construct();
}

Result<std::unique_ptr<SlidingWindowSketch>> DeserializeSlidingWindowSketch(
    ByteReader* reader) {
  WireHeader header;
  if (Status s = ReadWireHeader(reader, &header); !s.ok()) return s;
  auto proto = SketchPrototype::Make(header.dim, header.window, header.config);
  if (!proto.ok()) return proto.status();
  std::unique_ptr<SlidingWindowSketch> sketch = proto->Construct();
  if (Status s = sketch->LoadState(reader); !s.ok()) return s;
  return sketch;
}

Result<SlidingWindowSketch*> SketchPrototype::DeserializeAt(
    void* mem, ByteReader* reader) const {
  WireHeader header{.config = config_};
  if (Status s = ReadWireHeader(reader, &header); !s.ok()) return s;
  if (header.dim != dim_ || !(header.window == window_) ||
      !(header.config == config_)) {
    return Invalid("serialized sketch does not match the prototype");
  }
  SlidingWindowSketch* sketch = ConstructAt(mem);
  if (Status s = sketch->LoadState(reader); !s.ok()) {
    sketch->~SlidingWindowSketch();
    return s;
  }
  return sketch;
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
  proto.serializable_ = requires { T::kSerialTag; };
  return proto;
}

Result<SketchPrototype> SketchPrototype::Make(size_t dim, WindowSpec window,
                                              const SketchConfig& config) {
  auto proto = Dispatch(dim, window, config);
  if (!proto.ok()) return proto;
  if (Status s = CheckFootprint(dim, config); !s.ok()) return s;
  proto->config_ = config;
  if (config.algorithm.starts_with("amm-") && config.amm_dim_a == 0) {
    proto->config_.amm_dim_a = dim / 2;
  }
  return proto;
}

Result<SketchPrototype> SketchPrototype::Dispatch(size_t dim,
                                                  WindowSpec window,
                                                  const SketchConfig& config) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (config.ell == 0) return Status::InvalidArgument("ell must be positive");
  const std::string& a = config.algorithm;
  // One branch per algorithm: validate the fields it reads, then resolve
  // its options and metric handles once. Every instance (placement or
  // heap) is built from these same arguments.
  if (a == "swr" || a == "swor" || a == "swor-all") {
    if (Status s = CheckFrobeniusEps(config.frobenius_eps); !s.ok()) {
      return s;
    }
    return Of<WindowSampler>(
        dim, window, dim, window,
        WindowSampler::Options{
            .ell = config.ell,
            .scheme = a == "swr"    ? WindowSampler::Scheme::kSwr
                      : a == "swor" ? WindowSampler::Scheme::kSwor
                                    : WindowSampler::Scheme::kSworAll,
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
                    LmFd::MetricSet(MetricScope(MetricScope::Slug("LM-FD"))));
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
        DsFd::MetricSet(MetricScope(MetricScope::Slug("DS-FD"))));
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
        DiFd::MetricSet(MetricScope(MetricScope::Slug("DI-FD"))));
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

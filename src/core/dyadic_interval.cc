#include "core/dyadic_interval.h"

#include <algorithm>

namespace swsketch {

namespace {

size_t LevelEll(size_t level, size_t num_levels, size_t ell_top,
                size_t ell_min) {
  // Sizes halve from the top level down (Section 8's setup: the highest
  // level holds roughly half the query budget).
  const size_t shift = num_levels - level;
  size_t ell = shift >= 63 ? 0 : (ell_top >> shift);
  return std::max(ell, std::max(ell_min, size_t{2}));
}

}  // namespace

DiFd::DiFd(size_t dim, Options options)
    : DiFd(dim, options, MetricSet(MetricScope(MetricScope::Slug("DI-FD")))) {}

DiFd::DiFd(size_t dim, Options options, const MetricSet& metrics)
    : DyadicInterval<FrequentDirections>(
          dim,
          DyadicIntervalOptions{.levels = options.levels,
                                .window_size = options.window_size,
                                .max_norm_sq = options.max_norm_sq},
          [dim, options](size_t level) {
            return FrequentDirections(
                dim, FrequentDirections::Options{
                         .ell = LevelEll(level, options.levels,
                                         options.ell_top, options.ell_min),
                         .buffer_factor = options.fd_buffer_factor});
          },
          "DI-FD", metrics),
      di_options_(options) {}

void DiFd::Serialize(ByteWriter* writer) const {
  WriteHeader(writer, DiFd::kSerialTag, 2);
  writer->Put<uint64_t>(dim());
  writer->Put<uint64_t>(di_options_.levels);
  writer->Put<uint64_t>(di_options_.window_size);
  writer->Put(di_options_.max_norm_sq);
  writer->Put<uint64_t>(di_options_.ell_top);
  writer->Put<uint64_t>(di_options_.ell_min);
  writer->Put(di_options_.fd_buffer_factor);
  SerializeCore(writer);
}

DiRp::DiRp(size_t dim, Options options)
    : DyadicInterval<RandomProjection>(
          dim,
          DyadicIntervalOptions{.levels = options.levels,
                                .window_size = options.window_size,
                                .max_norm_sq = options.max_norm_sq},
          [dim, options, seed = options.seed](size_t level) mutable {
            // Every block needs its own independent projection: chain a
            // per-instance seed per construction (same idiom as LmRp) so
            // two identically-seeded DI-RP instances fed the same stream
            // are reproducible.
            seed = seed * 0x9E3779B97F4A7C15ULL + 1;
            return RandomProjection(
                dim,
                LevelEll(level, options.levels, options.ell_top,
                         options.ell_min),
                seed);
          },
          "DI-RP") {}

DiHash::DiHash(size_t dim, Options options)
    : DyadicInterval<HashSketch>(
          dim,
          DyadicIntervalOptions{.levels = options.levels,
                                .window_size = options.window_size,
                                .max_norm_sq = options.max_norm_sq},
          [dim, options](size_t level) {
            return HashSketch(dim,
                              LevelEll(level, options.levels, options.ell_top,
                                       options.ell_min),
                              options.seed);
          },
          "DI-HASH") {}

template class DyadicInterval<FrequentDirections>;
template class DyadicInterval<RandomProjection>;
template class DyadicInterval<HashSketch>;

}  // namespace swsketch

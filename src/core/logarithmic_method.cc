#include "core/logarithmic_method.h"

namespace swsketch {

namespace {

double ResolveCapacity(double requested, size_t ell) {
  return requested > 0.0 ? requested : static_cast<double>(ell);
}

}  // namespace

LmFd::LmFd(size_t dim, WindowSpec window, Options options)
    : LmFd(dim, window, options,
           MetricSet(MetricScope(MetricScope::Slug("LM-FD")))) {}

LmFd::LmFd(size_t dim, WindowSpec window, Options options,
           const MetricSet& metrics)
    : LogarithmicMethod<FrequentDirections>(
          dim, window,
          LogarithmicMethodOptions{
              .block_capacity =
                  ResolveCapacity(options.block_capacity, options.ell),
              .blocks_per_level = options.blocks_per_level},
          [dim, ell = options.ell, factor = options.fd_buffer_factor] {
            return FrequentDirections(
                dim, FrequentDirections::Options{.ell = ell,
                                                 .buffer_factor = factor});
          },
          "LM-FD", metrics),
      lm_options_(options) {}

void LmFd::Serialize(ByteWriter* writer) const {
  WriteHeader(writer, LmFd::kSerialTag, 2);
  writer->Put<uint64_t>(dim());
  window().Serialize(writer);
  writer->Put<uint64_t>(lm_options_.ell);
  writer->Put<uint64_t>(lm_options_.blocks_per_level);
  writer->Put(lm_options_.block_capacity);
  writer->Put(lm_options_.fd_buffer_factor);
  SerializeCore(writer);
}

LmHash::LmHash(size_t dim, WindowSpec window, Options options)
    : LmHash(dim, window, options,
             MetricSet(MetricScope(MetricScope::Slug("LM-HASH")))) {}

LmHash::LmHash(size_t dim, WindowSpec window, Options options,
               const MetricSet& metrics)
    : LogarithmicMethod<HashSketch>(
          dim, window,
          LogarithmicMethodOptions{
              .block_capacity =
                  ResolveCapacity(options.block_capacity, options.ell),
              .blocks_per_level = options.blocks_per_level},
          [dim, ell = options.ell, seed = options.seed] {
            return HashSketch(dim, ell, seed);
          },
          "LM-HASH", metrics),
      lm_options_(options) {}

void LmHash::Serialize(ByteWriter* writer) const {
  WriteHeader(writer, LmHash::kSerialTag, 1);
  writer->Put<uint64_t>(dim());
  window().Serialize(writer);
  writer->Put<uint64_t>(lm_options_.ell);
  writer->Put<uint64_t>(lm_options_.blocks_per_level);
  writer->Put(lm_options_.block_capacity);
  writer->Put<uint64_t>(lm_options_.seed);
  SerializeCore(writer);
}

LmRp::LmRp(size_t dim, WindowSpec window, Options options)
    : LogarithmicMethod<RandomProjection>(
          dim, window,
          LogarithmicMethodOptions{
              .block_capacity =
                  ResolveCapacity(options.block_capacity, options.ell),
              .blocks_per_level = options.blocks_per_level},
          [dim, ell = options.ell, seed = options.seed]() mutable {
            // Each block needs independent signs.
            return RandomProjection(dim, ell,
                                    seed = seed * 6364136223846793005ULL + 1);
          },
          "LM-RP") {}

// Explicit instantiations keep the template's heavy code out of every
// translation unit that includes the header.
template class LogarithmicMethod<FrequentDirections>;
template class LogarithmicMethod<HashSketch>;
template class LogarithmicMethod<RandomProjection>;

}  // namespace swsketch

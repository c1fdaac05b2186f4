#include "stream/window.h"

#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace swsketch {

WindowSpec WindowSpec::Sequence(uint64_t n) {
  SWSKETCH_CHECK_GT(n, 0u);
  return WindowSpec(WindowType::kSequence, static_cast<double>(n));
}

WindowSpec WindowSpec::Time(double delta) {
  SWSKETCH_CHECK_GT(delta, 0.0);
  return WindowSpec(WindowType::kTime, delta);
}

double WindowSpec::Start(double now) const {
  if (type_ == WindowType::kSequence) {
    // Index timestamps: the window holds indices now - N + 1 .. now.
    return now - extent_ + 1.0;
  }
  // Time window (t - delta, t]: strictly-older-than-delta rows expire. We
  // treat the boundary as inclusive of now - delta + 0; using half-open
  // semantics here matches "remove t_j < t - delta" in Algorithms 5.1/5.2.
  return now - extent_;
}

std::string WindowSpec::ToString() const {
  std::ostringstream os;
  if (type_ == WindowType::kSequence) {
    os << "sequence(N=" << static_cast<uint64_t>(extent_) << ")";
  } else {
    os << "time(delta=" << extent_ << ")";
  }
  return os.str();
}

void WindowSpec::Serialize(ByteWriter* writer) const {
  writer->Put<uint8_t>(type_ == WindowType::kSequence ? 0 : 1);
  writer->Put(extent_);
}

Result<WindowSpec> WindowSpec::Deserialize(ByteReader* reader) {
  uint8_t type = 0;
  double extent = 0.0;
  if (!reader->Get(&type) || !reader->Get(&extent) || type > 1) {
    return Status::InvalidArgument("corrupt WindowSpec payload");
  }
  // A time extent is any finite positive span; a sequence extent is a row
  // count, an integer in [1, 2^53]. NaN fails both.
  const bool valid =
      type == 0 ? extent >= 1.0 && extent <= kMaxSequenceExtent &&
                      extent == std::floor(extent)
                : extent > 0.0 && std::isfinite(extent);
  if (!valid) return Status::InvalidArgument("corrupt WindowSpec extent");
  return WindowSpec(type == 0 ? WindowType::kSequence : WindowType::kTime,
                    extent);
}

}  // namespace swsketch

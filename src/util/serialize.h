// Minimal binary serialization: little-endian, versioned per type by the
// caller. Sliding-window sketches write a (tag, version, config) header and
// then their state; core/factory.h reads every header back and builds the
// sketch that loads the state, so deployments can checkpoint sliding-window
// state and resume after restarts.
#ifndef SWSKETCH_UTIL_SERIALIZE_H_
#define SWSKETCH_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace swsketch {

/// Append-only byte sink.
class ByteWriter {
 public:
  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const uint8_t*>(&value);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }

  void PutString(const std::string& s) {
    Put<uint64_t>(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  template <typename T>
  void PutVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Put<uint64_t>(v.size());
    if (v.empty()) return;  // data() may be null; don't form a null range.
    const auto* p = reinterpret_cast<const uint8_t*>(v.data());
    bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(T));
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Sequential byte source with bounds checking. After any failed read,
/// ok() is false and all further reads fail.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  bool Get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!ok_ || pos_ + sizeof(T) > bytes_.size()) {
      ok_ = false;
      return false;
    }
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool GetString(std::string* out) {
    uint64_t n = 0;
    if (!Get(&n) || n > bytes_.size() - pos_) {
      ok_ = false;
      return false;
    }
    out->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return true;
  }

  template <typename T>
  bool GetVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    // Divide rather than multiply: n * sizeof(T) and pos_ + ... can wrap
    // for a corrupt length prefix and pass a naive bounds check.
    if (!Get(&n) || n > (bytes_.size() - pos_) / sizeof(T)) {
      ok_ = false;
      return false;
    }
    out->resize(n);
    if (n != 0) {  // memcpy with a null destination is UB even for size 0.
      std::memcpy(out->data(), bytes_.data() + pos_, n * sizeof(T));
    }
    pos_ += n * sizeof(T);
    return true;
  }

  /// Reads T without consuming it (dispatch-by-tag).
  template <typename T>
  bool Peek(T* out) {
    const size_t saved = pos_;
    const bool r = Get(out);
    pos_ = saved;
    return r;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == bytes_.size(); }
  size_t position() const { return pos_; }


  Status StatusOrCorrupt(const std::string& what) const {
    return ok_ ? Status::OK()
               : Status::InvalidArgument("corrupt " + what + " payload");
  }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Reads and checks a (tag, version) header; returns false on mismatch.
inline bool CheckHeader(ByteReader* reader, uint32_t expected_tag,
                        uint32_t max_version) {
  uint32_t tag = 0, version = 0;
  if (!reader->Get(&tag) || !reader->Get(&version)) return false;
  return tag == expected_tag && version >= 1 && version <= max_version;
}

inline void WriteHeader(ByteWriter* writer, uint32_t tag, uint32_t version) {
  writer->Put(tag);
  writer->Put(version);
}

}  // namespace swsketch

#endif  // SWSKETCH_UTIL_SERIALIZE_H_

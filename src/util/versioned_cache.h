// Memo of one pure function of versioned state: the query path's result
// cache (DESIGN.md section 8 "Query path"). Every sketch answer is a pure
// function of its state, and each backend can name a cheap key that moves
// whenever that state moves (a structure version, a live-block count, a
// row id). The cache keeps the last value together with the key it was
// computed under and recomputes only when the key differs.
//
// Not thread-safe: a cache belongs to the one object whose state it keys
// on, and that object's own contract serializes its queries. Cache state is
// runtime-only and never serialized; a reload calls Invalidate().
#ifndef SWSKETCH_UTIL_VERSIONED_CACHE_H_
#define SWSKETCH_UTIL_VERSIONED_CACHE_H_

#include <optional>
#include <utility>

#include "util/metrics.h"

namespace swsketch {

template <typename Key, typename Value>
class VersionedCache {
 public:
  /// Returns the stored value when it was computed under `key`; otherwise
  /// stores and returns compute(). Counts exactly one of `hits` / `misses`,
  /// so a site's ledger queries == hits + misses stays exact.
  template <typename Compute>
  const Value& GetOrCompute(const Key& key, Counter* hits, Counter* misses,
                            Compute&& compute) {
    if (value_ && key_ == key) {
      hits->Add();
      return *value_;
    }
    misses->Add();
    value_.emplace(std::forward<Compute>(compute)());
    key_ = key;
    return *value_;
  }

  /// Drops the stored value (and its memory): the next lookup misses.
  void Invalidate() { value_.reset(); }

 private:
  std::optional<Value> value_;
  Key key_{};
};

}  // namespace swsketch

#endif  // SWSKETCH_UTIL_VERSIONED_CACHE_H_

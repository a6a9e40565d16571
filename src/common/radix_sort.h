#ifndef FRAGDB_COMMON_RADIX_SORT_H_
#define FRAGDB_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace fragdb {

namespace radix_internal {

/// Sorts `v` by bits [shift, shift + bits) of each value, keeping values
/// that agree there in their input order: least-significant-digit
/// counting passes of at most 11 bits each, skipping a pass whose digit
/// every value shares.
inline void SortByBits(std::vector<uint64_t>* v, int shift, int bits) {
  constexpr int kMaxDigitBits = 11;
  const size_t n = v->size();
  if (n < 2 || bits <= 0) return;
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit = (bits + passes - 1) / passes;
  const uint64_t mask = (uint64_t{1} << digit) - 1;
  std::vector<size_t> count(size_t{1} << digit);
  std::vector<uint64_t> scratch(n);
  for (int at = shift; at < shift + bits; at += digit) {
    std::fill(count.begin(), count.end(), 0);
    for (uint64_t x : *v) ++count[(x >> at) & mask];
    if (count[((*v)[0] >> at) & mask] == n) continue;
    size_t next = 0;
    for (size_t& c : count) next += std::exchange(c, next);
    for (uint64_t x : *v) scratch[count[(x >> at) & mask]++] = x;
    v->swap(scratch);
  }
}

}  // namespace radix_internal

/// The records 0..n-1 of a table, stably sorted by a key of integer
/// fields, most significant first: `fields(i)` returns record i's key as
/// a std::array<int64_t, K>, and must stay callable while the order is
/// read.
///
/// Each field costs only the bits its range in the data needs (ids
/// 1000..1999 take 10). When the fields and a record index fit in 64
/// bits together, each entry packs the key above the index: a radix sort
/// over the key bits orders the entries, ties in record order, and keys
/// and key equality are read back from the entries without touching the
/// records. Otherwise the indices are sorted by comparing keys.
template <typename Fields>
class SortedRecords {
 public:
  using Key = std::invoke_result_t<const Fields&, uint32_t>;
  static constexpr size_t K = std::tuple_size_v<Key>;

  SortedRecords(size_t n, Fields fields) : fields_(std::move(fields)) {
    FRAGDB_CHECK(n <= std::numeric_limits<uint32_t>::max());
    std::array<int64_t, K> hi;
    lo_.fill(std::numeric_limits<int64_t>::max());
    hi.fill(std::numeric_limits<int64_t>::min());
    for (size_t i = 0; i < n; ++i) {
      const Key key = fields_(static_cast<uint32_t>(i));
      for (size_t k = 0; k < K; ++k) {
        lo_[k] = std::min(lo_[k], key[k]);
        hi[k] = std::max(hi[k], key[k]);
      }
    }
    int key_bits = 0;
    for (size_t k = 0; k < K; ++k) {
      bits_[k] = lo_[k] >= hi[k]
                     ? 0
                     : static_cast<int>(std::bit_width(
                           static_cast<uint64_t>(hi[k]) -
                           static_cast<uint64_t>(lo_[k])));
      key_bits += bits_[k];
    }
    // At least one index bit once there is a record, so a packed field
    // is at most 63 bits wide.
    index_bits_ = static_cast<int>(std::bit_width(n));
    entries_.resize(n);
    if (key_bits + index_bits_ > 64) {
      packed_ = false;
      for (size_t i = 0; i < n; ++i) entries_[i] = i;
      std::stable_sort(entries_.begin(), entries_.end(),
                       [this](uint64_t a, uint64_t b) {
                         return fields_(static_cast<uint32_t>(a)) <
                                fields_(static_cast<uint32_t>(b));
                       });
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      const Key key = fields_(static_cast<uint32_t>(i));
      uint64_t packed = 0;
      for (size_t k = 0; k < K; ++k) {
        if (bits_[k] == 0) continue;
        packed = packed << bits_[k] | (static_cast<uint64_t>(key[k]) -
                                       static_cast<uint64_t>(lo_[k]));
      }
      entries_[i] = packed << index_bits_ | i;
    }
    // Entries are distinct, and equal keys order by index: a short list
    // sorts by value.
    constexpr size_t kShort = 256;
    if (n < kShort) {
      std::sort(entries_.begin(), entries_.end());
    } else {
      radix_internal::SortByBits(&entries_, index_bits_, key_bits);
    }
  }

  size_t size() const { return entries_.size(); }
  /// The record at sorted position j.
  uint32_t index(size_t j) const {
    return static_cast<uint32_t>(
        packed_ ? entries_[j] & ((uint64_t{1} << index_bits_) - 1)
                : entries_[j]);
  }
  /// The key of the record at sorted position j.
  Key key(size_t j) const {
    if (!packed_) return fields_(index(j));
    Key key;
    uint64_t v = entries_[j] >> index_bits_;
    for (size_t k = K; k-- > 0;) {
      const uint64_t part = v & ((uint64_t{1} << bits_[k]) - 1);
      key[k] = static_cast<int64_t>(part + static_cast<uint64_t>(lo_[k]));
      v >>= bits_[k];
    }
    return key;
  }
  /// Whether sorted positions a and b hold equal keys.
  bool SameKey(size_t a, size_t b) const {
    if (!packed_) return key(a) == key(b);
    return entries_[a] >> index_bits_ == entries_[b] >> index_bits_;
  }

 private:
  Fields fields_;
  std::array<int64_t, K> lo_{};
  std::array<int, K> bits_{};
  int index_bits_ = 0;
  bool packed_ = true;
  std::vector<uint64_t> entries_;
};

}  // namespace fragdb

#endif  // FRAGDB_COMMON_RADIX_SORT_H_

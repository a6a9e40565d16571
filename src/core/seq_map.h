#ifndef FRAGDB_CORE_SEQ_MAP_H_
#define FRAGDB_CORE_SEQ_MAP_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.h"

namespace fragdb {

/// Ordered map keyed by SeqNum, stored as a sorted vector. The fragment
/// stream structures (holdback, log, prepared) hold dense, mostly
/// in-order sequence numbers: the overwhelmingly common insertion is an
/// append at the back, and lookups cluster at the front (the next
/// sequence to install). A sorted vector turns every hot operation into
/// a push_back or a binary search over contiguous memory, where the
/// node-heavy simulations previously spent their time rebalancing
/// red-black trees and chasing per-entry heap allocations.
///
/// Iteration yields entries in ascending seq order; `Entry` has exactly
/// two public members so structured bindings (`for (auto& [seq, v] : m)`)
/// keep working at the former std::map call sites.
template <typename T>
class SeqMap {
 public:
  struct Entry {
    SeqNum seq;
    T value;
  };
  using const_iterator = typename std::vector<Entry>::const_iterator;
  using iterator = typename std::vector<Entry>::iterator;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }
  void swap(SeqMap& other) { entries_.swap(other.entries_); }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }

  bool Contains(SeqNum seq) const { return Find(seq) != nullptr; }

  /// The entry for `seq`, or nullptr. O(1) when `seq` is past the back
  /// (an in-order arrival probing the never-truncated log).
  const T* Find(SeqNum seq) const {
    if (entries_.empty() || entries_.back().seq < seq) return nullptr;
    size_t i = LowerBound(seq);
    if (entries_[i].seq == seq) return &entries_[i].value;
    return nullptr;
  }

  /// Moves the entry for `seq` into `*out` and removes it; returns false
  /// (leaving `*out` alone) if absent.
  bool Take(SeqNum seq, T* out) {
    if (entries_.empty() || entries_.back().seq < seq) return false;
    size_t i = LowerBound(seq);
    if (entries_[i].seq != seq) return false;
    *out = std::move(entries_[i].value);
    entries_.erase(entries_.begin() + i);
    return true;
  }

  /// Inserts or overwrites the entry for `seq`. Appends in O(1) when
  /// `seq` is past the current back (the common, in-order case).
  T& Put(SeqNum seq, T value) {
    if (entries_.empty() || entries_.back().seq < seq) {
      entries_.push_back(Entry{seq, std::move(value)});
      return entries_.back().value;
    }
    size_t i = LowerBound(seq);
    if (i < entries_.size() && entries_[i].seq == seq) {
      entries_[i].value = std::move(value);
      return entries_[i].value;
    }
    return entries_.insert(entries_.begin() + i, Entry{seq, std::move(value)})
        ->value;
  }

  /// Removes the entry for `seq`; returns false if absent.
  bool Erase(SeqNum seq) {
    size_t i = LowerBound(seq);
    if (i >= entries_.size() || entries_[i].seq != seq) return false;
    entries_.erase(entries_.begin() + i);
    return true;
  }

  /// Removes every entry with seq > bound (the epoch-transition log
  /// truncation: entries past the base leave the official lineage).
  void EraseGreaterThan(SeqNum bound) {
    entries_.resize(LowerBound(bound + 1));
  }

  /// Removes every entry with seq <= bound (dropping duplicates an
  /// adopted snapshot already covers).
  void EraseLessEqual(SeqNum bound) {
    entries_.erase(entries_.begin(), entries_.begin() + LowerBound(bound + 1));
  }

  /// First entry with seq > bound; end() if none.
  const_iterator UpperBound(SeqNum bound) const {
    return entries_.begin() + LowerBound(bound + 1);
  }

 private:
  size_t LowerBound(SeqNum seq) const {
    return static_cast<size_t>(
        std::lower_bound(entries_.begin(), entries_.end(), seq,
                         [](const Entry& e, SeqNum s) { return e.seq < s; }) -
        entries_.begin());
  }

  std::vector<Entry> entries_;
};

}  // namespace fragdb

#endif  // FRAGDB_CORE_SEQ_MAP_H_

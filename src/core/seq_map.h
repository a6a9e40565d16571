#ifndef FRAGDB_CORE_SEQ_MAP_H_
#define FRAGDB_CORE_SEQ_MAP_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "cc/transaction.h"
#include "common/types.h"

namespace fragdb {

/// Seq-ordered collection of shared quasi-transactions (holdback windows,
/// stream logs, prepared sets), stored as a vector of QuasiRef sorted by
/// the record's own `seq`. Each entry is the bare 16-byte pointer: the
/// key lives in the record it points to, and the record is shared with
/// the message that carried it and with every other replica's entry for
/// the same commit.
///
/// The fragment stream structures hold dense, mostly in-order sequence
/// numbers: the overwhelmingly common insertion is an append at the back,
/// and lookups cluster at the front (the next sequence to install). A
/// sorted vector turns every hot operation into a push_back or a binary
/// search over contiguous memory. Iteration yields the QuasiRefs in
/// ascending seq order.
class QuasiSeqMap {
 public:
  using const_iterator = std::vector<QuasiRef>::const_iterator;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }
  void swap(QuasiSeqMap& other) { entries_.swap(other.entries_); }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  bool Contains(SeqNum seq) const { return Find(seq) != nullptr; }

  /// The record for `seq`, or nullptr. O(1) when `seq` is past the back
  /// (an in-order arrival probing the never-truncated log).
  const QuasiTxn* Find(SeqNum seq) const {
    if (entries_.empty() || entries_.back()->seq < seq) return nullptr;
    size_t i = LowerBound(seq);
    if (entries_[i]->seq == seq) return entries_[i].get();
    return nullptr;
  }

  /// Removes and returns the entry for `seq`; null if absent.
  QuasiRef Take(SeqNum seq) {
    if (entries_.empty() || entries_.back()->seq < seq) return nullptr;
    size_t i = LowerBound(seq);
    if (entries_[i]->seq != seq) return nullptr;
    QuasiRef out = std::move(entries_[i]);
    entries_.erase(entries_.begin() + i);
    return out;
  }

  /// Inserts `quasi` at its seq, replacing any entry already there.
  /// Appends in O(1) when the seq is past the current back (the common,
  /// in-order case).
  void Put(QuasiRef quasi) {
    const SeqNum seq = quasi->seq;
    if (entries_.empty() || entries_.back()->seq < seq) {
      entries_.push_back(std::move(quasi));
      return;
    }
    size_t i = LowerBound(seq);
    if (i < entries_.size() && entries_[i]->seq == seq) {
      entries_[i] = std::move(quasi);
      return;
    }
    entries_.insert(entries_.begin() + i, std::move(quasi));
  }

  /// Removes the entry for `seq`; returns false if absent.
  bool Erase(SeqNum seq) {
    size_t i = LowerBound(seq);
    if (i >= entries_.size() || entries_[i]->seq != seq) return false;
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
                         [](const QuasiRef& q, SeqNum s) {
                           return q->seq < s;
                         }) -
        entries_.begin());
  }

  std::vector<QuasiRef> entries_;
};

}  // namespace fragdb

#endif  // FRAGDB_CORE_SEQ_MAP_H_

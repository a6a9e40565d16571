#include "verify/history.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <tuple>

#include "common/logging.h"
#include "common/radix_sort.h"

namespace fragdb {

namespace {

/// The write arena stays addressable by InstallRecord's 32-bit offsets.
void CheckArenaSize(size_t size) {
  FRAGDB_CHECK(size <= std::numeric_limits<uint32_t>::max());
}

/// Orders (id, value) pairs, and a pair against a bare id, by id.
struct ById {
  template <typename V>
  bool operator()(const std::pair<TxnId, V>& a,
                  const std::pair<TxnId, V>& b) const {
    return a.first < b.first;
  }
  template <typename V>
  bool operator()(const std::pair<TxnId, V>& a, TxnId b) const {
    return a.first < b;
  }
};

/// Groups (fragment, value) pairs into per-fragment lists, keeping the
/// pairs' order within each fragment.
template <typename Lists, typename V>
void GroupByFragment(const std::vector<std::pair<FragmentId, V>>& pairs,
                     Lists* out) {
  const SortedRecords order(pairs.size(), [&pairs](uint32_t i) {
    return std::array<int64_t, 1>{pairs[i].first};
  });
  for (size_t j = 0; j < order.size(); ++j) {
    const auto& [fragment, value] = pairs[order.index(j)];
    if (j == 0 || !order.SameKey(j, j - 1)) {
      out->fragments.push_back(fragment);
      out->lists.emplace_back();
    }
    out->lists.back().push_back(value);
  }
}

/// Appends `from` to `to`.
template <typename T>
void Append(std::vector<T>* to, std::vector<T>&& from) {
  to->insert(to->end(), std::make_move_iterator(from.begin()),
             std::make_move_iterator(from.end()));
}

}  // namespace

std::span<const std::pair<TxnId, SeqNum>> VersionChainTable::Find(
    ObjectId object) const {
  auto it = std::lower_bound(objects.begin(), objects.end(), object);
  if (it == objects.end() || *it != object) return {};
  return chain(static_cast<size_t>(it - objects.begin()));
}

template <typename V>
const std::vector<V>& History::FragmentLists<V>::Find(
    FragmentId fragment) const {
  static const std::vector<V> kEmpty;
  auto it = std::lower_bound(fragments.begin(), fragments.end(), fragment);
  if (it == fragments.end() || *it != fragment) return kEmpty;
  return lists[static_cast<size_t>(it - fragments.begin())];
}

void History::RegisterTxn(const TxnRecord& record) {
  FRAGDB_CHECK(record.id != kInvalidTxn);
  DropLookups();
  txn_log_.events.push_back(
      {record.id, 0, static_cast<int64_t>(txn_log_.registrations.size())});
  txn_log_.registrations.push_back(record);
}

void History::MarkCommitted(TxnId id, SeqNum frag_seq) {
  FRAGDB_CHECK(FindTxn(id) != nullptr);
  MarkCommittedPartial(id, frag_seq);
}

void History::MarkCommittedPartial(TxnId id, SeqNum frag_seq) {
  DropLookups();
  txn_log_.events.push_back({id, frag_seq, -1});
}

TxnId History::FoldTxnLogs(TxnTable* table, std::span<TxnLog* const> logs) {
  // Every event once, by (id, log, position in log): the order in which
  // the per-log, then cross-log, merge below consumes them. Events are
  // numbered by their position in the logs' concatenation, and a stable
  // sort by id leaves each id's events in that order.
  std::vector<size_t> log_start;
  std::vector<TxnId> event_ids;
  for (const TxnLog* log : logs) {
    log_start.push_back(event_ids.size());
    for (const TxnLog::Event& e : log->events) event_ids.push_back(e.id);
  }
  if (event_ids.empty()) return kInvalidTxn;
  const SortedRecords order(event_ids.size(), [&event_ids](uint32_t i) {
    return std::array<int64_t, 1>{event_ids[i]};
  });

  // Within one log, a registration replaces the record and a commit mark
  // sets only committed and frag_seq.
  auto apply = [](TxnLog& log, const TxnLog::Event& e,
                  std::optional<TxnRecord>& rec) {
    if (e.registration >= 0) {
      rec = std::move(log.registrations[static_cast<size_t>(e.registration)]);
      return;
    }
    if (!rec.has_value()) {
      rec.emplace();
      rec->id = e.id;
    }
    rec->committed = true;
    rec->frag_seq = e.frag_seq;
  };
  // Across logs, a registration adopts a commit mark already merged, and
  // a bare commit mark updates the merged record.
  auto merge = [](TxnRecord&& shard, std::optional<TxnRecord>& rec) {
    if (!rec.has_value()) {
      rec = std::move(shard);
    } else if (shard.registered()) {
      const bool was_committed = rec->committed;
      const SeqNum was_seq = rec->frag_seq;
      *rec = std::move(shard);
      if (was_committed && !rec->committed) {
        rec->committed = true;
        rec->frag_seq = was_seq;
      }
    } else if (shard.committed) {
      rec->committed = true;
      rec->frag_seq = shard.frag_seq;
    }
  };

  // Known ids update in place; new ones collect in `fresh` (ascending)
  // and merge in after, moving only the table's tail past the first.
  size_t ids = 0;
  for (size_t j = 0; j < order.size(); ++j) {
    ids += j == 0 || !order.SameKey(j, j - 1);
  }
  TxnTable fresh;
  fresh.reserve(ids);
  auto at = table->begin();
  TxnId orphan = kInvalidTxn;
  for (size_t j = 0; j < order.size();) {
    const size_t first_event = j;
    const TxnId id = order.key(j)[0];
    at = std::lower_bound(at, table->end(), id, ById());
    const bool known = at != table->end() && at->first == id;
    std::optional<TxnRecord> rec;
    if (known) rec = std::move(at->second);
    bool shard_committed = false;
    while (j < order.size() && order.SameKey(j, first_event)) {
      // This id's events in log l, in log order.
      const size_t l = static_cast<size_t>(
          std::upper_bound(log_start.begin(), log_start.end(),
                           order.index(j)) -
          log_start.begin() - 1);
      TxnLog& log = *logs[l];
      auto event = [&](size_t k) -> const TxnLog::Event& {
        return log.events[order.index(k) - log_start[l]];
      };
      const size_t begin = j;
      const size_t log_end = log_start[l] + log.events.size();
      bool registers = false;
      for (; j < order.size() && order.SameKey(j, first_event) &&
             order.index(j) < log_end;
           ++j) {
        registers = registers || event(j).registration >= 0;
      }
      if (l != 0 && !registers) {
        // A shard's bare commit marks fold as apply-then-merge would:
        // committed, at the last mark's sequence, with no record built.
        if (!rec.has_value()) {
          rec.emplace();
          rec->id = id;
        }
        rec->committed = true;
        rec->frag_seq = event(j - 1).frag_seq;
        shard_committed = true;
        continue;
      }
      std::optional<TxnRecord> shard;
      std::optional<TxnRecord>& into = l == 0 ? rec : shard;
      for (size_t k = begin; k < j; ++k) apply(log, event(k), into);
      if (l == 0) continue;
      shard_committed = shard_committed || shard->committed;
      merge(std::move(*shard), rec);
    }
    if (shard_committed && !rec->registered() && orphan == kInvalidTxn) {
      orphan = id;
    }
    if (known) {
      at->second = std::move(*rec);
    } else {
      fresh.emplace_back(id, std::move(*rec));
    }
  }
  if (table->empty()) {
    *table = std::move(fresh);
  } else if (!fresh.empty()) {
    const size_t old_size = table->size();
    table->insert(table->end(), std::make_move_iterator(fresh.begin()),
                  std::make_move_iterator(fresh.end()));
    const auto mid = table->begin() + static_cast<ptrdiff_t>(old_size);
    std::inplace_merge(std::upper_bound(table->begin(), mid, *mid, ById()),
                       mid, table->end(), ById());
  }
  for (TxnLog* log : logs) *log = TxnLog{};
  return orphan;
}

void History::FoldTxnLog() const {
  if (txn_log_.events.empty()) return;
  TxnLog* log = &txn_log_;
  FoldTxnLogs(&txns_, {&log, 1});
}

TxnId History::AbsorbShards(std::span<History> shards,
                             const TaskRunner& run) {
  DropLookups();
  std::vector<TxnLog*> logs{&txn_log_};
  for (History& shard : shards) logs.push_back(&shard.txn_log_);
  const TxnId orphan = FoldTxnLogs(&txns_, logs);
  // Sizes each merged array for every shard's records, and returns where
  // each shard's land. Room is reserved for as many again: the next
  // merge (a drain after the run) then rarely moves the records, repeated
  // runs stay linear, and pages never written cost no resident memory.
  auto place = [shards](auto& mine, auto member) {
    std::vector<size_t> at;
    at.reserve(shards.size());
    size_t need = mine.size();
    for (const History& shard : shards) {
      at.push_back(need);
      need += (shard.*member).size();
    }
    if (need > mine.capacity()) mine.reserve(2 * need);
    mine.resize(need);
    return at;
  };
  const std::vector<size_t> writes_at = place(writes_, &History::writes_);
  CheckArenaSize(writes_.size());
  const std::vector<size_t> installs_at =
      place(installs_, &History::installs_);
  const std::vector<size_t> reads_at = place(reads_, &History::reads_);
  const std::vector<size_t> quorum_writes_at =
      place(quorum_writes_, &History::quorum_writes_);
  const std::vector<size_t> quorum_reads_at =
      place(quorum_reads_, &History::quorum_reads_);
  const std::vector<size_t> decisions_at =
      place(decisions_, &History::decisions_);
  for (const History& shard : shards) {
    for (const auto& [node, count] : shard.next_node_order_) {
      int64_t& mine = next_node_order_[node];
      mine = std::max(mine, count);
    }
  }
  RunTasks(run, shards.size(), [&](size_t i) {
    History& shard = shards[i];
    shard.DropLookups();
    auto move_to = [](auto& from, auto& to, size_t at) {
      std::move(from.begin(), from.end(),
                to.begin() + static_cast<ptrdiff_t>(at));
    };
    move_to(shard.writes_, writes_, writes_at[i]);
    move_to(shard.installs_, installs_, installs_at[i]);
    const uint32_t base = static_cast<uint32_t>(writes_at[i]);
    for (size_t k = 0; k < shard.installs_.size(); ++k) {
      installs_[installs_at[i] + k].write_offset += base;
    }
    move_to(shard.reads_, reads_, reads_at[i]);
    move_to(shard.quorum_writes_, quorum_writes_, quorum_writes_at[i]);
    move_to(shard.quorum_reads_, quorum_reads_, quorum_reads_at[i]);
    move_to(shard.decisions_, decisions_, decisions_at[i]);
    // Release the shard's storage; its install counters carry on.
    std::map<NodeId, int64_t> counters = std::move(shard.next_node_order_);
    shard = History();
    shard.next_node_order_ = std::move(counters);
  });
  return orphan;
}

void History::RecordRead(const ReadRecord& read) {
  DropLookups();
  reads_.push_back(read);
}

void History::RecordQuorumWrite(const QuorumWriteRecord& record) {
  DropLookups();
  quorum_writes_.push_back(record);
}

void History::RecordQuorumRead(const QuorumReadRecord& record) {
  DropLookups();
  quorum_reads_.push_back(record);
}

void History::RecordDecision(const CommitDecisionRecord& record) {
  DropLookups();
  decisions_.push_back(record);
}

void History::RecordInstall(NodeId node, const QuasiTxn& quasi, SimTime at,
                            int incarnation, SimTime origin_time) {
  DropLookups();
  InstallRecord rec;
  rec.node = node;
  rec.incarnation = incarnation;
  rec.writer = quasi.origin_txn;
  rec.fragment = quasi.fragment;
  rec.origin_node = quasi.origin_node;
  rec.seq = quasi.seq;
  rec.write_offset = static_cast<uint32_t>(writes_.size());
  rec.write_count = static_cast<uint32_t>(quasi.writes.size());
  rec.at = at;
  rec.node_order = next_node_order_[node]++;
  rec.origin_time = origin_time;
  writes_.insert(writes_.end(), quasi.writes.begin(), quasi.writes.end());
  CheckArenaSize(writes_.size());
  installs_.push_back(rec);
}

const History::TxnTable& History::txns() const {
  FoldTxnLog();
  return txns_;
}

const TxnRecord* History::FindTxn(TxnId id) const {
  const size_t i = TxnIndex(id);
  return i == kNoTxn ? nullptr : &txns_[i].second;
}

size_t History::TxnIndex(TxnId id) const {
  FoldTxnLog();
  auto begin = txns_.begin();
  auto end = txns_.end();
  if (cache_.tables.has_value()) {
    const Lookups& t = *cache_.tables;
    if (id < t.txn_base) return kNoTxn;
    const uint64_t b = t.TxnBucket(id);
    if (b + 1 >= t.txn_buckets.size()) return kNoTxn;
    end = begin + t.txn_buckets[b + 1];
    begin += t.txn_buckets[b];
  }
  auto it = std::lower_bound(begin, end, id, ById());
  return it == end || it->first != id
             ? kNoTxn
             : static_cast<size_t>(it - txns_.begin());
}

std::string History::DebugString() const {
  std::string out;
  for (const auto& [id, rec] : txns()) {
    out += "T" + std::to_string(id);
    if (!rec.label.empty()) out += " \"" + rec.label + "\"";
    out += rec.read_only ? " [ro]" : "";
    if (rec.type_fragment != kInvalidFragment) {
      out += " tp=F" + std::to_string(rec.type_fragment);
    }
    out += " home=N" + std::to_string(rec.home);
    out += rec.committed
               ? " committed seq=" + std::to_string(rec.frag_seq)
               : " uncommitted";
    out += " writes=" + std::to_string(WritesOf(id).size());
    out += "\n";
  }
  return out;
}

void History::BuildTxnIndex(Lookups* t) const {
  if (txns_.empty()) return;
  FRAGDB_CHECK(txns_.size() < std::numeric_limits<uint32_t>::max());
  t->txn_base = txns_.front().first;
  const uint64_t span = static_cast<uint64_t>(txns_.back().first) -
                        static_cast<uint64_t>(t->txn_base);
  while ((span >> t->txn_shift) >= txns_.size()) ++t->txn_shift;
  std::vector<uint32_t>& buckets = t->txn_buckets;
  buckets.assign((span >> t->txn_shift) + 2, 0);
  for (const auto& [id, rec] : txns_) ++buckets[t->TxnBucket(id) + 1];
  for (size_t b = 1; b < buckets.size(); ++b) buckets[b] += buckets[b - 1];
}

const History::Lookups& History::lookups() const {
  PrepareLookups({});
  return *cache_.tables;
}

void History::PrepareLookups(const TaskRunner& run) const {
  if (cache_.tables.has_value()) return;
  FoldTxnLog();
  Lookups t;
  // Installs replicate each version, (writer, fragment, seq), at several
  // nodes. A version's writes are read from its head, its first copy in
  // record order, and from any copy whose write set differs (which
  // nothing the engine records does). The installs split into one chunk
  // of consecutive records per thread, so one chunk when the tasks run
  // inline; each chunk finds its own heads, and the chunks' heads then
  // meet per fragment: the first chunk's head is the version's.

  // (object, seq, writer, fragment) of every distinct version written.
  struct Version {
    ObjectId object;
    SeqNum seq;
    TxnId writer;
    FragmentId fragment;
  };
  // A version's first copy within one chunk.
  struct Head {
    FragmentId fragment;
    TxnId writer;
    SeqNum seq;
    uint32_t index;
  };
  // A chunk's heads, by (fragment, writer, seq), and the versions of its
  // copies whose writes differ from their chunk head's.
  struct Chunk {
    std::vector<Head> heads;
    std::vector<Version> versions;
  };
  std::vector<Chunk> chunks(std::clamp<size_t>(
      installs_.size(), 1, static_cast<size_t>(run.threads)));
  auto sort_chunk = [&](size_t c) {
    const size_t first = installs_.size() * c / chunks.size();
    const SortedRecords copies(
        installs_.size() * (c + 1) / chunks.size() - first, [&](uint32_t k) {
          const InstallRecord& rec = installs_[first + k];
          return std::array<int64_t, 3>{rec.fragment, rec.writer, rec.seq};
        });
    Chunk& chunk = chunks[c];
    // Each copy's head, by position in the chunk.
    std::vector<uint32_t> head_of(copies.size());
    for (size_t j = 0; j < copies.size();) {
      const size_t head_copy = j;
      const uint32_t head = copies.index(j);
      const auto [fragment, writer, seq] = copies.key(j);
      chunk.heads.push_back({static_cast<FragmentId>(fragment), writer, seq,
                             static_cast<uint32_t>(first + head)});
      for (; j < copies.size() && copies.SameKey(j, head_copy); ++j) {
        head_of[copies.index(j)] = head;
      }
    }
    // The other copies, in record order: their heads are few and shared.
    for (size_t k = 0; k < head_of.size(); ++k) {
      if (head_of[k] == k) continue;
      const InstallRecord& head = installs_[first + head_of[k]];
      const std::span<const WriteOp> writes = WritesOf(installs_[first + k]);
      if (std::ranges::equal(writes, WritesOf(head))) continue;
      for (const WriteOp& w : writes) {
        chunk.versions.push_back(
            {w.object, head.seq, head.writer, head.fragment});
      }
    }
  };
  // The chunks, the transaction index and the updaters, as tasks.
  RunTasks(run, chunks.size() + 2, [&](size_t task) {
    if (task < chunks.size()) {
      sort_chunk(task);
    } else if (task == chunks.size()) {
      BuildTxnIndex(&t);
    } else {
      std::vector<std::pair<FragmentId, TxnId>> updaters;
      for (const auto& [id, rec] : txns_) {
        if (rec.committed && !rec.read_only) {
          updaters.emplace_back(rec.type_fragment, id);
        }
      }
      GroupByFragment(updaters, &t.updaters);
    }
  });

  // One fragment's versions, and (writer, first install) by writer.
  struct FragmentPart {
    std::vector<Version> versions;
    std::vector<std::pair<TxnId, size_t>> first_install;
  };
  std::vector<FragmentId> fragments;
  for (const Chunk& chunk : chunks) {
    for (const Head& h : chunk.heads) {
      if (fragments.empty() || fragments.back() != h.fragment) {
        fragments.push_back(h.fragment);
      }
    }
  }
  std::sort(fragments.begin(), fragments.end());
  fragments.erase(std::unique(fragments.begin(), fragments.end()),
                  fragments.end());
  std::vector<FragmentPart> parts(fragments.size());
  auto merge_heads = [&](size_t f) {
    const FragmentId fragment = fragments[f];
    // The fragment's heads, each chunk's run sorted by (writer, seq),
    // merged stably: a version's heads stay in chunk order, which is
    // record order.
    auto by_fragment = [](const Head& h, FragmentId x) {
      return h.fragment < x;
    };
    auto by_version = [](const Head& a, const Head& b) {
      return std::tie(a.writer, a.seq) < std::tie(b.writer, b.seq);
    };
    std::vector<Head> heads;
    std::vector<size_t> runs{0};
    for (const Chunk& chunk : chunks) {
      auto it = std::lower_bound(chunk.heads.begin(), chunk.heads.end(),
                                 fragment, by_fragment);
      for (; it != chunk.heads.end() && it->fragment == fragment; ++it) {
        heads.push_back(*it);
      }
      runs.push_back(heads.size());
    }
    for (size_t width = 1; width + 1 < runs.size(); width *= 2) {
      for (size_t r = 0; r + width + 1 < runs.size(); r += 2 * width) {
        const size_t last = std::min(r + 2 * width, runs.size() - 1);
        std::inplace_merge(
            heads.begin() + static_cast<ptrdiff_t>(runs[r]),
            heads.begin() + static_cast<ptrdiff_t>(runs[r + width]),
            heads.begin() + static_cast<ptrdiff_t>(runs[last]), by_version);
      }
    }
    FragmentPart& part = parts[f];
    for (size_t j = 0; j < heads.size();) {
      const Head& head = heads[j];
      const std::span<const WriteOp> head_writes =
          WritesOf(installs_[head.index]);
      auto add = [&](std::span<const WriteOp> writes) {
        for (const WriteOp& w : writes) {
          part.versions.push_back({w.object, head.seq, head.writer, fragment});
        }
      };
      add(head_writes);
      for (++j; j < heads.size() && !by_version(head, heads[j]); ++j) {
        const std::span<const WriteOp> writes =
            WritesOf(installs_[heads[j].index]);
        if (!std::ranges::equal(writes, head_writes)) add(writes);
      }
      // A writer's first install: the earliest head among its versions.
      std::vector<std::pair<TxnId, size_t>>& firsts = part.first_install;
      if (firsts.empty() || firsts.back().first != head.writer) {
        firsts.emplace_back(head.writer, head.index);
      } else if (head.index < firsts.back().second) {
        firsts.back().second = head.index;
      }
    }
  };
  RunTasks(run, fragments.size(), merge_heads);

  std::vector<Version> versions;
  for (Chunk& chunk : chunks) Append(&versions, std::move(chunk.versions));
  for (FragmentPart& part : parts) {
    Append(&versions, std::move(part.versions));
    Append(&t.first_install, std::move(part.first_install));
  }
  // A writer seen under several fragments keeps its earliest install.
  std::sort(t.first_install.begin(), t.first_install.end());
  t.first_install.erase(
      std::unique(t.first_install.begin(), t.first_install.end(),
                  [](const auto& a, const auto& b) {
                    return a.first == b.first;
                  }),
      t.first_install.end());
  // Version chains: distinct (seq, writer) per object, in seq order.
  // Repackaged §4.4.3 transactions produce distinct writers with fresh
  // sequence numbers, so ordering by seq stays total per fragment.
  std::sort(versions.begin(), versions.end(),
            [](const Version& a, const Version& b) {
              return std::tie(a.object, a.seq, a.writer, a.fragment) <
                     std::tie(b.object, b.seq, b.writer, b.fragment);
            });
  VersionChainTable& chains = t.versions;
  // Nearly always a single fragment per object, but nothing in the
  // record format forbids several fragments' updaters writing one
  // object, so file such an object (and its reads) under each.
  std::vector<std::pair<ObjectId, FragmentId>> object_fragments;
  for (size_t i = 0; i < versions.size(); ++i) {
    const Version& v = versions[i];
    object_fragments.emplace_back(v.object, v.fragment);
    if (i == 0 || v.object != versions[i - 1].object) {
      chains.objects.push_back(v.object);
      chains.starts.push_back(chains.versions.size());
    } else if (v.seq == versions[i - 1].seq &&
               v.writer == versions[i - 1].writer) {
      continue;
    }
    chains.versions.emplace_back(v.writer, v.seq);
  }
  chains.starts.push_back(chains.versions.size());
  std::sort(object_fragments.begin(), object_fragments.end());
  object_fragments.erase(
      std::unique(object_fragments.begin(), object_fragments.end()),
      object_fragments.end());

  std::vector<std::pair<FragmentId, ObjectId>> objects_of;
  objects_of.reserve(object_fragments.size());
  for (const auto& [object, fragment] : object_fragments) {
    objects_of.emplace_back(fragment, object);
  }
  GroupByFragment(objects_of, &t.objects_of);

  std::vector<std::pair<FragmentId, const ReadRecord*>> reads_on;
  reads_on.reserve(reads_.size());
  for (const ReadRecord& r : reads_) {
    auto it = std::lower_bound(
        object_fragments.begin(), object_fragments.end(), r.object,
        [](const std::pair<ObjectId, FragmentId>& e, ObjectId key) {
          return e.first < key;
        });
    if (it == object_fragments.end() || it->first != r.object) {
      reads_on.emplace_back(kInvalidFragment, &r);
      continue;
    }
    for (; it != object_fragments.end() && it->first == r.object; ++it) {
      reads_on.emplace_back(it->second, &r);
    }
  }
  GroupByFragment(reads_on, &t.reads_on);
  cache_.tables = std::move(t);
}

std::span<const std::pair<TxnId, SeqNum>> History::VersionsOf(
    ObjectId object) const {
  return lookups().versions.Find(object);
}

std::span<const WriteOp> History::WritesOf(TxnId writer) const {
  const std::vector<std::pair<TxnId, size_t>>& first =
      lookups().first_install;
  auto it = std::lower_bound(first.begin(), first.end(), writer, ById());
  if (it == first.end() || it->first != writer) return {};
  return WritesOf(installs_[it->second]);
}

const std::vector<TxnId>& History::UpdatersOf(FragmentId fragment) const {
  return lookups().updaters.Find(fragment);
}

const std::vector<ObjectId>& History::ObjectsOf(FragmentId fragment) const {
  return lookups().objects_of.Find(fragment);
}

const std::vector<const ReadRecord*>& History::ReadsOn(
    FragmentId fragment) const {
  return lookups().reads_on.Find(fragment);
}

const VersionChainTable& History::VersionChains() const {
  return lookups().versions;
}

}  // namespace fragdb

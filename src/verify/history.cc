#include "verify/history.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace fragdb {

void History::RegisterTxn(const TxnRecord& record) {
  FRAGDB_CHECK(record.id != kInvalidTxn);
  DropLookups();
  txns_[record.id] = record;
}

void History::MarkCommitted(TxnId id, SeqNum frag_seq) {
  auto it = txns_.find(id);
  FRAGDB_CHECK(it != txns_.end());
  DropLookups();
  it->second.committed = true;
  it->second.frag_seq = frag_seq;
}

void History::MarkCommittedPartial(TxnId id, SeqNum frag_seq) {
  DropLookups();
  TxnRecord& rec = txns_[id];
  rec.id = id;
  rec.committed = true;
  rec.frag_seq = frag_seq;
}

void History::AbsorbShard(History* shard) {
  DropLookups();
  shard->DropLookups();
  for (auto& [id, rec] : shard->txns_) {
    auto [it, inserted] = txns_.try_emplace(id);
    if (inserted) {
      it->second = std::move(rec);
      continue;
    }
    TxnRecord& dst = it->second;
    if (rec.registered()) {
      bool was_committed = dst.committed;
      SeqNum was_seq = dst.frag_seq;
      dst = std::move(rec);
      if (was_committed && !dst.committed) {
        dst.committed = true;
        dst.frag_seq = was_seq;
      }
    } else if (rec.committed) {
      dst.committed = true;
      dst.frag_seq = rec.frag_seq;
    }
  }
  shard->txns_.clear();
  reads_.insert(reads_.end(), std::make_move_iterator(shard->reads_.begin()),
                std::make_move_iterator(shard->reads_.end()));
  shard->reads_.clear();
  installs_.insert(installs_.end(),
                   std::make_move_iterator(shard->installs_.begin()),
                   std::make_move_iterator(shard->installs_.end()));
  shard->installs_.clear();
  quorum_writes_.insert(quorum_writes_.end(), shard->quorum_writes_.begin(),
                        shard->quorum_writes_.end());
  shard->quorum_writes_.clear();
  quorum_reads_.insert(quorum_reads_.end(),
                       std::make_move_iterator(shard->quorum_reads_.begin()),
                       std::make_move_iterator(shard->quorum_reads_.end()));
  shard->quorum_reads_.clear();
  decisions_.insert(decisions_.end(), shard->decisions_.begin(),
                    shard->decisions_.end());
  shard->decisions_.clear();
  for (const auto& [node, count] : shard->next_node_order_) {
    int64_t& mine = next_node_order_[node];
    mine = std::max(mine, count);
  }
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
                            int incarnation) {
  DropLookups();
  InstallRecord rec;
  rec.node = node;
  rec.writer = quasi.origin_txn;
  rec.fragment = quasi.fragment;
  rec.seq = quasi.seq;
  rec.writes = quasi.writes;
  rec.at = at;
  rec.node_order = next_node_order_[node]++;
  rec.origin_node = quasi.origin_node;
  rec.origin_time = quasi.origin_time;
  rec.incarnation = incarnation;
  installs_.push_back(std::move(rec));
}

const TxnRecord* History::FindTxn(TxnId id) const {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : &it->second;
}

std::string History::DebugString() const {
  std::string out;
  for (const auto& [id, rec] : txns_) {
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

const History::Lookups& History::lookups() const {
  if (cache_.tables.has_value()) return *cache_.tables;
  Lookups& t = cache_.tables.emplace();
  // Version chains: installs replicate the same version at several nodes,
  // so collect distinct (seq, writer) pairs per object, in seq order.
  // Repackaged §4.4.3 transactions produce distinct writers with fresh
  // sequence numbers, so ordering by seq stays total per fragment.
  std::map<ObjectId, std::set<std::pair<SeqNum, TxnId>>> seen;
  // Nearly always a single fragment per object, but nothing in the
  // record format forbids several fragments' updaters writing one
  // object, so file such an object (and its reads) under each.
  std::map<ObjectId, std::set<FragmentId>> fragments_of;
  for (const InstallRecord& rec : installs_) {
    t.writes.try_emplace(rec.writer, &rec.writes);
    for (const WriteOp& w : rec.writes) {
      seen[w.object].emplace(rec.seq, rec.writer);
      fragments_of[w.object].insert(rec.fragment);
    }
  }
  for (const auto& [object, chain] : seen) {
    std::vector<std::pair<TxnId, SeqNum>>& out = t.versions[object];
    out.reserve(chain.size());
    for (const auto& [seq, writer] : chain) out.emplace_back(writer, seq);
    for (FragmentId f : fragments_of[object]) {
      t.objects_of[f].push_back(object);
    }
  }
  for (const auto& [id, rec] : txns_) {
    if (rec.committed && !rec.read_only) {
      t.updaters[rec.type_fragment].push_back(id);
    }
  }
  for (const ReadRecord& r : reads_) {
    auto it = fragments_of.find(r.object);
    if (it == fragments_of.end()) {
      t.reads_on[kInvalidFragment].push_back(&r);
      continue;
    }
    for (FragmentId f : it->second) t.reads_on[f].push_back(&r);
  }
  return t;
}

namespace {

/// The entry for `key`, or a shared empty value.
template <typename Map>
const typename Map::mapped_type& FindOrEmpty(const Map& map,
                                             const typename Map::key_type& key) {
  static const typename Map::mapped_type kEmpty{};
  auto it = map.find(key);
  return it == map.end() ? kEmpty : it->second;
}

}  // namespace

const std::vector<std::pair<TxnId, SeqNum>>& History::VersionsOf(
    ObjectId object) const {
  return FindOrEmpty(lookups().versions, object);
}

const std::vector<WriteOp>& History::WritesOf(TxnId writer) const {
  static const std::vector<WriteOp> kEmpty;
  const std::vector<WriteOp>* writes = FindOrEmpty(lookups().writes, writer);
  return writes == nullptr ? kEmpty : *writes;
}

const std::vector<TxnId>& History::UpdatersOf(FragmentId fragment) const {
  return FindOrEmpty(lookups().updaters, fragment);
}

const std::vector<ObjectId>& History::ObjectsOf(FragmentId fragment) const {
  return FindOrEmpty(lookups().objects_of, fragment);
}

const std::vector<const ReadRecord*>& History::ReadsOn(
    FragmentId fragment) const {
  return FindOrEmpty(lookups().reads_on, fragment);
}

const std::map<ObjectId, std::vector<std::pair<TxnId, SeqNum>>>&
History::VersionChains() const {
  return lookups().versions;
}

}  // namespace fragdb

#include "verify/history.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace fragdb {

void History::RegisterTxn(const TxnRecord& record) {
  FRAGDB_CHECK(record.id != kInvalidTxn);
  txns_[record.id] = record;
}

void History::MarkCommitted(TxnId id, SeqNum frag_seq) {
  auto it = txns_.find(id);
  FRAGDB_CHECK(it != txns_.end());
  it->second.committed = true;
  it->second.frag_seq = frag_seq;
}

void History::MarkCommittedPartial(TxnId id, SeqNum frag_seq) {
  TxnRecord& rec = txns_[id];
  rec.id = id;
  rec.committed = true;
  rec.frag_seq = frag_seq;
}

void History::AbsorbShard(History* shard) {
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

void History::RecordRead(const ReadRecord& read) { reads_.push_back(read); }

void History::RecordQuorumWrite(const QuorumWriteRecord& record) {
  quorum_writes_.push_back(record);
}

void History::RecordQuorumRead(const QuorumReadRecord& record) {
  quorum_reads_.push_back(record);
}

void History::RecordDecision(const CommitDecisionRecord& record) {
  decisions_.push_back(record);
}

void History::RecordInstall(NodeId node, const QuasiTxn& quasi, SimTime at,
                            int incarnation) {
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

std::vector<TxnId> History::UpdatersOf(FragmentId fragment) const {
  std::vector<TxnId> out;
  for (const auto& [id, rec] : txns_) {
    if (rec.committed && !rec.read_only && rec.type_fragment == fragment) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<WriteOp> History::WritesOf(TxnId writer) const {
  for (const InstallRecord& rec : installs_) {
    if (rec.writer == writer) return rec.writes;
  }
  return {};
}

std::vector<std::pair<TxnId, SeqNum>> History::VersionsOf(
    ObjectId object) const {
  // Collect distinct (writer, seq) pairs that wrote `object`, ordered by
  // seq. Installs replicate the same version at several nodes; take each
  // once. Repackaged §4.4.3 transactions produce distinct writers with
  // fresh sequence numbers, so ordering by seq stays total per fragment.
  std::set<std::pair<SeqNum, TxnId>> seen;
  for (const InstallRecord& rec : installs_) {
    for (const WriteOp& w : rec.writes) {
      if (w.object == object) seen.emplace(rec.seq, rec.writer);
    }
  }
  std::vector<std::pair<TxnId, SeqNum>> out;
  out.reserve(seen.size());
  for (const auto& [seq, writer] : seen) out.emplace_back(writer, seq);
  return out;
}

}  // namespace fragdb

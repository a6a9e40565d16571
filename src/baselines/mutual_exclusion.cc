#include "baselines/mutual_exclusion.h"

#include <algorithm>

#include "common/logging.h"

namespace fragdb {

struct MutualExclusionEngine::ForwardMsg : MessagePayload {
  TxnSpec spec;
  NodeId reply_to = kInvalidNode;
  int64_t request_id = 0;
};

struct MutualExclusionEngine::ReplyMsg : MessagePayload {
  int64_t request_id = 0;
  TxnResult result;
};

struct MutualExclusionEngine::ApplyMsg : MessagePayload {
  SeqNum seq = 0;
  std::vector<WriteOp> writes;
  size_t ByteSize() const override { return 16 + writes.size() * 16; }
};

MutualExclusionEngine::MutualExclusionEngine(const Catalog* catalog,
                                             Topology topology, Config config)
    : catalog_(catalog), topology_(std::move(topology)),
      engine_(topology_.node_count()),
      config_(config) {
  (void)catalog_;
  network_ = std::make_unique<Network>(&engine_, &topology_);
  int n = topology_.node_count();
  applied_.assign(n, 0);
  holdback_.resize(n);
  for (NodeId node = 0; node < n; ++node) {
    stores_.push_back(std::make_unique<ObjectStore>(catalog));
    network_->SetHandler(node, [this, node](const Message& msg) {
      HandleMessage(node, msg);
    });
  }
}

NodeId MutualExclusionEngine::SequencerFor(NodeId node) const {
  int majority = topology_.node_count() / 2 + 1;
  for (const auto& comp : topology_.Components()) {
    if (std::find(comp.begin(), comp.end(), node) == comp.end()) continue;
    if (static_cast<int>(comp.size()) >= majority) return comp[0];
    return kInvalidNode;
  }
  return kInvalidNode;
}

void MutualExclusionEngine::Submit(NodeId node, const TxnSpec& spec,
                                   TxnCallback done) {
  ++stats_.submitted;
  NodeId sequencer = SequencerFor(node);
  if (sequencer == kInvalidNode) {
    ++stats_.rejected_minority;
    TxnResult r;
    r.status = Status::Unavailable("node is not in a majority component");
    r.finished_at = engine_.Now();
    done(std::move(r));
    return;
  }
  int64_t request_id = next_request_id_++;
  PendingRequest pending;
  pending.done = std::move(done);
  pending.timeout = engine_.AfterNode(
      node, config_.reply_timeout, [this, request_id] {
    auto it = pending_.find(request_id);
    if (it == pending_.end()) return;
    TxnCallback cb = std::move(it->second.done);
    pending_.erase(it);
    ++stats_.timed_out;
    TxnResult r;
    r.status = Status::TimedOut("no reply from sequencer");
    r.finished_at = engine_.Now();
    cb(std::move(r));
  });
  pending_[request_id] = std::move(pending);
  if (sequencer == node) {
    ExecuteAtSequencer(node, spec, node, request_id);
    return;
  }
  auto fwd = std::make_shared<ForwardMsg>();
  fwd->spec = spec;
  fwd->reply_to = node;
  fwd->request_id = request_id;
  Status st = network_->Send(node, sequencer, fwd);
  FRAGDB_CHECK(st.ok());
}

void MutualExclusionEngine::ExecuteAtSequencer(NodeId seq_node,
                                               const TxnSpec& spec,
                                               NodeId reply_to,
                                               int64_t request_id) {
  engine_.AfterNode(seq_node, config_.exec_time, [this, seq_node, spec,
                                                  reply_to, request_id] {
    ObjectStore& store = *stores_[seq_node];
    TxnResult result;
    result.reads.reserve(spec.read_set.size());
    for (ObjectId o : spec.read_set) result.reads.push_back(store.Read(o));
    Result<std::vector<WriteOp>> out = spec.body
        ? spec.body(result.reads)
        : Result<std::vector<WriteOp>>(std::vector<WriteOp>{});
    if (!out.ok()) {
      result.status = out.status();
    } else {
      result.status = Status::Ok();
      result.writes = *out;
      SeqNum seq = next_global_seq_++;
      result.frag_seq = seq;
      for (const WriteOp& w : result.writes) {
        store.Write(w.object, w.value, 0, seq, engine_.Now());
      }
      applied_[seq_node] = seq;
      auto apply = std::make_shared<ApplyMsg>();
      apply->seq = seq;
      apply->writes = result.writes;
      Status st = network_->SendToAll(seq_node, apply);
      FRAGDB_CHECK(st.ok());
    }
    result.finished_at = engine_.Now();
    if (reply_to == seq_node) {
      auto it = pending_.find(request_id);
      if (it != pending_.end()) {
        engine_.CancelNode(reply_to, it->second.timeout);
        TxnCallback cb = std::move(it->second.done);
        pending_.erase(it);
        if (result.status.ok()) {
          ++stats_.committed;
        } else if (result.status.IsFailedPrecondition()) {
          ++stats_.declined;
        }
        cb(std::move(result));
      }
      return;
    }
    auto reply = std::make_shared<ReplyMsg>();
    reply->request_id = request_id;
    reply->result = result;
    Status st = network_->Send(seq_node, reply_to, reply);
    FRAGDB_CHECK(st.ok());
  });
}

void MutualExclusionEngine::HandleMessage(NodeId node, const Message& msg) {
  const MessagePayload* p = msg.payload.get();
  if (auto* fwd = dynamic_cast<const ForwardMsg*>(p)) {
    ExecuteAtSequencer(node, fwd->spec, fwd->reply_to, fwd->request_id);
    return;
  }
  if (auto* reply = dynamic_cast<const ReplyMsg*>(p)) {
    auto it = pending_.find(reply->request_id);
    if (it == pending_.end()) return;  // timed out earlier
    engine_.CancelNode(node, it->second.timeout);
    TxnCallback cb = std::move(it->second.done);
    pending_.erase(it);
    if (reply->result.status.ok()) {
      ++stats_.committed;
    } else if (reply->result.status.IsFailedPrecondition()) {
      ++stats_.declined;
    }
    TxnResult result = reply->result;
    result.finished_at = engine_.Now();  // when the submitter learned of it
    cb(std::move(result));
    return;
  }
  if (auto* apply = dynamic_cast<const ApplyMsg*>(p)) {
    holdback_[node][apply->seq] = apply->writes;
    TryApply(node);
    return;
  }
}

void MutualExclusionEngine::TryApply(NodeId node) {
  auto& hb = holdback_[node];
  while (true) {
    auto it = hb.find(applied_[node] + 1);
    if (it == hb.end()) break;
    for (const WriteOp& w : it->second) {
      stores_[node]->Write(w.object, w.value, 0, it->first, engine_.Now());
    }
    applied_[node] = it->first;
    hb.erase(it);
  }
}

Status MutualExclusionEngine::Partition(
    const std::vector<std::vector<NodeId>>& groups) {
  return topology_.Partition(groups);
}

void MutualExclusionEngine::HealAll() { topology_.HealAll(); }
void MutualExclusionEngine::RunFor(SimTime duration) {
  engine_.RunUntil(engine_.Now() + duration);
}
void MutualExclusionEngine::RunToQuiescence() { engine_.RunToQuiescence(); }

Value MutualExclusionEngine::ReadAt(NodeId node, ObjectId object) const {
  return stores_[node]->Read(object);
}

std::vector<const ObjectStore*> MutualExclusionEngine::Replicas() const {
  std::vector<const ObjectStore*> out;
  for (const auto& s : stores_) out.push_back(s.get());
  return out;
}

}  // namespace fragdb

namespace fragdb {
MutualExclusionEngine::MutualExclusionEngine(const Catalog* catalog,
                                             Topology topology)
    : MutualExclusionEngine(catalog, std::move(topology), Config()) {}
}  // namespace fragdb

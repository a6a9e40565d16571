#include "baselines/log_transform.h"

#include <algorithm>

#include "common/logging.h"

namespace fragdb {

struct LogTransformEngine::OpMsg : MessagePayload {
  LogOp op;
  size_t ByteSize() const override {
    return 48 + op.spec.read_set.size() * 8;
  }
};

LogTransformEngine::LogTransformEngine(const Catalog* catalog,
                                       Topology topology, Config config)
    : catalog_(catalog), topology_(std::move(topology)),
      engine_(topology_.node_count()),
      config_(config) {
  network_ = std::make_unique<Network>(&engine_, &topology_);
  int n = topology_.node_count();
  logs_.resize(n);
  next_local_seq_.assign(n, 1);
  predicate_held_.resize(n);
  for (NodeId node = 0; node < n; ++node) {
    stores_.push_back(std::make_unique<ObjectStore>(catalog));
    network_->SetHandler(node, [this, node](const Message& msg) {
      HandleMessage(node, msg);
    });
  }
}

void LogTransformEngine::WatchPredicate(ConsistencyPredicate predicate,
                                        Corrective corrective) {
  for (NodeId node = 0; node < topology_.node_count(); ++node) {
    predicate_held_[node].push_back(
        EvaluatePredicate(predicate, *stores_[node]));
  }
  watched_.emplace_back(std::move(predicate), std::move(corrective));
}

void LogTransformEngine::Submit(NodeId node, const TxnSpec& spec,
                                TxnCallback done) {
  Submit(node, spec, spec, std::move(done));
}

void LogTransformEngine::Submit(NodeId node, const TxnSpec& decision,
                                const TxnSpec& effect, TxnCallback done) {
  ++stats_.submitted;
  engine_.AfterNode(node, config_.exec_time, [this, node, decision, effect,
                                              done = std::move(done)] {
    // Evaluate the accept-time decision against the local state
    // ("free-for-all": always possible, possibly on stale data).
    ObjectStore& store = *stores_[node];
    TxnResult result;
    for (ObjectId o : decision.read_set) {
      result.reads.push_back(store.Read(o));
    }
    Result<std::vector<WriteOp>> out = decision.body
        ? decision.body(result.reads)
        : Result<std::vector<WriteOp>>(std::vector<WriteOp>{});
    result.finished_at = engine_.Now();
    if (!out.ok()) {
      ++stats_.declined;
      result.status = out.status();
      done(std::move(result));
      return;
    }
    ++stats_.accepted;
    result.status = Status::Ok();

    // Log and apply the effect.
    LogOp op;
    op.ts = engine_.Now();
    op.origin = node;
    op.local_seq = next_local_seq_[node]++;
    op.spec = effect;
    std::vector<Value> effect_reads;
    for (ObjectId o : effect.read_set) effect_reads.push_back(store.Read(o));
    Result<std::vector<WriteOp>> eff = effect.body
        ? effect.body(effect_reads)
        : Result<std::vector<WriteOp>>(std::vector<WriteOp>{});
    if (eff.ok()) {
      result.writes = *eff;
      for (const WriteOp& w : result.writes) {
        store.Write(w.object, w.value, 0, 0, engine_.Now());
      }
    }
    logs_[node].push_back(op);
    auto msg = std::make_shared<OpMsg>();
    msg->op = op;
    Status st = network_->SendToAll(node, msg);
    FRAGDB_CHECK(st.ok());
    CheckPredicates(node);
    done(std::move(result));
  });
}

void LogTransformEngine::HandleMessage(NodeId node, const Message& msg) {
  auto* op_msg = dynamic_cast<const OpMsg*>(msg.payload.get());
  if (op_msg == nullptr) return;
  Integrate(node, op_msg->op);
}

void LogTransformEngine::Integrate(NodeId node, const LogOp& op) {
  std::vector<LogOp>& log = logs_[node];
  if (log.empty() || log.back() < op) {
    // Lands at the end: apply incrementally.
    log.push_back(op);
    ApplyOp(node, op, /*counts_as_backout=*/true);
    CheckPredicates(node);
    return;
  }
  // Lands in the past: this is a log merge. Insert in order and replay the
  // full log against a fresh state — the log-transformation step whose
  // cost the paper calls out.
  auto pos = std::upper_bound(log.begin(), log.end(), op);
  log.insert(pos, op);
  ReplayFrom(node);
  CheckPredicates(node);
}

bool LogTransformEngine::ApplyOp(NodeId node, const LogOp& op,
                                 bool counts_as_backout) {
  ObjectStore& store = *stores_[node];
  std::vector<Value> reads;
  reads.reserve(op.spec.read_set.size());
  for (ObjectId o : op.spec.read_set) reads.push_back(store.Read(o));
  Result<std::vector<WriteOp>> out = op.spec.body
      ? op.spec.body(reads)
      : Result<std::vector<WriteOp>>(std::vector<WriteOp>{});
  if (!out.ok()) {
    // The operation no longer applies in the merged order.
    if (counts_as_backout && node == op.origin) ++stats_.backed_out;
    return false;
  }
  for (const WriteOp& w : *out) {
    store.Write(w.object, w.value, 0, 0, engine_.Now());
  }
  return true;
}

void LogTransformEngine::ReplayFrom(NodeId node) {
  ++stats_.replays;
  stores_[node] = std::make_unique<ObjectStore>(catalog_);
  for (const LogOp& op : logs_[node]) {
    ++stats_.replayed_ops;
    ApplyOp(node, op, /*counts_as_backout=*/true);
  }
}

void LogTransformEngine::CheckPredicates(NodeId node) {
  for (size_t i = 0; i < watched_.size(); ++i) {
    const auto& [predicate, corrective] = watched_[i];
    bool now = EvaluatePredicate(predicate, *stores_[node]);
    bool held = predicate_held_[node][i];
    predicate_held_[node][i] = now;
    if (held && !now && corrective) {
      // This node takes the corrective action itself. Nothing stops a node
      // in another partition from doing the same — the paper's point.
      TxnSpec fix = corrective(predicate, *stores_[node]);
      if (fix.body) {
        ++stats_.corrective_ops;
        Submit(node, fix, [](const TxnResult&) {});
      }
    }
  }
}

Status LogTransformEngine::Partition(
    const std::vector<std::vector<NodeId>>& groups) {
  return topology_.Partition(groups);
}

void LogTransformEngine::HealAll() { topology_.HealAll(); }
void LogTransformEngine::RunFor(SimTime duration) {
  engine_.RunUntil(engine_.Now() + duration);
}
void LogTransformEngine::RunToQuiescence() { engine_.RunToQuiescence(); }

Value LogTransformEngine::ReadAt(NodeId node, ObjectId object) const {
  return stores_[node]->Read(object);
}

std::vector<const ObjectStore*> LogTransformEngine::Replicas() const {
  std::vector<const ObjectStore*> out;
  for (const auto& s : stores_) out.push_back(s.get());
  return out;
}

}  // namespace fragdb

namespace fragdb {
LogTransformEngine::LogTransformEngine(const Catalog* catalog,
                                       Topology topology)
    : LogTransformEngine(catalog, std::move(topology), Config()) {}
}  // namespace fragdb

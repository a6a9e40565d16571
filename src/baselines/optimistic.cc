#include "baselines/optimistic.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"

namespace fragdb {

struct OptimisticEngine::EraLogMsg : MessagePayload {
  std::vector<EraTxn> txns;
  size_t ByteSize() const override { return 32 + txns.size() * 64; }
};

OptimisticEngine::OptimisticEngine(const Catalog* catalog, Topology topology,
                                   Config config)
    : catalog_(catalog), topology_(std::move(topology)),
      engine_(topology_.node_count()),
      config_(config) {
  network_ = std::make_unique<Network>(&engine_, &topology_);
  int n = topology_.node_count();
  era_.resize(n);
  for (NodeId node = 0; node < n; ++node) {
    stores_.push_back(std::make_unique<ObjectStore>(catalog));
    // The engine reconciles synchronously in Merge(); era-log messages are
    // sent only to account for traffic, so the handler just absorbs them.
    network_->SetHandler(node, [](const Message&) {});
  }
}

void OptimisticEngine::Submit(NodeId node, const TxnSpec& spec,
                              TxnCallback done) {
  ++stats_.submitted;
  engine_.AfterNode(node, config_.exec_time,
                    [this, node, spec, done = std::move(done)] {
    ObjectStore& store = *stores_[node];
    TxnResult result;
    for (ObjectId o : spec.read_set) result.reads.push_back(store.Read(o));
    Result<std::vector<WriteOp>> out = spec.body
        ? spec.body(result.reads)
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
    result.writes = *out;
    EraTxn txn;
    txn.id = next_txn_id_++;
    txn.node = node;
    txn.ts = engine_.Now();
    txn.spec = spec;
    txn.reads.insert(spec.read_set.begin(), spec.read_set.end());
    for (const WriteOp& w : result.writes) {
      txn.writes.insert(w.object);
      store.Write(w.object, w.value, 0, 0, engine_.Now());
    }
    era_[node].push_back(std::move(txn));
    done(std::move(result));
  });
}

Status OptimisticEngine::Merge() {
  // All nodes must be mutually reachable.
  if (topology_.Components().size() != 1u) {
    return Status::FailedPrecondition("network is still partitioned");
  }
  // Account for the log exchange: every node ships its era log to every
  // other node.
  SimTime max_latency = 0;
  for (NodeId node = 0; node < topology_.node_count(); ++node) {
    auto msg = std::make_shared<EraLogMsg>();
    msg->txns = era_[node];
    Status st = network_->SendToAll(node, msg);
    FRAGDB_CHECK(st.ok());
    for (NodeId other = 0; other < topology_.node_count(); ++other) {
      if (other == node) continue;
      Result<SimTime> lat = topology_.PathLatency(node, other);
      if (lat.ok()) max_latency = std::max(max_latency, *lat);
    }
  }
  DoMerge(max_latency);
  return Status::Ok();
}

void OptimisticEngine::DoMerge(SimTime exchange_latency) {
  ++stats_.merges;
  // Gather all era transactions, globally ordered by (ts, node, id).
  std::vector<EraTxn> all;
  for (auto& log : era_) {
    all.insert(all.end(), log.begin(), log.end());
    log.clear();
  }
  std::sort(all.begin(), all.end(), [](const EraTxn& a, const EraTxn& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.node != b.node) return a.node < b.node;
    return a.id < b.id;
  });

  // Precedence graph. Same-node pairs: execution order. Cross-node pairs:
  //   rw: T' read an object T wrote (T' saw the pre-T value) => T' -> T;
  //   ww: both wrote an object => edges both ways (forces a rollback).
  std::map<int64_t, std::set<int64_t>> edges;
  auto intersects = [](const std::set<ObjectId>& a,
                       const std::set<ObjectId>& b) {
    for (ObjectId o : a) {
      if (b.count(o) > 0) return true;
    }
    return false;
  };
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = 0; j < all.size(); ++j) {
      if (i == j) continue;
      const EraTxn& t = all[i];
      const EraTxn& u = all[j];
      if (t.node == u.node) {
        if (t.ts < u.ts && (intersects(t.writes, u.reads) ||
                            intersects(t.reads, u.writes) ||
                            intersects(t.writes, u.writes))) {
          edges[t.id].insert(u.id);
        }
        continue;
      }
      if (intersects(t.writes, u.reads)) edges[u.id].insert(t.id);  // rw
      if (intersects(t.writes, u.writes)) {
        edges[t.id].insert(u.id);
        edges[u.id].insert(t.id);
      }
    }
  }

  // Break cycles: repeatedly find one and roll back its youngest member.
  std::set<int64_t> rolled_back;
  auto find_cycle = [&]() -> std::vector<int64_t> {
    std::map<int64_t, int> color;
    std::vector<int64_t> stack, cycle;
    std::function<bool(int64_t)> dfs = [&](int64_t v) -> bool {
      color[v] = 1;
      stack.push_back(v);
      for (int64_t next : edges[v]) {
        if (rolled_back.count(next) > 0) continue;
        if (color[next] == 1) {
          auto pos = std::find(stack.begin(), stack.end(), next);
          cycle.assign(pos, stack.end());
          return true;
        }
        if (color[next] == 0 && dfs(next)) return true;
      }
      stack.pop_back();
      color[v] = 2;
      return false;
    };
    for (const EraTxn& t : all) {
      if (rolled_back.count(t.id) > 0) continue;
      if (color[t.id] == 0 && dfs(t.id)) return cycle;
    }
    return {};
  };
  while (true) {
    std::vector<int64_t> cycle = find_cycle();
    if (cycle.empty()) break;
    int64_t victim = *std::max_element(cycle.begin(), cycle.end());
    rolled_back.insert(victim);
    ++stats_.rolled_back;
  }

  // Rebuild the merged state: survivors re-executed in global order, then
  // the rolled-back transactions re-executed on top.
  ObjectStore merged(catalog_);
  auto run = [&](const EraTxn& t) {
    std::vector<Value> reads;
    for (ObjectId o : t.spec.read_set) reads.push_back(merged.Read(o));
    Result<std::vector<WriteOp>> out = t.spec.body
        ? t.spec.body(reads)
        : Result<std::vector<WriteOp>>(std::vector<WriteOp>{});
    if (!out.ok()) return false;
    for (const WriteOp& w : *out) {
      merged.Write(w.object, w.value, 0, 0, engine_.Now());
    }
    return true;
  };
  for (const EraTxn& t : all) {
    if (rolled_back.count(t.id) == 0) run(t);
  }
  for (const EraTxn& t : all) {
    if (rolled_back.count(t.id) > 0) {
      ++stats_.reexecuted;
      run(t);
    }
  }

  // Install the merged state everywhere once the exchange would have
  // completed.
  // The install touches every replica: a global event.
  engine_.AtGlobal(engine_.Now() + exchange_latency,
                   [this, merged = std::move(merged)] {
    for (auto& store : stores_) {
      for (ObjectId o = 0; o < catalog_->object_count(); ++o) {
        store->Write(o, merged.Read(o), 0, 0, engine_.Now());
      }
    }
  });
}

Status OptimisticEngine::Partition(
    const std::vector<std::vector<NodeId>>& groups) {
  return topology_.Partition(groups);
}

void OptimisticEngine::HealAll() { topology_.HealAll(); }
void OptimisticEngine::RunFor(SimTime duration) {
  engine_.RunUntil(engine_.Now() + duration);
}
void OptimisticEngine::RunToQuiescence() { engine_.RunToQuiescence(); }

Value OptimisticEngine::ReadAt(NodeId node, ObjectId object) const {
  return stores_[node]->Read(object);
}

std::vector<const ObjectStore*> OptimisticEngine::Replicas() const {
  std::vector<const ObjectStore*> out;
  for (const auto& s : stores_) out.push_back(s.get());
  return out;
}

}  // namespace fragdb

namespace fragdb {
OptimisticEngine::OptimisticEngine(const Catalog* catalog, Topology topology)
    : OptimisticEngine(catalog, std::move(topology), Config()) {}
}  // namespace fragdb

#ifndef FRAGDB_BASELINES_OPTIMISTIC_H_
#define FRAGDB_BASELINES_OPTIMISTIC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cc/transaction.h"
#include "common/status.h"
#include "common/types.h"
#include "net/network.h"
#include "sim/engine.h"
#include "storage/catalog.h"
#include "storage/object_store.h"

namespace fragdb {

/// Baseline: the optimistic partitioned-operation protocol of paper §1
/// (citing [4], Davidson). Every node accepts transactions against its
/// local replica at all times (full availability). Each node accumulates
/// the transactions of the current era; when the network heals, nodes
/// exchange era logs, build a cross-node precedence graph (an rw edge
/// T' -> T when T' read a value T overwrote on another node; write-write
/// conflicts force an order both ways), and roll transactions back until
/// the graph is acyclic. Surviving transactions' effects are replayed in
/// a deterministic order; rolled-back transactions are re-executed against
/// the merged state.
///
/// Simplifications (documented in DESIGN.md): during an era there is no
/// intra-component propagation — each node is its own optimistic group,
/// and the merge unifies all of them; the merge runs when Merge() is
/// called (typically right after HealAll()), exchanging one era-log
/// message per node pair.
class OptimisticEngine {
 public:
  struct Config {
    SimTime exec_time = Micros(100);
  };
  struct Stats {
    uint64_t submitted = 0;
    uint64_t accepted = 0;
    uint64_t declined = 0;
    uint64_t rolled_back = 0;   // victims of merge-time cycle breaking
    uint64_t reexecuted = 0;    // victims re-run against merged state
    uint64_t merges = 0;
  };
  using TxnCallback = std::function<void(const TxnResult&)>;

  OptimisticEngine(const Catalog* catalog, Topology topology,
                   Config config);
  OptimisticEngine(const Catalog* catalog, Topology topology);

  /// Executes a transaction immediately against `node`'s replica.
  void Submit(NodeId node, const TxnSpec& spec, TxnCallback done);

  /// Exchanges era logs and reconciles all replicas. All nodes must be
  /// mutually reachable (call after HealAll()); returns FailedPrecondition
  /// otherwise.
  Status Merge();

  Status Partition(const std::vector<std::vector<NodeId>>& groups);
  void HealAll();
  void RunFor(SimTime duration);
  void RunToQuiescence();
  SimTime Now() const { return engine_.Now(); }

  Value ReadAt(NodeId node, ObjectId object) const;
  std::vector<const ObjectStore*> Replicas() const;
  const Stats& stats() const { return stats_; }
  NetworkStats net_stats() const { return network_->stats(); }

 private:
  struct EraTxn {
    int64_t id = 0;  // global, for determinism of victim selection
    NodeId node = kInvalidNode;
    SimTime ts = 0;
    TxnSpec spec;
    std::set<ObjectId> reads;
    std::set<ObjectId> writes;
  };
  struct EraLogMsg;

  void DoMerge(SimTime exchange_latency);

  const Catalog* catalog_;
  Topology topology_;
  /// One partition, every event in (time, node, seq) order.
  SimEngine engine_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<ObjectStore>> stores_;
  std::vector<std::vector<EraTxn>> era_;  // per node
  int64_t next_txn_id_ = 1;
  Config config_;
  Stats stats_;
};

}  // namespace fragdb

#endif  // FRAGDB_BASELINES_OPTIMISTIC_H_

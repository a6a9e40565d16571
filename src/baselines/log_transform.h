#ifndef FRAGDB_BASELINES_LOG_TRANSFORM_H_
#define FRAGDB_BASELINES_LOG_TRANSFORM_H_

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
#include "verify/checkers.h"

namespace fragdb {

/// Baseline: the "free-for-all" log-transformation technique of paper §1
/// (citing [2]). Every node processes transactions immediately against its
/// local replica — availability is total — and appends each operation to a
/// timestamped log that is broadcast to all nodes. When logs merge (after
/// a partition heals), each node deterministically rebuilds its state by
/// re-executing every known operation in global timestamp order; an
/// operation whose body now declines (e.g., a withdrawal that no longer
/// fits the merged balance) is *backed out*.
///
/// Corrective actions reproduce the paper's §1 criticism: any node that
/// observes a registered predicate transition from holding to violated
/// issues the corrective operation itself. Nodes in different partitions
/// can each observe the violation and both issue the correction — the
/// "different fines / chaos ensues" anomaly, which the stats expose.
class LogTransformEngine {
 public:
  struct Config {
    SimTime exec_time = Micros(100);
  };
  struct Stats {
    uint64_t submitted = 0;
    uint64_t accepted = 0;       // executed locally at submit time
    uint64_t declined = 0;       // body declined at submit time
    uint64_t backed_out = 0;     // accepted earlier, declined in a merge
    uint64_t replays = 0;        // full log re-executions (merge overhead)
    uint64_t replayed_ops = 0;   // operations re-executed across replays
    uint64_t corrective_ops = 0;  // corrective operations issued
  };
  using TxnCallback = std::function<void(const TxnResult&)>;
  /// Invoked when `predicate` is newly violated at a node; returns the
  /// corrective operation to run there (or an empty spec.body to skip).
  using Corrective =
      std::function<TxnSpec(const ConsistencyPredicate& predicate,
                            const ObjectStore& state)>;

  LogTransformEngine(const Catalog* catalog, Topology topology,
                     Config config);
  LogTransformEngine(const Catalog* catalog, Topology topology);

  /// Registers a predicate watched at every node, with its corrective.
  void WatchPredicate(ConsistencyPredicate predicate, Corrective corrective);

  /// Submits a read-modify-write transaction at `node`; executes against
  /// the node's current local state immediately. The same body is used
  /// when the log is re-executed during merges, so an operation whose
  /// precondition no longer holds is backed out.
  void Submit(NodeId node, const TxnSpec& spec, TxnCallback done);

  /// Variant separating the accept-time *decision* from the logged
  /// *effect* (paper §1: a withdrawal is granted against the local
  /// balance, but once granted its effect is an unconditional debit that
  /// survives the merge — which is how the merged balance can go negative
  /// and trigger the corrective fine). `decision` runs once at submit
  /// time; `effect` is what enters the log and replays.
  void Submit(NodeId node, const TxnSpec& decision, const TxnSpec& effect,
              TxnCallback done);

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
  /// A logged operation: totally ordered by (ts, origin, local_seq).
  struct LogOp {
    SimTime ts = 0;
    NodeId origin = kInvalidNode;
    int64_t local_seq = 0;
    TxnSpec spec;

    bool operator<(const LogOp& other) const {
      if (ts != other.ts) return ts < other.ts;
      if (origin != other.origin) return origin < other.origin;
      return local_seq < other.local_seq;
    }
  };
  struct OpMsg;

  void HandleMessage(NodeId node, const Message& msg);
  /// Inserts an op into `node`'s log; replays if it lands in the past.
  void Integrate(NodeId node, const LogOp& op);
  /// Applies `op` to `node`'s state; returns false if the body declined.
  bool ApplyOp(NodeId node, const LogOp& op, bool counts_as_backout);
  void ReplayFrom(NodeId node);
  void CheckPredicates(NodeId node);

  const Catalog* catalog_;
  Topology topology_;
  /// One partition, every event in (time, node, seq) order.
  SimEngine engine_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<ObjectStore>> stores_;
  std::vector<std::vector<LogOp>> logs_;  // per node, kept sorted
  std::vector<int64_t> next_local_seq_;
  /// Per node and predicate index: did the predicate hold at last check?
  std::vector<std::vector<bool>> predicate_held_;
  std::vector<std::pair<ConsistencyPredicate, Corrective>> watched_;
  Config config_;
  Stats stats_;
};

}  // namespace fragdb

#endif  // FRAGDB_BASELINES_LOG_TRANSFORM_H_

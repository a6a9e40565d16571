#ifndef FRAGDB_BASELINES_MUTUAL_EXCLUSION_H_
#define FRAGDB_BASELINES_MUTUAL_EXCLUSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cc/transaction.h"
#include "common/status.h"
#include "common/types.h"
#include "net/network.h"
#include "sim/engine.h"
#include "storage/catalog.h"
#include "storage/object_store.h"

namespace fragdb {

/// Baseline: the conservative mutual-exclusion technique of paper §1
/// (citing [8]). Only one side of a partition — the one holding a majority
/// of nodes — may access the database; everyone else is denied service.
///
/// Concretely, a majority-quorum primary scheme: the lowest-numbered node
/// of the majority component acts as the sequencer. A transaction
/// submitted at a majority-side node is forwarded to the sequencer, which
/// executes it against its own replica (reads and writes), assigns a
/// global sequence number, replies to the submitter, and broadcasts the
/// writes; replicas apply them in sequence order. A transaction submitted
/// in a minority component is rejected as Unavailable — the availability
/// cost the paper holds against this technique.
///
/// Guarantees global serializability trivially (a single total order of
/// all transactions).
class MutualExclusionEngine {
 public:
  struct Config {
    SimTime exec_time = Micros(100);
    /// How long a submitter waits for the sequencer's reply before giving
    /// up (covers sequencer loss mid-flight).
    SimTime reply_timeout = Millis(500);
  };
  struct Stats {
    uint64_t submitted = 0;
    uint64_t committed = 0;
    uint64_t rejected_minority = 0;  // denied: submitter not in majority
    uint64_t declined = 0;           // body said FailedPrecondition
    uint64_t timed_out = 0;
  };
  using TxnCallback = std::function<void(const TxnResult&)>;

  /// `catalog` must outlive the engine (fragment structure is ignored;
  /// only objects and initial values matter).
  MutualExclusionEngine(const Catalog* catalog, Topology topology,
                        Config config);
  MutualExclusionEngine(const Catalog* catalog, Topology topology);

  /// Submits a read-modify-write transaction at `node`.
  void Submit(NodeId node, const TxnSpec& spec, TxnCallback done);

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
  struct ForwardMsg;
  struct ReplyMsg;
  struct ApplyMsg;

  /// The sequencer for `node`'s current component, or kInvalidNode if the
  /// component has no majority.
  NodeId SequencerFor(NodeId node) const;
  void HandleMessage(NodeId node, const Message& msg);
  void ExecuteAtSequencer(NodeId seq_node, const TxnSpec& spec,
                          NodeId reply_to, int64_t request_id);
  void TryApply(NodeId node);

  const Catalog* catalog_;
  Topology topology_;
  /// One partition, every event in (time, node, seq) order.
  SimEngine engine_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<ObjectStore>> stores_;
  /// Global total order of committed writes.
  SeqNum next_global_seq_ = 1;
  /// Per-node applied high-water mark and holdback.
  std::vector<SeqNum> applied_;
  std::vector<std::map<SeqNum, std::vector<WriteOp>>> holdback_;
  /// Outstanding forwarded requests (request id -> callback + timeout).
  struct PendingRequest {
    TxnCallback done;
    EventId timeout = -1;
  };
  std::map<int64_t, PendingRequest> pending_;
  int64_t next_request_id_ = 1;
  Config config_;
  Stats stats_;
};

}  // namespace fragdb

#endif  // FRAGDB_BASELINES_MUTUAL_EXCLUSION_H_

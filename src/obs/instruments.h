#ifndef FRAGDB_OBS_INSTRUMENTS_H_
#define FRAGDB_OBS_INSTRUMENTS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fragdb {

/// Per-cluster observability switches (ClusterConfig::observability).
/// Everything is off by default; when off the cluster allocates neither a
/// registry nor a tracer and every instrumentation site is a null-pointer
/// check.
struct ObservabilityConfig {
  /// Allocate the metrics registries (one per node plus one for global
  /// events) and wire the built-in instruments.
  bool metrics = false;
  /// Allocate a Tracer recording every structured TraceEvent.
  bool tracing = false;
  /// Allocate the time-series layer (ClusterTimelines + AvailabilityTracker):
  /// per-node bucketed series of commits/unavailability/lag plus
  /// per-(node,fragment) read/write availability state machines. Purely
  /// push-based — no events are scheduled, so simulation behavior is
  /// byte-identical with timelines on or off.
  bool timelines = false;
  /// Simulated-time width of one timeline bucket.
  SimTime timeline_bucket_width = Millis(10);
  /// Replication lag beyond which a replica counts as degraded-stale for
  /// reads. Default sits above healthy propagation (link latency + a few
  /// scheduler steps) but below gray-link / repair-path delays.
  SimTime staleness_threshold = Millis(15);
  /// Keep a bounded per-node ring of recent trace events, dumpable as
  /// JSONL when a verify check fails.
  bool flight_recorder = false;
  /// Events retained per node ring (and for the cluster-wide ring); 0
  /// keeps everything.
  int flight_recorder_capacity = 256;

  bool enabled() const {
    return metrics || tracing || timelines || flight_recorder;
  }
};

/// The cluster's built-in instrument panel: every handle pre-resolved at
/// Start() so hot paths do no map lookups. Metric catalog (units and
/// meanings) is documented in docs/OBSERVABILITY.md.
///
/// Handles are sharded so concurrent partitions never share a series:
/// node n's series live in `registries[n]`, the cluster-wide environment
/// counters (bumped only from global events) in the last registry, and
/// per-type traffic counters in the registry of the acting node.
/// Merging the registries' snapshots yields the same series an unsharded
/// registry would hold.
class ClusterInstruments {
 public:
  /// `registries` holds one registry per node plus one for global
  /// contexts (last); it must outlive the instruments.
  ClusterInstruments(std::vector<MetricsRegistry>* registries, int fragments,
                     bool durability);

  // Per-node transaction outcomes.
  Counter* TxnSubmitted(NodeId n) { return txn_submitted_[n]; }
  Counter* TxnCommitted(NodeId n) { return txn_committed_[n]; }
  Counter* TxnDeclined(NodeId n) { return txn_declined_[n]; }
  Counter* TxnUnavailable(NodeId n) { return txn_unavailable_[n]; }
  Counter* TxnRejected(NodeId n) { return txn_rejected_[n]; }

  // Per-node quorum / Paxos Commit protocol progress.
  Counter* QuorumWriteAcked(NodeId n) { return quorum_write_acked_[n]; }
  Counter* QuorumReadServed(NodeId n) { return quorum_read_served_[n]; }
  Counter* PaxosDecided(NodeId n) { return paxos_decided_[n]; }
  Counter* PaxosRecoveryRounds(NodeId n) { return paxos_recovery_rounds_[n]; }

  // Per-node timing distributions (microseconds).
  Histogram* CommitLatency(NodeId n) { return commit_latency_us_[n]; }
  Histogram* LockWait(NodeId n) { return lock_wait_us_[n]; }
  Histogram* LockHold(NodeId n) { return lock_hold_us_[n]; }
  Histogram* ReadStaleness(NodeId n) { return read_staleness_us_[n]; }

  // Per (node, fragment) replication state.
  Histogram* ReplicationLag(NodeId n, FragmentId f) {
    return replication_lag_us_[Index(n, f)];
  }
  Gauge* HoldbackDepth(NodeId n, FragmentId f) {
    return holdback_depth_[Index(n, f)];
  }
  Gauge* AppliedSeq(NodeId n, FragmentId f) {
    return applied_seq_[Index(n, f)];
  }

  // Cluster-wide environment events (global events only).
  Counter* Partitions() { return partitions_; }
  Counter* Heals() { return heals_; }
  Counter* NodeDowns() { return node_down_; }
  Counter* NodeUps() { return node_up_; }
  Counter* AmnesiaCrashes() { return amnesia_crashes_; }
  Counter* Recoveries() { return recoveries_; }

  // Durability / recovery (gauges refreshed at snapshot time; null when
  // the cluster runs without durability).
  Gauge* WalRecords(NodeId n) { return durability_ ? wal_records_[n] : nullptr; }
  Gauge* WalFsyncs(NodeId n) { return durability_ ? wal_fsyncs_[n] : nullptr; }
  Gauge* Checkpoints(NodeId n) {
    return durability_ ? checkpoints_committed_[n] : nullptr;
  }
  Gauge* WalBytesTruncated(NodeId n) {
    return durability_ ? wal_bytes_truncated_[n] : nullptr;
  }
  Histogram* RecoveryDuration(NodeId n) {
    return durability_ ? recovery_duration_us_[n] : nullptr;
  }
  Counter* WalReplayed(NodeId n) {
    return durability_ ? wal_replayed_[n] : nullptr;
  }
  Counter* PeerQuasisFetched(NodeId n) {
    return durability_ ? peer_quasis_fetched_[n] : nullptr;
  }

  /// Traffic accounting by payload type ("messages_sent_total" /
  /// "bytes_sent_total" with label=type), counted in the shard of the
  /// acting node (kInvalidNode = a global event). The per-type counters
  /// are cached by the type-name pointer — TypeName() returns static
  /// literals, so the steady state is a short pointer-compare scan with
  /// no string work.
  void OnMessageSent(NodeId acting, const char* type, size_t bytes) {
    TrafficShard& shard =
        traffic_[acting == kInvalidNode ? traffic_.size() - 1
                                        : static_cast<size_t>(acting)];
    for (const TypeCounters& tc : shard.fast) {
      if (tc.type == type) {
        tc.messages->Add();
        tc.bytes->Add(bytes);
        return;
      }
    }
    OnMessageSentSlow(&shard, type, bytes);
  }

  bool has_durability() const { return durability_; }

 private:
  struct TypeCounters {
    const char* type;
    Counter* messages;
    Counter* bytes;
  };
  /// One shard's per-type traffic counters.
  struct TrafficShard {
    MetricsRegistry* registry;
    std::map<std::string, std::pair<Counter*, Counter*>> by_name;
    std::vector<TypeCounters> fast;
  };

  size_t Index(NodeId n, FragmentId f) const {
    return static_cast<size_t>(n) * fragments_ + f;
  }

  static void OnMessageSentSlow(TrafficShard* shard, const char* type,
                                size_t bytes);

  int fragments_;
  bool durability_;

  std::vector<Counter*> txn_submitted_, txn_committed_, txn_declined_,
      txn_unavailable_, txn_rejected_;
  std::vector<Counter*> quorum_write_acked_, quorum_read_served_,
      paxos_decided_, paxos_recovery_rounds_;
  std::vector<Histogram*> commit_latency_us_, lock_wait_us_, lock_hold_us_,
      read_staleness_us_;
  std::vector<Histogram*> replication_lag_us_;
  std::vector<Gauge*> holdback_depth_, applied_seq_;
  Counter* partitions_ = nullptr;
  Counter* heals_ = nullptr;
  Counter* node_down_ = nullptr;
  Counter* node_up_ = nullptr;
  Counter* amnesia_crashes_ = nullptr;
  Counter* recoveries_ = nullptr;
  std::vector<Gauge*> wal_records_, wal_fsyncs_, checkpoints_committed_,
      wal_bytes_truncated_;
  std::vector<Histogram*> recovery_duration_us_;
  std::vector<Counter*> wal_replayed_, peer_quasis_fetched_;
  std::vector<TrafficShard> traffic_;  // nodes + 1 (global last)
};

}  // namespace fragdb

#endif  // FRAGDB_OBS_INSTRUMENTS_H_

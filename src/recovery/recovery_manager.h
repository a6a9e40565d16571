#ifndef FRAGDB_RECOVERY_RECOVERY_MANAGER_H_
#define FRAGDB_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/types.h"
#include "core/messages.h"
#include "sim/event_queue.h"

namespace fragdb {

class Cluster;

/// What one node recovery did, reported to the ReviveNode callback and
/// retained for inspection (Cluster::LastRecovery).
struct RecoveryStats {
  /// False when the revived node was only crash-stopped (state survived,
  /// nothing to recover).
  bool ran = false;
  bool checkpoint_loaded = false;
  /// The WAL ended in a torn/corrupt record (a crash inside the simulated
  /// fsync is expected to produce none; torn tails come from tests that
  /// corrupt stable storage directly).
  bool wal_torn_tail = false;
  uint64_t wal_records_replayed = 0;
  /// Records the checkpoint or an epoch change made stale.
  uint64_t wal_records_skipped = 0;
  /// Quasi-transactions received in peer catch-up replies (pre-dedup).
  uint64_t peer_quasis_fetched = 0;
  int peers_queried = 0;
  int peers_replied = 0;
  SimTime started_at = 0;
  /// Local restore done (checkpoint load + WAL replay); the node is back
  /// on the network from this instant.
  SimTime local_replay_done_at = 0;
  SimTime finished_at = 0;

  SimTime Duration() const { return finished_at - started_at; }
};

using RecoveryCallback = std::function<void(const RecoveryStats&)>;

/// Rebuilds an amnesia-crashed node (§4.4-style availability applied to
/// node state): restore the last checkpoint image from stable storage,
/// replay the durable WAL suffix, then close the gap between the durable
/// state and the cluster — the writes lost in the volatile fsync window and
/// everything missed while down — by fetching quasi-transactions from live
/// peers by (fragment, epoch, seq) over the ordinary network.
///
/// Owned by Cluster; one recovery session per node at a time.
class RecoveryManager {
 public:
  explicit RecoveryManager(Cluster* cluster) : cluster_(cluster) {}

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Begins recovering `node` (currently down, volatile state wiped). The
  /// node rejoins the network once the local replay delay elapses; `done`
  /// fires when peer catch-up completes.
  void StartRecovery(NodeId node, RecoveryCallback done);

  /// A peer's catch-up reply arrived at `node`.
  void OnReply(NodeId node, const RecoveryReply& msg);

  /// `node` applied more of `fragment`'s stream; recovery may be complete.
  void OnAppliedAdvanced(NodeId node, FragmentId fragment);

  /// The node crashed again mid-recovery: drop the session.
  void Abort(NodeId node);

  bool InProgress(NodeId node) const { return sessions_.count(node) > 0; }

  /// Stats of the last completed recovery of `node`, or nullptr.
  const RecoveryStats* LastStats(NodeId node) const;

 private:
  struct Session {
    int64_t id = 0;
    RecoveryStats stats;
    RecoveryCallback done;
    /// Per fragment, the (epoch, applied_seq) the node must reach,
    /// lexicographically (an epoch beyond the target's also satisfies it).
    std::map<FragmentId, std::pair<Epoch, SeqNum>> targets;
    int expected_replies = 0;
    /// All expected replies arrived, or the reply timeout fired.
    bool replies_closed = false;
    bool local_replay_done = false;
    /// Completion handed off to a global event.
    bool finishing = false;
    EventId pending_event = -1;  // reply-timeout event
  };

  /// Restores checkpoint + WAL into the node's runtime (no simulated cost;
  /// the caller already charged it).
  void RestoreLocal(NodeId node, Session* session);
  /// Load delay elapsed: restore checkpoint + WAL, rejoin the network,
  /// query peers. A global event (it mutates the topology).
  void LoadDone(NodeId node, int64_t id);
  void SendQueries(NodeId node, Session* session);
  void MaybeFinish(NodeId node);
  /// Tears the session down (trace, stats, callback). Runs as a global
  /// event: it touches maps shared across per-node sessions and fires
  /// cluster-level callbacks.
  void FinishSession(NodeId node, int64_t id);
  bool TargetsMet(NodeId node, const Session& session) const;

  Cluster* cluster_;
  std::map<NodeId, Session> sessions_;
  std::map<NodeId, RecoveryStats> last_stats_;
  int64_t next_recovery_id_ = 1;
};

}  // namespace fragdb

#endif  // FRAGDB_RECOVERY_RECOVERY_MANAGER_H_

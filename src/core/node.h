#ifndef FRAGDB_CORE_NODE_H_
#define FRAGDB_CORE_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cc/lock_manager.h"
#include "cc/scheduler.h"
#include "cc/transaction.h"
#include "common/types.h"
#include "core/config.h"
#include "core/messages.h"
#include "core/seq_map.h"
#include "net/message.h"
#include "storage/object_store.h"

namespace fragdb {

class Cluster;
class NodeDurability;

/// Per-node, per-fragment state of the update stream: where this replica
/// is in the fragment's quasi-transaction sequence, what is held back, and
/// the log of everything applied (kept for §4.4 catch-up and M0 content).
struct FragmentStream {
  /// Current epoch of the stream at this replica. Only the §4.4.3 move
  /// bumps epochs; all other protocols keep sequences contiguous.
  Epoch epoch = 0;
  /// Sequence at which the current epoch began ("i" in §4.4.3); versions
  /// with frag_seq <= epoch_base are old-stream, > epoch_base new-stream.
  SeqNum epoch_base = 0;
  /// Highest contiguously applied sequence in the current lineage.
  SeqNum applied_seq = 0;
  /// Next sequence this node would assign (meaningful at the home node).
  SeqNum next_seq = 1;
  /// Same-epoch quasi-transactions waiting for their predecessors.
  QuasiSeqMap holdback;
  /// Quasi-transactions from a future epoch, waiting for the M0 that opens
  /// it (defensive; FIFO channels normally deliver M0 first).
  std::map<Epoch, std::vector<QuasiRef>> future;
  /// Applied lineage: seq -> quasi-transaction. Entries past an epoch
  /// transition's base are discarded (they left the official lineage).
  QuasiSeqMap log;
  /// §4.4.1: prepared but not yet committed quasi-transactions.
  QuasiSeqMap prepared;
  /// §4.4.1: commit commands that arrived before their prepare (defensive).
  std::set<SeqNum> early_commits;
  /// An install is running in the scheduler; the next starts when it ends.
  bool install_in_flight = false;
  /// In-progress §4.4.3 epoch transition at a non-home replica.
  struct PendingTransition {
    Epoch new_epoch = 0;
    SeqNum base_seq = 0;
    NodeId new_home = kInvalidNode;
    bool active = false;
  } transition;
};

/// One node's protocol machine: owns the replica (store, lock table,
/// scheduler), runs the install pipeline that applies each fragment's
/// quasi-transactions in stream order, services §4.1 remote read-lock
/// requests, and executes the replica side of every §4.4 move protocol.
///
/// This type is an implementation detail of Cluster; it is exposed in a
/// header for tests.
class NodeRuntime {
 public:
  NodeRuntime(Cluster* cluster, NodeId id);

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  NodeId id() const { return id_; }
  ObjectStore& store() { return *store_; }
  const ObjectStore& store() const { return *store_; }
  LockManager& locks() { return *locks_; }
  Scheduler& scheduler() { return *scheduler_; }
  FragmentStream& stream(FragmentId f) { return streams_[f]; }

  /// Network receive entry point (wired as the node's handler).
  void HandleMessage(const Message& msg);

  /// Feeds a quasi-transaction into the stream machinery (from the network
  /// or from §4.4 catch-up paths). Applies epoch rules: stale-epoch
  /// transactions are forwarded to the fragment's current home (§4.4.3
  /// B(2)) or repackaged if this node is the home (A(2)).
  void EnqueueQuasi(const QuasiRef& quasi, Epoch epoch);

  /// Records a locally committed transaction in this node's stream log
  /// (the home node's own install).
  void RecordLocalCommit(const QuasiRef& quasi);

  /// §4.4.3 A(2): repackage a missing old-stream transaction at the (new)
  /// home: drop overwritten writes, commit the rest as a fresh update
  /// transaction, then run the fragment's corrective action if configured.
  void RepackageMissing(const QuasiRef& missing);

  /// §4.4.2A arrival: atomically replaces the fragment contents and stream
  /// position with the snapshot the agent carried.
  void AdoptSnapshot(const ObjectStore::FragmentSnapshot& snapshot,
                     SeqNum applied_seq, QuasiSeqMap log);

  /// §4.4.3 arrival at the *new home*: bump the epoch, broadcast M0 with
  /// the old-stream prefix this node has, and reopen for business.
  void BeginOmitPrepEpoch(FragmentId fragment);

  /// §4.4.1 arrival: one RecoveryQuery to every other node in the union
  /// of `tokens`' replica sets. A token is caught up once this node plus
  /// the replies covering it reach the token's majority and its applied
  /// position has reached the highest one those replies report; `done`
  /// runs when every token is. Several catch-ups may run at one node.
  void MajorityCatchUp(const std::vector<FragmentId>& tokens,
                       std::function<void()> done);

  /// Applies one fragment of a catch-up reply (crash recovery, gap repair
  /// and §4.4.1 alike): adopts a newer epoch through BeginEpochTransition,
  /// then enqueues the quasis under the epoch rule. Returns false, and
  /// applies nothing, when the replier is behind this node's epoch.
  bool ApplyCatchUpState(NodeId replier, const RecoveryFragmentState& fs);

  // --- Durability & crash recovery ---------------------------------------

  /// Wires the node's durability pipeline (nullptr disables logging). The
  /// cluster re-wires a fresh pipeline after each amnesia crash.
  void SetDurability(NodeDurability* durability) { durability_ = durability; }

  /// Amnesia crash: drops every piece of volatile state in place —
  /// replica contents, lock table, stream maps, catch-up state — and
  /// invalidates in-flight scheduler continuations. The runtime object
  /// itself survives because pending simulator events hold raw pointers
  /// into it; they become no-ops.
  void WipeVolatile();

  /// Starts a §4.4.3-style epoch transition at this replica (the body of
  /// OnM0, also driven by crash recovery when a peer reports a newer
  /// epoch). Returns false if the transition is stale.
  bool BeginEpochTransition(FragmentId fragment, Epoch new_epoch,
                            SeqNum base_seq, NodeId new_home,
                            const std::vector<QuasiRef>& old_stream);

  /// Anti-entropy: queries each remote home for the log suffix of every
  /// fragment this node replicates, unconditionally (no gap evidence
  /// needed). Used by Cluster::StartGapRepairSweep at the end of lossy
  /// runs to pick up trailing drops that left no holdback behind.
  void GapRepairSweep();

 private:
  // --- Stream machinery -------------------------------------------------
  void TryInstallNext(FragmentId f);
  void MaybeCompleteTransition(FragmentId f);
  void OnAppliedAdvanced(FragmentId f);
  /// Re-derives the availability tracker's holdback-gap flag for f (no-op
  /// unless the cluster runs with observability.timelines).
  void UpdateGapState(FragmentId f);

  // --- Message handlers --------------------------------------------------
  void OnQuasi(const QuasiTxnMsg& msg);
  void OnReadLockRequest(NodeId from, const ReadLockRequest& msg);
  void OnReadLockRelease(const ReadLockRelease& msg);
  void OnPrepare(NodeId from, const QuasiPrepare& msg);
  void OnCommit(const QuasiCommit& msg);
  void OnM0(const M0Msg& msg);
  void OnForwardMissing(const ForwardMissing& msg);
  void OnRecoveryQuery(const RecoveryQuery& msg);
  void OnRecoveryReply(const RecoveryReply& msg);
  void OnQuorumReadRequest(const QuorumReadRequest& msg);

  // --- Loss gap repair (config.gap_repair_interval) -----------------------
  /// Arms a delayed repair query when the fragment's holdback shows a gap.
  void MaybeScheduleGapRepair(FragmentId f);
  void GapRepairTick(FragmentId f);
  void SendGapRepairQuery(NodeId home, std::vector<RecoveryPosition> have);
  /// A fresh id for a query this node sends on its own behalf (gap repair,
  /// §4.4.1 catch-up): negative, so it never collides with the recovery
  /// manager's positive crash-recovery session ids.
  int64_t NextQueryId() { return -++queries_sent_; }

  // --- §4.4.1 catch-up sessions, keyed by query id -----------------------
  struct CatchUpSession {
    struct Token {
      FragmentId fragment = kInvalidFragment;
      /// Repliers covering the token, this node included.
      int replies = 1;
      /// Highest (epoch, applied_seq) reported for the token.
      std::pair<Epoch, SeqNum> target;
    };
    std::vector<Token> tokens;
    std::function<void()> done;
  };
  /// Counts `msg` toward its session's majorities after applying it.
  void OnCatchUpReply(CatchUpSession& session, const RecoveryReply& msg);
  /// Completes session `id` if every token is caught up.
  void MaybeFinishCatchUp(int64_t id);

  Cluster* cluster_;
  NodeId id_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<FragmentStream> streams_;
  std::map<int64_t, CatchUpSession> catchups_;
  /// §4.4.3: origin transactions already repackaged at this (home) node,
  /// so duplicate forwards are ignored.
  std::set<TxnId> repackaged_;
  /// Durability pipeline, or nullptr when the cluster runs without one.
  NodeDurability* durability_ = nullptr;
  /// Gap repair: per-fragment "a repair tick is pending" flags and counts
  /// of consecutive fruitless ticks (the repairer gives up after
  /// kGapRepairMaxStrikes until new stream activity resets the count, so
  /// an unresolvable gap cannot keep the event queue busy forever).
  std::vector<uint8_t> gap_repair_armed_;
  std::vector<int> gap_repair_strikes_;
  int64_t queries_sent_ = 0;
  /// Volatile lifetimes so far (bumped by every WipeVolatile); stamped on
  /// install records so checkers can tell a post-amnesia re-install from
  /// a duplicate install.
  int incarnation_ = 0;

  friend class Cluster;
};

}  // namespace fragdb

#endif  // FRAGDB_CORE_NODE_H_

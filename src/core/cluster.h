#ifndef FRAGDB_CORE_CLUSTER_H_
#define FRAGDB_CORE_CLUSTER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cc/transaction.h"
#include "common/status.h"
#include "common/types.h"
#include "core/config.h"
#include "core/node.h"
#include "core/reply_waits.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/availability.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "recovery/checkpoint.h"
#include "recovery/node_durability.h"
#include "recovery/recovery_manager.h"
#include "recovery/stable_storage.h"
#include "sim/engine.h"
#include "storage/catalog.h"
#include "storage/read_access_graph.h"
#include "verify/checkers.h"
#include "verify/history.h"

namespace fragdb {

/// A corrective action (paper §2, §4.4.3): application logic run by the
/// fragment's agent when a late/missing transaction surfaces an anomaly.
/// Receives the missing transaction as originally issued, the subset of
/// its writes that was actually applied after repackaging, and the home
/// node's current replica; returns additional writes (within the same
/// fragment) to commit as a corrective transaction — e.g., assessing an
/// overdraft fine. Return empty for "nothing to correct".
using CorrectiveAction = std::function<std::vector<WriteOp>(
    const QuasiTxn& missing, const std::vector<WriteOp>& applied,
    const ObjectStore& store)>;

/// How a node fails (Environment control).
enum class CrashMode {
  /// The classical fail-stop of §4: the node freezes with its state intact
  /// (the paper assumes durable copies) and resumes where it left off.
  kCrashStop,
  /// Power loss: every piece of volatile state — replica contents, lock
  /// table, stream positions, staged (unsynced) WAL bytes, in-flight
  /// checkpoint — is gone. Only StableStorage survives; revival runs the
  /// recovery subsystem. Requires DurabilityConfig::enabled.
  kAmnesia,
};

/// The fragments-and-agents distributed database: the paper's full system
/// in one façade. Construction order:
///   1. build a Topology, construct the Cluster;
///   2. define fragments, objects, agents; assign tokens and homes;
///      declare the read-access graph;
///   3. Start() — validates the design against the configured control
///      option and spins up the per-node runtimes;
///   4. drive: Submit() transactions, Partition()/HealAll() the network,
///      MoveAgent() under a §4.4 protocol, advance simulated time;
///   5. inspect: per-replica reads, the recorded History, the checkers.
class Cluster {
 public:
  using TxnCallback = std::function<void(const TxnResult&)>;
  using MoveCallback = std::function<void(Status)>;

  Cluster(ClusterConfig config, Topology topology);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Schema & design (before Start) -----------------------------------

  FragmentId DefineFragment(std::string name);
  Result<ObjectId> DefineObject(FragmentId fragment, std::string name,
                                Value initial_value);
  AgentId DefineUserAgent(std::string name);
  AgentId DefineNodeAgent(NodeId node, std::string name);
  Status AssignToken(FragmentId fragment, AgentId agent);
  Status SetAgentHome(AgentId agent, NodeId node);

  /// Declares that transactions initiated by A(`from`) read fragment `to`
  /// (an edge of the §4.2 read-access graph).
  Status DeclareRead(FragmentId from, FragmentId to);

  /// Extension (paper Conclusions): replicate `fragment` only at `nodes`.
  /// Reads of the fragment are then served only at member nodes; the
  /// agent's home (and any move/recovery target) must be a member;
  /// §4.4.1 majorities are counted within the replica set. Call before
  /// Start().
  Status SetReplicaSet(FragmentId fragment, std::vector<NodeId> nodes);

  /// Registers the corrective action for a fragment (used by §4.4.3).
  void SetCorrectiveAction(FragmentId fragment, CorrectiveAction action);

  /// Extension (paper Conclusions): combine strategies in one system by
  /// overriding the control option for a single fragment. Transactions of
  /// type `fragment` follow the override instead of the cluster default:
  /// kReadLocks types build lock plans, kAcyclicReads types must conform
  /// to the read-access graph (validated over the overridden types at
  /// Start), kFragmentwise types read freely. Call before Start().
  Status SetFragmentControl(FragmentId fragment, ControlOption control);

  /// The control option governing transactions of type `fragment`.
  ControlOption ControlFor(FragmentId fragment) const;

  /// Validates the design (every fragment has an agent with a home; under
  /// kAcyclicReads the read-access graph must be elementarily acyclic) and
  /// builds the per-node runtimes. No schema changes after this.
  Status Start();

  // --- Transactions -------------------------------------------------------

  /// Submits a transaction on behalf of its initiating agent, at the
  /// agent's current home node. Update transactions must satisfy the
  /// initiation requirement (agent holds the written fragment's token).
  /// `done` fires when the transaction commits, declines, or fails.
  void Submit(const TxnSpec& spec, TxnCallback done);

  /// Submits a read-only transaction at an explicit node (reads are free
  /// for all users at all nodes; under §4.1 they still take read locks).
  /// `spec.agent` may be kInvalidAgent for an anonymous reader.
  void SubmitReadOnlyAt(NodeId node, const TxnSpec& spec, TxnCallback done);

  /// Moves a user agent (and the tokens it holds) to a new home node using
  /// the configured §4.4 protocol. `done` fires when the agent is open for
  /// business at the new home.
  Status MoveAgent(AgentId agent, NodeId to_node, MoveCallback done);

  /// Extension of §4.4.1's token-loss remark ("it can be reconstituted
  /// through an election"): re-attach a user agent at `to_node` WITHOUT
  /// contacting the old home (presumed crashed or unreachable). Requires
  /// MoveProtocol::kMajorityCommit — every committed update reached a
  /// majority, so the new home reconstructs the stream from a majority
  /// and then opens a fresh epoch (an M0 announcement invalidates any
  /// zombie transactions the old home may later disgorge; they are
  /// repackaged like §4.4.3 missing transactions).
  Status RecoverAgent(AgentId agent, NodeId to_node, MoveCallback done);

  // --- Environment control ------------------------------------------------

  Status Partition(const std::vector<std::vector<NodeId>>& groups);
  void HealAll();
  Status SetLinkUp(NodeId a, NodeId b, bool up);
  /// Crash-stops (or revives) a node: it cannot send, receive, relay, or
  /// accept submissions while down. State is stable storage — it survives
  /// the outage (the paper assumes durable copies). HealAll() does not
  /// revive downed nodes. Reviving an amnesia-crashed node this way routes
  /// through ReviveNode (recovery is not optional once state is lost).
  Status SetNodeUp(NodeId node, bool up);

  /// Crashes a node. kCrashStop is SetNodeUp(node, false); kAmnesia also
  /// wipes all volatile state (requires config().durability.enabled) — the
  /// node must then come back through ReviveNode.
  Status CrashNode(NodeId node, CrashMode mode);

  /// Brings a downed node back. After an amnesia crash this restores the
  /// last checkpoint, replays the WAL (the node stays off the network for
  /// the simulated replay time), then catches up from live peers; `done`
  /// fires with the recovery statistics when the node is fully caught up.
  /// After a plain crash-stop, `done` fires immediately with ran=false.
  Status ReviveNode(NodeId node, RecoveryCallback done = nullptr);

  /// Anti-entropy sweep after lossy traffic: every up node immediately
  /// queries the remote homes for the log suffix of each fragment it
  /// replicates, re-fetching anything a loss window dropped — including
  /// trailing drops that left no holdback evidence for the periodic
  /// repairer (config.gap_repair_interval) to notice. One bounded round
  /// of query/reply per (node, home) pair; call before the final drain.
  void StartGapRepairSweep();

  void RunFor(SimTime duration);
  void RunUntil(SimTime deadline);
  /// Drains all pending work. Note: while links are down, queued messages
  /// stay queued; quiescence means nothing more can happen *now*.
  void RunToQuiescence();
  SimTime Now() const;

  // --- Inspection ----------------------------------------------------------

  int node_count() const;
  Value ReadAt(NodeId node, ObjectId object) const;
  const Catalog& catalog() const { return catalog_; }
  const ReadAccessGraph& rag() const { return *rag_; }
  const History& history() const { return history_; }
  NetworkStats net_stats() const;
  const ClusterConfig& config() const { return config_; }
  std::vector<const ObjectStore*> Replicas() const;
  /// The discrete-event engine the protocol stack runs on. Harnesses
  /// schedule submissions with AtNode (on the submitting node) and faults
  /// with AtGlobal.
  SimEngine* engine() { return engine_.get(); }
  /// The windowed scheduler: mid-run plan reassignment and window/merge
  /// stats.
  PdesScheduler* pdes_scheduler() { return &engine_->scheduler(); }
  Topology& topology() { return topology_; }
  NodeRuntime& runtime(NodeId node) { return *runtimes_[node]; }

  /// A node's stable storage, or nullptr when durability is disabled.
  StableStorage* stable_storage(NodeId node);
  /// A node's durability pipeline, or nullptr when durability is disabled.
  NodeDurability* durability(NodeId node);
  /// Stats of `node`'s last completed recovery, or nullptr.
  const RecoveryStats* LastRecovery(NodeId node) const;
  /// True while `node` is down with its volatile state wiped.
  bool IsAmnesiaDown(NodeId node) const;

  /// Convenience: checks the correctness property the configured control
  /// option promises (global serializability for kReadLocks/kAcyclicReads,
  /// fragmentwise serializability for kFragmentwise). Mutual consistency
  /// is a separate, quiescence-time check (CheckMutualConsistency).
  /// Callers that already indexed the history (AuditRun) pass it in;
  /// otherwise one is built for the call.
  CheckReport CheckConfiguredProperty(const HistoryIndex* index =
                                          nullptr) const;

  // --- Observability ------------------------------------------------------

  /// The structured-event tracer (transaction lifecycle, installs,
  /// moves, partitions), or nullptr unless config().observability.tracing.
  /// Valid after Start(); read it after the run.
  Tracer* tracer() { return tracer_.get(); }
  /// Per-node bucketed time series, or nullptr unless
  /// config().observability.timelines. Valid after Start().
  ClusterTimelines* timelines() { return timelines_.get(); }
  /// Per-(node,fragment) availability state machines, or nullptr unless
  /// config().observability.timelines. Valid after Start(). Call
  /// Finalize() on it once the run is over, before reading intervals.
  AvailabilityTracker* availability() { return availability_.get(); }
  /// Bounded ring of recent trace events, or nullptr unless
  /// config().observability.flight_recorder. Valid after Start().
  Tracer* flight_recorder() { return flight_.get(); }
  /// Refreshes the durability/recovery gauges and returns a frozen copy of
  /// every metric series, the per-node registries merged. Empty snapshot
  /// when metrics are off.
  MetricsSnapshot SnapshotMetrics() const;

  /// Quiescence-time mutual consistency that honors partial replication:
  /// each fragment's contents are compared across its replica set only.
  /// Equivalent to CheckMutualConsistency(Replicas()) under full
  /// replication.
  CheckReport CheckReplicaSetConsistency() const;

  /// Quiescence-time non-blocking check: no replica may be left holding a
  /// prepared-but-undecided update. Under kMajorityCommit a coordinator
  /// crash between prepare and commit strands exactly such entries (the
  /// classical 2PC blocking window); Paxos Commit's recovery rounds are
  /// required to clear them. Fails with the stuck (node, fragment, seq).
  CheckReport CheckCommitNonBlocking() const;

  /// Effective read/write quorum of `fragment` under ControlOption::kQuorum:
  /// the configured value, or a majority of the fragment's replica set when
  /// the config leaves it 0. Start() validates R + W > N.
  int ReadQuorumFor(FragmentId fragment) const;
  int WriteQuorumFor(FragmentId fragment) const;

  // --- Internal surface (used by NodeRuntime and the move protocols) ------

  Network& network() { return *network_; }
  const ClusterConfig& cfg() const { return config_; }
  /// The history sink for events acting on `node`: the node's private
  /// shard (folded back in by CollapseHistoryShards at the end of every
  /// run), or the merged history for global contexts (kInvalidNode).
  History& HistorySink(NodeId node);
  /// Records a commit through the sink for `node`. Upserts, because the
  /// commit may land in a different shard than the registration (e.g. a
  /// repackaged commit after an agent move); CollapseHistoryShards checks
  /// that every commit found its registration.
  void MarkCommittedAt(NodeId node, TxnId id, SeqNum frag_seq);
  /// Fresh transaction id, striped by acting node so concurrent
  /// partitions never share a counter (ids are unique but not dense).
  TxnId NewTxnId();
  int MajoritySize() const;
  /// §4.4.1 majority within `fragment`'s replica set (the whole network
  /// under full replication).
  int MajoritySizeFor(FragmentId fragment) const;
  /// Sends `payload` to every node holding a copy of `fragment` (except
  /// `from`).
  Status SendToReplicas(NodeId from, FragmentId fragment,
                        std::shared_ptr<const MessagePayload> payload);
  const CorrectiveAction* corrective_action(FragmentId f) const;
  /// Called by runtimes when a fragment's applied sequence advances, so
  /// §4.4.2B catch-up waits can complete.
  void OnAppliedAdvanced(NodeId node, FragmentId fragment);
  /// A remote read-lock grant from `home` arrived at `node` (§4.1). A
  /// grant that matches no live wait (timed out, or wiped by an amnesia
  /// crash) is released straight back to `home`.
  void OnRemoteLockGrant(NodeId node, NodeId home, const ReadLockGrant& grant);
  /// A majority-commit acknowledgment arrived at `home` (§4.4.1). The
  /// handler runs in the home node's event context; `home` routes the
  /// lookup to that node's ack-wait shard.
  void OnMajorityAck(NodeId home, const QuasiAck& ack);
  /// A replica's installed-ack arrived at the quorum write's origin node.
  void OnQuorumAppliedAck(NodeId home, const QuorumAppliedAck& ack);
  /// One replica's versions arrived at the quorum read's requester.
  void OnQuorumReadReply(NodeId node, const QuorumReadReply& reply);
  /// Paxos Commit acceptor/proposer/learner steps, each running in the
  /// event context of the node the message arrived at.
  void OnPaxosAccept(NodeId node, const PaxosAccept& msg);
  void OnPaxosAccepted(NodeId node, const PaxosAccepted& msg);
  void OnPaxosOutcome(NodeId node, const PaxosOutcome& msg);
  /// §4.4.3 A(2): commit the surviving writes of a missing transaction as
  /// a fresh update transaction at `home`, then run the fragment's
  /// corrective action.
  void CommitRepackaged(NodeId home, FragmentId fragment,
                        const QuasiTxn& missing, std::vector<WriteOp> kept);
  /// True when any trace consumer (tracer or flight recorder) is attached
  /// — guard call sites whose detail strings are expensive to build.
  bool tracing_active() const { return tracer_ || flight_; }
  /// Emits a cluster-scoped trace event if a consumer is attached.
  void Trace(const char* kind, std::string detail);
  /// Emits a fully structured trace event (node / fragment / txn / seq).
  void Trace(const char* kind, NodeId node, FragmentId fragment, TxnId txn,
             SeqNum seq, std::string detail);
  /// The built-in instrument panel, or nullptr when metrics are off.
  ClusterInstruments* instruments() { return obs_.get(); }
  /// The recovery manager, or nullptr when durability is disabled.
  RecoveryManager* recovery_manager() { return recovery_.get(); }
  /// Called by the recovery manager when `node`'s local replay finished:
  /// the node rejoins the network (queued traffic starts flowing again).
  void OnLocalReplayDone(NodeId node);
  /// Called by recovery replay for a durable kPaxosSlot record whose
  /// outcome is not (yet) in the local state: the slot is in doubt at the
  /// revived home until its decision is observed, and the value is
  /// re-seated so the home can propose it in recovery rounds.
  void NotePaxosInDoubt(NodeId node, const QuasiTxn& quasi, Epoch epoch);
  /// Snapshot of `node`'s recoverable state (checkpoint capture).
  CheckpointImage CaptureCheckpoint(NodeId node);

 private:
  enum class AgentPhase { kSettled, kInTransit, kCatchingUp };
  struct AgentState {
    AgentPhase phase = AgentPhase::kSettled;
    /// §4.4.2B: submissions queued while the new home catches up.
    std::deque<std::pair<TxnSpec, TxnCallback>> queued;
    /// §4.4.2B: per fragment, the sequence the new home must reach.
    std::map<FragmentId, SeqNum> must_reach;
    /// A FinishMove has been deferred to a global event and not yet run
    /// (suppresses duplicate completions from later installs in the same
    /// window).
    bool finishing = false;
    MoveCallback move_done;
  };

  struct LockPlanStep {
    FragmentId fragment;
    LockMode mode;
    NodeId home;
  };
  /// An update transaction prepared at its home, waiting for §4.4.1
  /// majority acknowledgments (keyed by txn id).
  struct MajorityWait {
    QuasiTxn quasi;
    bool release_locks = false;
    TxnResult result;
    TxnCallback done;
    std::function<void()> after;
  };
  /// A committed quorum write waiting for W installed-acks before the
  /// client callback fires. The transaction is already committed locally
  /// and broadcast; the wait only defers the client's `done` (a timeout
  /// reports Unavailable while the write keeps propagating).
  struct QuorumWriteWait {
    FragmentId fragment = kInvalidFragment;
    TxnResult result;
    TxnCallback done;
  };
  /// An R-quorum read gathering per-fragment version sets.
  struct QuorumReadWait {
    struct FragmentGather {
      int needed = 0;
      std::set<NodeId> repliers;
      /// Per object: freshest (seq, value, writer) seen so far.
      std::map<ObjectId, VersionInfo> best;
    };
    TxnSpec spec;
    SimTime started_at = 0;
    std::map<FragmentId, FragmentGather> gathers;
    TxnCallback done;
  };
  /// One Paxos Commit consensus slot at one node: acceptor state
  /// (max_ballot, the value accepted) plus, at the origin home, the
  /// prepared transaction and the client callback. The consensus value of
  /// a slot is fixed (only the home proposes at ballot 0; recovery
  /// proposers re-propose the value they hold), so F+1 accepts at any
  /// ballot decide commit.
  struct PaxosInstance {
    uint64_t max_ballot = 0;
    bool has_value = false;
    bool decided = false;
    QuasiTxn value;
    Epoch epoch = 0;
    /// Origin home only: the transaction this incarnation prepared for the
    /// slot (guards the deferred propose against a crash that wiped it).
    TxnId prepared_txn = kInvalidTxn;
    /// Origin home only: the writes were applied when the slot was
    /// proposed; the local commit record (applied_seq, log, WAL) is still
    /// owed, and is written in seq order once the slot decides.
    bool commit_owed = false;
    /// Recovery rounds already started at this node (ballot numbering).
    int round = 0;
    bool recovery_armed = false;
    /// Consecutive fruitless recovery rounds; past the strike limit the
    /// node stops re-arming until connectivity improves.
    int strikes = 0;
    /// Origin home only: client completion (fired once, on decide or on
    /// the proposer timeout — whichever comes first; the commit itself is
    /// never abandoned).
    std::shared_ptr<TxnResult> result;
    TxnCallback done;
    EventId client_timeout = -1;
  };
  /// Validation + registration shared by Submit/SubmitReadOnlyAt.
  void SubmitAt(NodeId node, const TxnSpec& spec, TxnCallback done);
  /// Re-derives every (node, fragment) home-reachability flag for the
  /// availability tracker; registered as a topology change listener.
  void RefreshHomeReachability();
  Status ValidateSpec(NodeId node, const TxnSpec& spec,
                      FragmentId* type_fragment) const;
  /// §4.2 conformance check for `spec` as type `type_fragment`.
  Status CheckRagConformance(const TxnSpec& spec,
                             FragmentId type_fragment) const;

  /// Acquires the §4.1 lock plan step by step, then `run`.
  void AcquireLockPlan(TxnId id, NodeId node,
                       std::shared_ptr<std::vector<LockPlanStep>> plan,
                       size_t next, TxnCallback done, const TxnSpec& spec,
                       std::function<void(bool x_preacquired)> run);
  void FailLockPlan(TxnId id, NodeId node,
                    const std::vector<LockPlanStep>& plan, size_t acquired,
                    TxnCallback done, Status why);
  void ReleasePlanLocks(TxnId id, NodeId node,
                        const std::vector<LockPlanStep>& plan,
                        size_t acquired);

  /// Normal-path execution (§4.1–§4.3): run locally, then broadcast.
  void ExecuteAndPropagate(TxnId id, NodeId node, const TxnSpec& spec,
                           bool x_preacquired, TxnCallback done,
                           std::function<void()> after);
  /// The front half shared by §4.4.1 and Paxos Commit: prepare `spec` at
  /// `node`. A failed prepare is aborted, traced, and reported (after
  /// `after`); a successful one takes the fragment's next seq and hands
  /// `prepared` the result and its quasi-transaction.
  void PrepareUpdate(TxnId id, NodeId node, const TxnSpec& spec,
                     bool x_preacquired, TxnCallback done,
                     std::function<void()> after,
                     std::function<void(TxnResult, QuasiTxn)> prepared);
  /// §4.4.1 execution: prepare, collect majority acks, commit, broadcast.
  void ExecuteMajority(TxnId id, NodeId node, const TxnSpec& spec,
                       bool x_preacquired, TxnCallback done,
                       std::function<void()> after);
  /// A majority acked: commit at the home, broadcast the commit, report.
  void CommitMajority(NodeId node, TxnId id, MajorityWait wait);
  /// No majority in time: roll the seq back, abort, report Unavailable.
  void AbortMajority(NodeId node, TxnId id, MajorityWait wait);
  /// kQuorum read-only execution: gather versions from R replicas per
  /// fragment and serve each object's freshest version. Bypasses the
  /// scheduler (no local read), so it works at non-replica nodes too.
  void ExecuteQuorumRead(TxnId id, NodeId node, const TxnSpec& spec,
                         TxnCallback done);
  /// Completes a finished quorum read: freshest versions, body, records.
  void FinishQuorumRead(TxnId id, NodeId node, QuorumReadWait wait);
  /// Paxos Commit execution: prepare, then propose at ballot 0 to the
  /// fragment's 2F+1 replicas, decide on F+1 accepts. A proposed value is
  /// never abandoned, so the home applies the writes and releases its
  /// locks as the accepts leave (after the kPaxosSlot fsync when durable):
  /// several slots per fragment can be in flight, and only the client ack
  /// waits for the decide. Never aborts; a proposer timeout reports
  /// Unavailable and leaves the recovery rounds to finish the commit.
  void ExecutePaxosCommit(TxnId id, NodeId node, const TxnSpec& spec,
                          bool x_preacquired, TxnCallback done,
                          std::function<void()> after);
  /// Marks a Paxos slot decided at `node` and applies the value: the
  /// origin home records its already-applied commit (in seq order);
  /// replicas feed the quasi-transaction into the ordinary install
  /// pipeline.
  void PaxosDecide(NodeId node, FragmentId fragment, SeqNum seq);
  /// Writes the home's owed local commit records for `fragment` strictly
  /// in seq order: decides can arrive out of order (loss, recovery
  /// rounds), so a decided slot waits until every earlier one decided.
  void RecordPaxosHomeCommits(NodeId node, FragmentId fragment);
  /// Fires the home's client callback for a decided/timed-out slot (once).
  void FinishPaxosClient(NodeId node, PaxosInstance& inst, Status status);
  /// Arms (once) the per-slot recovery timer at `node`.
  void SchedulePaxosRecovery(NodeId node, FragmentId fragment, SeqNum seq);
  /// One recovery round: re-propose the held value at a fresh unique
  /// ballot; re-arms itself while the slot stays undecided.
  void PaxosRecoveryTick(NodeId node, FragmentId fragment, SeqNum seq);
  /// Connectivity improved (heal / link-up / revival): reset the strike
  /// counters and re-arm recovery for every undecided slot at live nodes.
  void ReschedulePaxosRecovery();
  /// True while `fragment` still has an undecided in-doubt slot at `node`
  /// (prunes slots the applied prefix has since passed).
  bool PaxosFragmentInDoubt(NodeId node, FragmentId fragment);

  // Move-protocol orchestration (implemented in move_protocols.cc).
  void StartMove(AgentId agent, NodeId from, NodeId to);
  void ArriveMove(AgentId agent, NodeId from, NodeId to,
                  std::vector<ObjectStore::FragmentSnapshot> snapshots,
                  std::map<FragmentId, SeqNum> carried_seqs,
                  std::map<FragmentId, QuasiSeqMap> logs);
  void FinishMove(AgentId agent);
  /// FinishMove, routed by context: direct from setup and globals,
  /// deferred to a global event from a node event — FinishMove mutates
  /// shared agent/catalog state that node events may not touch.
  void CompleteMove(AgentId agent);
  void DrainQueuedSubmissions(AgentId agent);
  /// Folds the per-node history shards back into history_ (ascending node
  /// order); called at the end of every Run* so inspection sees one merged
  /// history. Checks that every commit absorbed carries its registration.
  void CollapseHistoryShards();

  friend class NodeRuntime;

  ClusterConfig config_;
  Topology topology_;
  /// The engine every runtime, timer, and message rides on. Declared
  /// before network_ (which holds a pointer to it).
  std::unique_ptr<SimEngine> engine_;
  std::unique_ptr<Network> network_;
  Catalog catalog_;
  std::unique_ptr<ReadAccessGraph> rag_;  // built at Start()
  std::vector<std::pair<FragmentId, FragmentId>> declared_reads_;
  std::map<FragmentId, ControlOption> control_override_;
  std::map<FragmentId, CorrectiveAction> corrective_;
  std::vector<std::unique_ptr<NodeRuntime>> runtimes_;
  std::map<AgentId, AgentState> agent_state_;
  /// Reply collectors, sharded by the node that opened the wait (the only
  /// node whose events touch it). Initialized at Start().
  /// §4.1 remote read locks, keyed (txn, fragment); data: the plan's
  /// continuation.
  ReplyWaits<std::pair<TxnId, FragmentId>, std::function<void(Status)>>
      remote_locks_;
  /// §4.4.1 majority acks at the preparing home.
  ReplyWaits<TxnId, MajorityWait> majority_acks_;
  /// kQuorum W installed-acks at the origin home, and R-read gathers at
  /// the requester.
  ReplyWaits<TxnId, QuorumWriteWait> quorum_writes_;
  ReplyWaits<TxnId, QuorumReadWait> quorum_reads_;
  /// Paxos phase-2b votes per (fragment, seq) slot at the proposer; data:
  /// the ballot being counted. Recovery rounds replace it; no timeout.
  ReplyWaits<std::pair<FragmentId, SeqNum>, uint64_t> paxos_votes_;
  /// Paxos Commit consensus slots, sharded by node (acceptor + home state).
  std::vector<std::map<std::pair<FragmentId, SeqNum>, PaxosInstance>>
      paxos_acceptors_;
  /// Durable Paxos slots found still undecided when a home revived from
  /// amnesia, sharded by node. The crash destroyed the slots' locks, so
  /// until a slot's outcome lands, new update prepares on its fragment are
  /// declined (classic in-doubt blocking at a recovered coordinator);
  /// entries are pruned lazily once applied_seq passes them.
  std::vector<std::map<FragmentId, std::set<SeqNum>>> paxos_indoubt_;
  /// Durability subsystem (empty/null unless config_.durability.enabled).
  std::vector<std::unique_ptr<StableStorage>> stable_;
  std::vector<std::unique_ptr<NodeDurability>> durability_;
  std::unique_ptr<RecoveryManager> recovery_;
  /// Per node: down with volatile state wiped (must revive via recovery).
  /// uint8_t, not bool: vector<bool> bit-packs, and adjacent flags may be
  /// read from concurrent partitions.
  std::vector<uint8_t> amnesia_down_;
  History history_;
  /// Per-node history shards (single writer each), absorbed into
  /// history_ at the end of every run.
  std::vector<History> history_shards_;
  /// Observability (null/empty unless enabled in config_.observability).
  /// Metrics: one registry per node plus one for global contexts (last),
  /// merged at snapshot time.
  std::vector<MetricsRegistry> metrics_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<ClusterInstruments> obs_;
  std::unique_ptr<ClusterTimelines> timelines_;
  std::unique_ptr<AvailabilityTracker> availability_;
  std::unique_ptr<Tracer> flight_;
  /// Per-stripe counters for NewTxnId — one stripe per node plus one for
  /// global/setup contexts.
  std::vector<TxnId> txn_stripe_next_;
  bool started_ = false;
};

}  // namespace fragdb

#endif  // FRAGDB_CORE_CLUSTER_H_

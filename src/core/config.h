#ifndef FRAGDB_CORE_CONFIG_H_
#define FRAGDB_CORE_CONFIG_H_

#include "cc/scheduler.h"
#include "common/types.h"
#include "obs/instruments.h"
#include "recovery/node_durability.h"

namespace fragdb {

/// The read-synchronization strategies of paper §4 (the spectrum of Fig.
/// 1.1, within the fragments-and-agents framework).
enum class ControlOption {
  /// §4.1 — fixed agents; transactions take (possibly remote) read locks
  /// on every fragment they read. Globally serializable; reads of a
  /// fragment block while its agent's home node is unreachable.
  kReadLocks,
  /// §4.2 — fixed agents; no read locks, but the declared read-access
  /// graph must be elementarily acyclic and transactions must conform to
  /// it. Globally serializable (the paper's Theorem).
  kAcyclicReads,
  /// §4.3 — fixed agents; no read restrictions at all. Guarantees
  /// fragmentwise serializability and mutual consistency.
  kFragmentwise,
  /// Post-1987 extension (Kumar & Agarwal, arXiv 1406.7423): per-fragment
  /// read-quorum/write-quorum replication layered on the §4.3 machinery.
  /// Updates commit only after `write_quorum` replicas have *installed*
  /// the quasi-transaction; read-only transactions gather versions from
  /// `read_quorum` replicas and serve the freshest. With R+W>N (validated
  /// at Start) every R-read observes every W-acked write — the quorum
  /// freshness guarantee, machine-checked by CheckQuorumFreshness.
  kQuorum,
};

/// The agent-movement protocols of paper §4.4.
enum class MoveProtocol {
  /// Agents never move (§4.1–§4.3 default).
  kForbidden,
  /// §4.4.1 — permanent preparatory actions: every update commits only
  /// after a majority of nodes acknowledge its quasi-transaction; a moving
  /// agent catches up from a majority before resuming.
  kMajorityCommit,
  /// §4.4.2A — the agent transports a snapshot of its fragment(s) and
  /// resumes immediately at the new home.
  kMoveWithData,
  /// §4.4.2B — the agent carries only the last sequence number; the new
  /// home waits until it has installed all earlier quasi-transactions.
  kMoveWithSeqNum,
  /// §4.4.3 — no preparatory actions: resume immediately; an M0 catch-up
  /// broadcast, repackaging of missing transactions, and centralized
  /// corrective actions restore mutual consistency (fragmentwise
  /// serializability may be lost).
  kOmitPrep,
  /// Post-1987 extension (Gray & Lamport, arXiv cs/0408036): every update
  /// commits through a Paxos instance over the fragment's replica set
  /// (2F+1 acceptors, F+1 majority) instead of the blocking §4.4.1
  /// prepare/ack round. Non-blocking: if the coordinator crashes after
  /// proposing, any acceptor holding the value finishes the commit via
  /// ballot-numbered recovery rounds. Agents do not move under this
  /// protocol (like kForbidden).
  kPaxosCommit,
};

/// Returns a short human-readable name for reports.
const char* ControlOptionName(ControlOption option);
const char* MoveProtocolName(MoveProtocol protocol);

/// The cluster's discrete-event engine. There is one: the conservative
/// windowed PDES scheduler (node events run concurrently, partitioned
/// across worker threads, with shared-state work serialized at window
/// barriers; output is deterministic at any thread count). The enum and
/// EngineConfig::kind survive only because the benchmark program under
/// fragbench/ still names EngineKind::kParallel; drop both at its next
/// change.
enum class EngineKind {
  kParallel,
};

/// Shape of the PDES engine.
struct EngineConfig {
  EngineKind kind = EngineKind::kParallel;
  /// Worker threads: 1 = inline, 0 = hardware concurrency.
  int threads = 1;
  /// Node partitions: 0 = one per node.
  int partitions = 0;
};

/// Tuning knobs for a cluster run. All times are simulated.
struct ClusterConfig {
  ControlOption control = ControlOption::kFragmentwise;
  MoveProtocol move_protocol = MoveProtocol::kForbidden;

  /// Per-node scheduler costs.
  Scheduler::Config scheduler;

  /// §4.1: how long a transaction waits for a remote read-lock grant
  /// before aborting as Unavailable.
  SimTime remote_lock_timeout = Millis(200);

  /// §4.4.1: how long the home node waits for majority acknowledgments
  /// before aborting the update as Unavailable. Under kPaxosCommit this
  /// bounds how long the *proposer* waits before reporting Unavailable to
  /// the client; the commit itself is never abandoned (recovery rounds
  /// finish it once a majority is reachable).
  SimTime majority_ack_timeout = Millis(200);

  /// kQuorum: replicas a read-only transaction must hear from (R) and
  /// replicas that must have installed an update before its commit is
  /// acknowledged (W). 0 = majority of the fragment's replica set.
  /// Start() rejects configurations with R+W <= N for any fragment.
  int read_quorum = 0;
  int write_quorum = 0;

  /// kQuorum: how long a read-only transaction waits for its R-quorum of
  /// version replies before aborting as Unavailable.
  SimTime quorum_read_timeout = Millis(200);

  /// kPaxosCommit: how long an acceptor holding an undecided value waits
  /// before starting (or retrying) a recovery round of its own. Each
  /// undecided acceptor re-arms this timer per round, so a coordinator
  /// crash mid-commit delays the commit, never blocks it.
  SimTime paxos_recovery_timeout = Millis(100);

  /// Physical travel time of a moving agent (the paper's tape in a truck /
  /// card in a pocket).
  SimTime agent_travel_time = Millis(20);

  /// §4.2: permit read-only transactions that violate the read-access
  /// graph (the paper allows them when the application tolerates
  /// non-serializable *output*; the database itself is unaffected).
  bool allow_nonconforming_readonly = false;

  /// Loss resilience: when > 0, a replica whose update stream has a gap
  /// (an expected quasi-transaction missing — e.g. dropped inside a
  /// Network loss window) asks the fragment's home for the missing log
  /// suffix after this delay, retrying while the gap persists. 0 (the
  /// default) disables the repairer: the cluster then assumes the
  /// loss-free channel of DESIGN.md §2, exactly as before.
  SimTime gap_repair_interval = 0;

  /// Durable storage & crash recovery (WAL, checkpoints, amnesia crashes).
  /// Disabled by default: node state then survives crash-stops by fiat, as
  /// the paper assumes.
  DurabilityConfig durability;

  /// Metrics registry + structured tracer (src/obs/). Off by default; when
  /// off the cluster pays only a null-pointer check per would-be
  /// instrumentation site.
  ObservabilityConfig observability;

  /// Discrete-event engine shape (worker threads, node partitions).
  EngineConfig engine;
};

}  // namespace fragdb

#endif  // FRAGDB_CORE_CONFIG_H_

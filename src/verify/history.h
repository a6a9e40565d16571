#ifndef FRAGDB_VERIFY_HISTORY_H_
#define FRAGDB_VERIFY_HISTORY_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cc/transaction.h"
#include "common/status.h"
#include "common/types.h"

namespace fragdb {

/// Everything the checkers need to know about one transaction.
struct TxnRecord {
  TxnId id = kInvalidTxn;
  AgentId agent = kInvalidAgent;
  /// tp(T) in the paper's Definition 8.1: the fragment whose agent
  /// initiated T. For update transactions this is the written fragment;
  /// for read-only transactions it is the initiating agent's (first)
  /// fragment, or kInvalidFragment for token-less readers.
  FragmentId type_fragment = kInvalidFragment;
  NodeId home = kInvalidNode;
  bool read_only = false;
  bool committed = false;
  SeqNum frag_seq = 0;  // commit sequence within type_fragment (updates)
  std::string label;

  /// True once RegisterTxn filled the record in; a commit mark recorded
  /// alone (MarkCommittedPartial) sets none of these fields.
  bool registered() const {
    return home != kInvalidNode || agent != kInvalidAgent ||
           type_fragment != kInvalidFragment || !label.empty() || read_only;
  }
};

/// One read observation: transaction `reader`, executing at `node`, saw the
/// version of `object` written by `version_writer` with fragment sequence
/// `version_seq` (writer kInvalidTxn / seq 0 = the initial value).
struct ReadRecord {
  TxnId reader = kInvalidTxn;
  NodeId node = kInvalidNode;
  ObjectId object = kInvalidObject;
  TxnId version_writer = kInvalidTxn;
  SeqNum version_seq = 0;
  SimTime at = 0;
};

/// One installation of a (quasi-)transaction's writes at one replica.
/// `node_order` is the position in that node's install sequence: the
/// "order in which updates were installed in the copy at node X" that the
/// paper's serialization-graph definitions consult.
struct InstallRecord {
  NodeId node = kInvalidNode;
  /// The installing node's volatile lifetime (0 until its first amnesia
  /// crash): a node legitimately re-installs what an amnesia crash wiped.
  int incarnation = 0;
  TxnId writer = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  std::vector<WriteOp> writes;
  SimTime at = 0;
  int64_t node_order = 0;
  /// Where and when the quasi-transaction committed at its origin; a
  /// record with node != origin_node is a replica install, and
  /// at - origin_time is its replication lag.
  NodeId origin_node = kInvalidNode;
  SimTime origin_time = 0;
};

/// A write that reached its write quorum (ControlOption::kQuorum): W
/// replicas had installed `txn`'s quasi-transaction by `acked_at`. From
/// that instant on, any R-read whose quorum intersects the W replicas
/// must observe version `seq` (or later) for every object `txn` wrote —
/// the obligation CheckQuorumFreshness enforces.
struct QuorumWriteRecord {
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  int acks = 0;  // replicas counted toward W (including the home)
  SimTime acked_at = 0;
};

/// One fragment's slice of a completed R-quorum read: the per-object
/// freshest versions the reader assembled from its reply set, stamped
/// with the read's *start* time (the freshness obligation is against
/// writes acked before the read began).
struct QuorumReadRecord {
  TxnId reader = kInvalidTxn;
  NodeId node = kInvalidNode;
  FragmentId fragment = kInvalidFragment;
  int replies = 0;  // distinct replicas heard (including the reader)
  SimTime at = 0;   // read start
  std::vector<std::pair<ObjectId, SeqNum>> observed;
};

/// One participant learning a Paxos Commit outcome for a (fragment, seq)
/// slot. CheckCommitAtomicity demands every record of a slot agree on
/// `commit` and that a committed slot's transaction is marked committed.
struct CommitDecisionRecord {
  NodeId node = kInvalidNode;
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  TxnId txn = kInvalidTxn;
  bool commit = true;
  SimTime at = 0;
};

/// Append-only record of a run, consumed by the serialization-graph
/// builders and checkers. The engine writes it through narrow hooks, so
/// the checkers validate the engine instead of trusting it.
///
/// The lookups (VersionsOf through VersionChains) answer from tables
/// built in one pass over the record on the first lookup after a
/// mutation; every mutation (RegisterTxn, MarkCommitted*, Record*,
/// AbsorbShard) drops them. A returned reference stays valid until the
/// next mutation. Copies and moves start without tables. Concurrent first
/// lookups are not supported: query a history only after the run that
/// records it has quiesced.
class History {
 public:
  History() = default;

  /// Declares a transaction before (or as) it executes.
  void RegisterTxn(const TxnRecord& record);

  /// Marks a registered transaction committed and records its sequence.
  void MarkCommitted(TxnId id, SeqNum frag_seq);

  /// Shard variant of MarkCommitted: upserts, because the commit may be
  /// recorded in a different per-node shard than the registration (e.g. a
  /// repackaged commit after an agent move). AbsorbShard joins the halves.
  void MarkCommittedPartial(TxnId id, SeqNum frag_seq);

  /// Folds a per-node shard into this history and empties it (the
  /// shard's per-node install counters survive, so recording can resume
  /// after the merge). Partial TxnRecords merge field-wise: a
  /// registration adopts any commit mark already present and vice versa.
  /// Called between runs in ascending node order — a deterministic
  /// merge independent of worker-thread count.
  void AbsorbShard(History* shard);

  void RecordRead(const ReadRecord& read);

  /// Records an install; assigns node_order automatically.
  void RecordInstall(NodeId node, const QuasiTxn& quasi, SimTime at,
                     int incarnation = 0);

  void RecordQuorumWrite(const QuorumWriteRecord& record);
  void RecordQuorumRead(const QuorumReadRecord& record);
  void RecordDecision(const CommitDecisionRecord& record);

  const std::map<TxnId, TxnRecord>& txns() const { return txns_; }
  const std::vector<ReadRecord>& reads() const { return reads_; }
  const std::vector<InstallRecord>& installs() const { return installs_; }
  const std::vector<QuorumWriteRecord>& quorum_writes() const {
    return quorum_writes_;
  }
  const std::vector<QuorumReadRecord>& quorum_reads() const {
    return quorum_reads_;
  }
  const std::vector<CommitDecisionRecord>& decisions() const {
    return decisions_;
  }

  const TxnRecord* FindTxn(TxnId id) const;

  /// One-line-per-transaction human-readable dump (for debugging failed
  /// checks): id, label, type, home, commit state, sequence, write count.
  std::string DebugString() const;

  /// Version list of `object`: (writer, seq) in version order (fragment
  /// sequence order), excluding the initial version.
  const std::vector<std::pair<TxnId, SeqNum>>& VersionsOf(
      ObjectId object) const;

  /// All writes of `writer` (as installed anywhere; installs of one
  /// transaction carry identical write sets, so the first is kept).
  const std::vector<WriteOp>& WritesOf(TxnId writer) const;

  /// Committed transactions that updated `fragment`, in id order — the
  /// paper's U(F_i).
  const std::vector<TxnId>& UpdatersOf(FragmentId fragment) const;

  /// Objects with at least one version installed under `fragment`'s tag,
  /// in id order. (An object never written has no version chain and
  /// cannot contribute a conflict edge; an object written under several
  /// fragments' tags is listed under each.)
  const std::vector<ObjectId>& ObjectsOf(FragmentId fragment) const;

  /// Read observations of objects `fragment` wrote, in record order.
  /// Reads of never-written objects observe the initial version and
  /// produce no edges; they are filed under kInvalidFragment.
  const std::vector<const ReadRecord*>& ReadsOn(FragmentId fragment) const;

  /// Every version chain, keyed by object — for whole-history sweeps.
  const std::map<ObjectId, std::vector<std::pair<TxnId, SeqNum>>>&
  VersionChains() const;

 private:
  struct Lookups {
    std::map<ObjectId, std::vector<std::pair<TxnId, SeqNum>>> versions;
    std::map<TxnId, const std::vector<WriteOp>*> writes;
    std::map<FragmentId, std::vector<TxnId>> updaters;
    std::map<FragmentId, std::vector<ObjectId>> objects_of;
    std::map<FragmentId, std::vector<const ReadRecord*>> reads_on;
  };
  /// Holds the lookup tables; a copy or move of it (hence of the History)
  /// starts empty, and a moved-from one is emptied too, since the tables
  /// point into the records they were built from.
  struct LookupCache {
    LookupCache() = default;
    LookupCache(const LookupCache&) {}
    LookupCache(LookupCache&& other) noexcept { other.tables.reset(); }
    LookupCache& operator=(const LookupCache&) {
      tables.reset();
      return *this;
    }
    LookupCache& operator=(LookupCache&& other) noexcept {
      tables.reset();
      other.tables.reset();
      return *this;
    }
    std::optional<Lookups> tables;
  };

  const Lookups& lookups() const;
  void DropLookups() { cache_.tables.reset(); }

  std::map<TxnId, TxnRecord> txns_;
  std::vector<ReadRecord> reads_;
  std::vector<InstallRecord> installs_;
  std::vector<QuorumWriteRecord> quorum_writes_;
  std::vector<QuorumReadRecord> quorum_reads_;
  std::vector<CommitDecisionRecord> decisions_;
  std::map<NodeId, int64_t> next_node_order_;
  mutable LookupCache cache_;
};

}  // namespace fragdb

#endif  // FRAGDB_VERIFY_HISTORY_H_

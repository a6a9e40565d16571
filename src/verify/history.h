#ifndef FRAGDB_VERIFY_HISTORY_H_
#define FRAGDB_VERIFY_HISTORY_H_

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cc/transaction.h"
#include "common/status.h"
#include "common/tasks.h"
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
/// paper's serialization-graph definitions consult. The record is fixed
/// size: its writes live in the recording History's write arena, read
/// them through History::WritesOf(const InstallRecord&).
struct InstallRecord {
  NodeId node = kInvalidNode;
  /// The installing node's volatile lifetime (0 until its first amnesia
  /// crash): a node legitimately re-installs what an amnesia crash wiped.
  int incarnation = 0;
  TxnId writer = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  /// Where and when the quasi-transaction committed at its origin; a
  /// record with node != origin_node is a replica install, and
  /// at - origin_time is its replication lag.
  NodeId origin_node = kInvalidNode;
  SeqNum seq = 0;
  /// The writes: `write_count` entries from `write_offset` in the arena.
  uint32_t write_offset = 0;
  uint32_t write_count = 0;
  SimTime at = 0;
  int64_t node_order = 0;
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

/// std::allocator, except that resize() leaves the new elements
/// unconstructed. History::AbsorbShards sizes its merged record arrays
/// with it and then overwrites every new element from the tasks that
/// move the shards in: the pages are first touched by those tasks, spread
/// over the workers and each shard's right before it is released, not
/// all by one thread ahead of them. Only for trivially copyable records.
template <typename T>
struct OverwriteAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T>);
  template <typename U>
  struct rebind {
    using other = OverwriteAllocator<U>;
  };
  OverwriteAllocator() = default;
  template <typename U>
  OverwriteAllocator(const OverwriteAllocator<U>&) noexcept {}
  /// Construction without arguments (resize) leaves the bytes as they are.
  template <typename U>
  void construct(U*) noexcept {}
};

/// Every object's version chain, objects ascending: the flat form of a
/// map from object to its (writer, seq) versions in version order.
struct VersionChainTable {
  std::vector<ObjectId> objects;
  /// Chain i is versions[starts[i], starts[i + 1]).
  std::vector<size_t> starts;
  std::vector<std::pair<TxnId, SeqNum>> versions;

  size_t size() const { return objects.size(); }
  std::span<const std::pair<TxnId, SeqNum>> chain(size_t i) const {
    return {versions.data() + starts[i], versions.data() + starts[i + 1]};
  }
  /// The chain of `object`, or an empty span.
  std::span<const std::pair<TxnId, SeqNum>> Find(ObjectId object) const;
};

/// Append-only record of a run, consumed by the serialization-graph
/// builders and checkers. The engine writes it through narrow hooks, so
/// the checkers validate the engine instead of trusting it.
///
/// Recording never looks anything up: RegisterTxn and MarkCommitted*
/// append to a transaction log, and installs append fixed-size records
/// plus their writes to one arena. The log is folded into the id-ordered
/// transaction table (txns()) on the first read after it grew, and by
/// AbsorbShards.
///
/// The lookups (VersionsOf through VersionChains, and FindTxn's O(1)
/// index) answer from tables built in one pass over the record on the
/// first lookup after a mutation, or by PrepareLookups; every mutation
/// (RegisterTxn, MarkCommitted*, Record*, AbsorbShards) drops them. A
/// returned reference or span stays valid until the next mutation.
/// Copies and moves start without tables. Concurrent first reads are not
/// supported: query a history only after the run that records it has
/// quiesced, and call PrepareLookups before querying it from several
/// threads at once.
class History {
 public:
  /// Transactions in ascending id order.
  using TxnTable = std::vector<std::pair<TxnId, TxnRecord>>;

  History() = default;

  /// Declares a transaction before (or as) it executes. A later
  /// registration of the same id replaces the record, commit state
  /// included.
  void RegisterTxn(const TxnRecord& record);

  /// Marks a registered transaction committed and records its sequence.
  void MarkCommitted(TxnId id, SeqNum frag_seq);

  /// Shard variant of MarkCommitted: needs no registration, because the
  /// commit may be recorded in a different per-node shard than the
  /// registration (e.g. a repackaged commit after an agent move). A mark
  /// alone yields a record with only id, committed and frag_seq set;
  /// AbsorbShards joins the halves.
  void MarkCommittedPartial(TxnId id, SeqNum frag_seq);

  /// Folds per-node shards into this history, in the order given, and
  /// empties them (a shard's per-node install counters survive, so
  /// recording can resume after the merge). Records are appended shard by
  /// shard. Transactions merge field-wise: each shard's log is first
  /// folded on its own, then a registration adopts any commit mark
  /// already merged and vice versa. Called between runs in ascending node
  /// order — a deterministic merge independent of worker-thread count.
  /// The transaction logs fold in order on the calling thread; each
  /// shard's records are then moved into their own range of the merged
  /// arrays as one task on `run`. Returns the lowest id a shard marked
  /// committed that no registration covers after the merge, or
  /// kInvalidTxn.
  TxnId AbsorbShards(std::span<History> shards, const TaskRunner& run = {});

  void RecordRead(const ReadRecord& read);

  /// Records an install; assigns node_order automatically. The record's
  /// origin_time is `origin_time` (the home stamps its own commit
  /// instant), or the quasi's own when omitted.
  void RecordInstall(NodeId node, const QuasiTxn& quasi, SimTime at,
                     int incarnation, SimTime origin_time);
  void RecordInstall(NodeId node, const QuasiTxn& quasi, SimTime at,
                     int incarnation = 0) {
    RecordInstall(node, quasi, at, incarnation, quasi.origin_time);
  }

  void RecordQuorumWrite(const QuorumWriteRecord& record);
  void RecordQuorumRead(const QuorumReadRecord& record);
  void RecordDecision(const CommitDecisionRecord& record);

  const TxnTable& txns() const;
  std::span<const ReadRecord> reads() const { return reads_; }
  std::span<const InstallRecord> installs() const { return installs_; }
  std::span<const QuorumWriteRecord> quorum_writes() const {
    return quorum_writes_;
  }
  const std::vector<QuorumReadRecord>& quorum_reads() const {
    return quorum_reads_;
  }
  std::span<const CommitDecisionRecord> decisions() const {
    return decisions_;
  }

  const TxnRecord* FindTxn(TxnId id) const;

  /// Position of `id` in txns(), or kNoTxn. O(1) once the lookup tables
  /// are built, a binary search before.
  static constexpr size_t kNoTxn = static_cast<size_t>(-1);
  size_t TxnIndex(TxnId id) const;

  /// Builds the lookup tables now, unless they are built, as tasks on
  /// `run`: one chunk of installs per thread, then each fragment's
  /// versions, beside the transaction index. The tables are the ones a
  /// first lookup builds, at any worker count.
  void PrepareLookups(const TaskRunner& run) const;

  /// One-line-per-transaction human-readable dump (for debugging failed
  /// checks): id, label, type, home, commit state, sequence, write count.
  std::string DebugString() const;

  /// The writes of one of this history's install records.
  std::span<const WriteOp> WritesOf(const InstallRecord& install) const {
    return {writes_.data() + install.write_offset, install.write_count};
  }

  /// Version list of `object`: (writer, seq) in version order (fragment
  /// sequence order), excluding the initial version.
  std::span<const std::pair<TxnId, SeqNum>> VersionsOf(ObjectId object) const;

  /// All writes of `writer` (as installed anywhere; installs of one
  /// transaction carry identical write sets, so the first is kept).
  std::span<const WriteOp> WritesOf(TxnId writer) const;

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

  /// Every version chain, by object — for whole-history sweeps.
  const VersionChainTable& VersionChains() const;

 private:
  /// RegisterTxn and MarkCommitted* in record order. A registration's
  /// record sits in `registrations`; a commit mark carries its frag_seq.
  struct TxnLog {
    struct Event {
      TxnId id = kInvalidTxn;
      SeqNum frag_seq = 0;
      /// Index into `registrations`, or -1 for a commit mark.
      int64_t registration = -1;
    };
    std::vector<Event> events;
    std::vector<TxnRecord> registrations;
  };

  /// Lists filed under a few fragment ids: lists[i] belongs to
  /// fragments[i], and fragments is ascending.
  template <typename V>
  struct FragmentLists {
    std::vector<FragmentId> fragments;
    std::vector<std::vector<V>> lists;
    const std::vector<V>& Find(FragmentId fragment) const;
  };

  struct Lookups {
    VersionChainTable versions;
    /// (writer, index of its first install), by writer.
    std::vector<std::pair<TxnId, size_t>> first_install;
    FragmentLists<TxnId> updaters;
    FragmentLists<ObjectId> objects_of;
    FragmentLists<const ReadRecord*> reads_on;
    /// txns_ by id: the transactions whose id lies in bucket
    /// b = (id - txn_base) >> txn_shift are txns_[txn_buckets[b],
    /// txn_buckets[b + 1]). There are at most as many buckets as
    /// transactions, so striped ids (NewTxnId) put about one in each.
    TxnId txn_base = 0;
    int txn_shift = 0;
    std::vector<uint32_t> txn_buckets;
    /// The bucket of `id`, which must be at least txn_base.
    uint64_t TxnBucket(TxnId id) const {
      return (static_cast<uint64_t>(id) - static_cast<uint64_t>(txn_base)) >>
             txn_shift;
    }
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

  /// Folds `logs` into `table`, consuming them. logs[0] is the table's
  /// own log and applies onto it; each later log is a shard's, folded on
  /// its own and then merged field-wise. Returns the lowest id a shard
  /// marked committed that ends up unregistered, or kInvalidTxn.
  static TxnId FoldTxnLogs(TxnTable* table, std::span<TxnLog* const> logs);
  /// Folds txn_log_ into txns_.
  void FoldTxnLog() const;
  const Lookups& lookups() const;
  /// Fills `t`'s transaction index from txns_.
  void BuildTxnIndex(Lookups* t) const;
  void DropLookups() { cache_.tables.reset(); }

  /// Folded on read, hence mutable.
  mutable TxnTable txns_;
  mutable TxnLog txn_log_;
  std::vector<ReadRecord, OverwriteAllocator<ReadRecord>> reads_;
  std::vector<InstallRecord, OverwriteAllocator<InstallRecord>> installs_;
  /// The write arena every InstallRecord points into.
  std::vector<WriteOp, OverwriteAllocator<WriteOp>> writes_;
  std::vector<QuorumWriteRecord, OverwriteAllocator<QuorumWriteRecord>>
      quorum_writes_;
  std::vector<QuorumReadRecord> quorum_reads_;
  std::vector<CommitDecisionRecord, OverwriteAllocator<CommitDecisionRecord>>
      decisions_;
  std::map<NodeId, int64_t> next_node_order_;
  mutable LookupCache cache_;
};

}  // namespace fragdb

#endif  // FRAGDB_VERIFY_HISTORY_H_

#ifndef FRAGDB_CORE_MESSAGES_H_
#define FRAGDB_CORE_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "cc/transaction.h"
#include "common/types.h"
#include "net/message.h"

namespace fragdb {

/// Type tags of the node protocol's payloads (MessagePayload::tag()).
/// NodeRuntime::HandleMessage dispatches on them with one switch
/// (VisitCorePayload below); kUntagged is any other payload.
enum class MsgType : uint8_t {
  kUntagged = 0,
  kQuasi,
  kReadLockRequest,
  kReadLockGrant,
  kReadLockRelease,
  kPrepare,
  kAck,
  kCommit,
  kM0,
  kForwardMissing,
  kRecoveryQuery,
  kRecoveryReply,
  kQuorumRead,
  kQuorumReadReply,
  kQuorumAppliedAck,
  kPaxosAccept,
  kPaxosAccepted,
  kPaxosOutcome,
};

inline constexpr int kMsgTypeCount =
    static_cast<int>(MsgType::kPaxosOutcome) + 1;

/// TypeName() of each tag, indexed by MsgType: the per-type traffic
/// labels (net.sent.<name>, messages_sent_total{label=<name>}).
inline constexpr const char* kMsgTypeNames[kMsgTypeCount] = {
    "other",
    "quasi",
    "lock-request",
    "lock-grant",
    "lock-release",
    "prepare",
    "ack",
    "commit",
    "m0",
    "forward-missing",
    "recovery-query",
    "recovery-reply",
    "quorum-read",
    "quorum-read-reply",
    "quorum-applied-ack",
    "paxos-accept",
    "paxos-accepted",
    "paxos-outcome",
};

constexpr const char* MsgTypeName(MsgType type) {
  return kMsgTypeNames[static_cast<int>(type)];
}

/// Base of every node-protocol payload: stamps the tag at construction
/// and answers TypeName() from the tag table.
template <MsgType kTag>
struct TaggedPayload : MessagePayload {
  static constexpr MsgType kType = kTag;
  TaggedPayload() : MessagePayload(static_cast<uint8_t>(kTag)) {}
  const char* TypeName() const final { return MsgTypeName(kTag); }
};

/// Wire size of one quasi-transaction as carried by any message type:
/// fixed header (ids, sequence, origin, timestamps) plus 16 bytes per
/// write. Every ByteSize() below goes through this helper so the
/// accounting cannot drift between message types. The messages hold the
/// shared record (QuasiRef), but the wire size is that of its contents,
/// as if each message carried its own copy.
inline size_t QuasiTxnWireSize(const QuasiTxn& q) {
  return 48 + q.writes.size() * 16;
}

/// A quasi-transaction plus its stream position, as broadcast by the home
/// node (§2.2: "(T; d1,v1; d2,v2; ...)").
struct QuasiTxnMsg : TaggedPayload<MsgType::kQuasi> {
  QuasiRef quasi;
  Epoch epoch = 0;

  size_t ByteSize() const override { return QuasiTxnWireSize(*quasi); }
};

/// §4.1 remote read-lock protocol.
struct ReadLockRequest : TaggedPayload<MsgType::kReadLockRequest> {
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  NodeId requester = kInvalidNode;
};
struct ReadLockGrant : TaggedPayload<MsgType::kReadLockGrant> {
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
};
struct ReadLockRelease : TaggedPayload<MsgType::kReadLockRelease> {
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
};

/// §4.4.1 majority-commit protocol: prepare / ack / commit.
struct QuasiPrepare : TaggedPayload<MsgType::kPrepare> {
  QuasiRef quasi;
  Epoch epoch = 0;
  size_t ByteSize() const override { return QuasiTxnWireSize(*quasi); }
};
struct QuasiAck : TaggedPayload<MsgType::kAck> {
  TxnId txn = kInvalidTxn;  // the prepared transaction being acknowledged
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  NodeId acker = kInvalidNode;
};
struct QuasiCommit : TaggedPayload<MsgType::kCommit> {
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
};

/// §4.4.3 move announcement: "M0 = (T1, ..., Ti)", carrying the prefix of
/// the old stream the new home has, so behind nodes can catch up, plus the
/// new epoch metadata.
struct M0Msg : TaggedPayload<MsgType::kM0> {
  FragmentId fragment = kInvalidFragment;
  NodeId new_home = kInvalidNode;
  Epoch new_epoch = 0;
  SeqNum base_seq = 0;  // "i": last old-stream txn installed at new home
  std::vector<QuasiRef> old_stream;  // T1..Ti
  size_t ByteSize() const override {
    size_t n = 48;
    for (const QuasiRef& q : old_stream) n += QuasiTxnWireSize(*q);
    return n;
  }
};

/// §4.4.3: a third node forwards a missing old-stream transaction to the
/// new home instead of processing it (protocol step B(2)).
struct ForwardMissing : TaggedPayload<MsgType::kForwardMissing> {
  QuasiRef quasi;
  Epoch old_epoch = 0;
  size_t ByteSize() const override { return QuasiTxnWireSize(*quasi); }
};

/// Quorum reads (ControlOption::kQuorum): the reading node asks each
/// replica of a fragment for its current versions of the objects it wants.
struct QuorumReadRequest : TaggedPayload<MsgType::kQuorumRead> {
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  NodeId requester = kInvalidNode;
  std::vector<ObjectId> objects;
  size_t ByteSize() const override { return 24 + objects.size() * 8; }
};

/// One replica's versions: parallel arrays over the requested objects.
struct QuorumReadReply : TaggedPayload<MsgType::kQuorumReadReply> {
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  NodeId replier = kInvalidNode;
  std::vector<ObjectId> objects;
  std::vector<Value> values;
  std::vector<SeqNum> seqs;
  std::vector<TxnId> writers;
  size_t ByteSize() const override { return 24 + objects.size() * 32; }
};

/// Quorum writes: a replica acknowledges that it has *installed* (not
/// merely buffered) a quasi-transaction, so the origin can count it
/// toward the write quorum W.
struct QuorumAppliedAck : TaggedPayload<MsgType::kQuorumAppliedAck> {
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  NodeId acker = kInvalidNode;
};

/// Paxos Commit (MoveProtocol::kPaxosCommit): the proposer (ballot 0 =
/// the coordinating home; higher ballots = recovery rounds) asks the
/// fragment's replica set to accept the quasi-transaction at its slot.
struct PaxosAccept : TaggedPayload<MsgType::kPaxosAccept> {
  uint64_t ballot = 0;
  QuasiRef quasi;
  Epoch epoch = 0;
  NodeId proposer = kInvalidNode;
  size_t ByteSize() const override { return 16 + QuasiTxnWireSize(*quasi); }
};

struct PaxosAccepted : TaggedPayload<MsgType::kPaxosAccepted> {
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  uint64_t ballot = 0;
  NodeId acceptor = kInvalidNode;
};

/// The learned outcome, broadcast by whichever proposer first assembled an
/// F+1 majority (and unicast to late proposers by already-decided
/// acceptors).
struct PaxosOutcome : TaggedPayload<MsgType::kPaxosOutcome> {
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  bool commit = true;
};

/// Peer catch-up, the one "send me what I am missing" exchange: crash
/// recovery (positive ids, one session per recovering node), loss gap
/// repair and §4.4.1 move catch-up (negative ids, numbered by the querying
/// node). A position is where the querying node stands on one fragment.
struct RecoveryPosition {
  FragmentId fragment = kInvalidFragment;
  Epoch epoch = 0;
  SeqNum applied_seq = 0;
};

/// The querying node asks peers for the stream suffix past its positions.
struct RecoveryQuery : TaggedPayload<MsgType::kRecoveryQuery> {
  NodeId requester = kInvalidNode;
  int64_t recovery_id = 0;
  std::vector<RecoveryPosition> have;
  size_t ByteSize() const override { return 24 + have.size() * 16; }
};

/// One fragment's stream state at the replying peer, with the log entries
/// past the requester's position.
struct RecoveryFragmentState {
  FragmentId fragment = kInvalidFragment;
  Epoch epoch = 0;
  SeqNum epoch_base = 0;
  SeqNum applied_seq = 0;
  std::vector<QuasiRef> quasis;
};

struct RecoveryReply : TaggedPayload<MsgType::kRecoveryReply> {
  NodeId replier = kInvalidNode;
  int64_t recovery_id = 0;
  std::vector<RecoveryFragmentState> fragments;
  size_t ByteSize() const override {
    size_t n = 24;
    for (const auto& f : fragments) {
      n += 28;
      for (const QuasiRef& q : f.quasis) n += QuasiTxnWireSize(*q);
    }
    return n;
  }
};

/// Calls `visit` with `p` cast to its concrete node-protocol payload type
/// and returns true, or returns false for an untagged payload.
template <typename Visitor>
bool VisitCorePayload(const MessagePayload& p, Visitor&& visit) {
  switch (static_cast<MsgType>(p.tag())) {
    case MsgType::kQuasi:
      visit(static_cast<const QuasiTxnMsg&>(p));
      return true;
    case MsgType::kReadLockRequest:
      visit(static_cast<const ReadLockRequest&>(p));
      return true;
    case MsgType::kReadLockGrant:
      visit(static_cast<const ReadLockGrant&>(p));
      return true;
    case MsgType::kReadLockRelease:
      visit(static_cast<const ReadLockRelease&>(p));
      return true;
    case MsgType::kPrepare:
      visit(static_cast<const QuasiPrepare&>(p));
      return true;
    case MsgType::kAck:
      visit(static_cast<const QuasiAck&>(p));
      return true;
    case MsgType::kCommit:
      visit(static_cast<const QuasiCommit&>(p));
      return true;
    case MsgType::kM0:
      visit(static_cast<const M0Msg&>(p));
      return true;
    case MsgType::kForwardMissing:
      visit(static_cast<const ForwardMissing&>(p));
      return true;
    case MsgType::kRecoveryQuery:
      visit(static_cast<const RecoveryQuery&>(p));
      return true;
    case MsgType::kRecoveryReply:
      visit(static_cast<const RecoveryReply&>(p));
      return true;
    case MsgType::kQuorumRead:
      visit(static_cast<const QuorumReadRequest&>(p));
      return true;
    case MsgType::kQuorumReadReply:
      visit(static_cast<const QuorumReadReply&>(p));
      return true;
    case MsgType::kQuorumAppliedAck:
      visit(static_cast<const QuorumAppliedAck&>(p));
      return true;
    case MsgType::kPaxosAccept:
      visit(static_cast<const PaxosAccept&>(p));
      return true;
    case MsgType::kPaxosAccepted:
      visit(static_cast<const PaxosAccepted&>(p));
      return true;
    case MsgType::kPaxosOutcome:
      visit(static_cast<const PaxosOutcome&>(p));
      return true;
    case MsgType::kUntagged:
      break;
  }
  return false;
}

}  // namespace fragdb

#endif  // FRAGDB_CORE_MESSAGES_H_

#ifndef FRAGDB_CC_TRANSACTION_H_
#define FRAGDB_CC_TRANSACTION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace fragdb {

/// A write produced by a transaction body: the (d_i, v_i) pairs of the
/// paper's propagation message (§2.2).
struct WriteOp {
  ObjectId object = kInvalidObject;
  Value value = 0;

  friend bool operator==(const WriteOp&, const WriteOp&) = default;
};

/// Transaction body: given the values of the declared read set (in
/// declaration order), returns the writes to apply, or
///  * Status::FailedPrecondition to decline cleanly (e.g., a withdrawal
///    rejected for insufficient local-view balance), or
///  * any other error to abort.
/// Bodies must be pure functions of their inputs — they run at a simulated
/// instant and may be retried by some baselines.
using TxnBody =
    std::function<Result<std::vector<WriteOp>>(const std::vector<Value>&)>;

/// Declared transaction: the model of §3.2. A transaction is initiated by
/// an agent, reads a declared set of objects, and (if it is an update
/// transaction) writes only into the single fragment its agent controls
/// (the initiation requirement).
struct TxnSpec {
  AgentId agent = kInvalidAgent;
  /// Fragment this transaction updates; kInvalidFragment for read-only.
  FragmentId write_fragment = kInvalidFragment;
  std::vector<ObjectId> read_set;
  TxnBody body;
  std::string label;  // diagnostics only

  bool read_only() const { return write_fragment == kInvalidFragment; }
};

/// Outcome of a transaction, reported to the submitter's callback.
struct TxnResult {
  TxnId id = kInvalidTxn;
  Status status;
  /// Writes applied (empty unless committed).
  std::vector<WriteOp> writes;
  /// Values read by the body, in read-set order (valid if the body ran).
  std::vector<Value> reads;
  SimTime finished_at = 0;
  /// Per-fragment commit sequence (update transactions only).
  SeqNum frag_seq = 0;
};

/// A committed update transaction's effects, as shipped to remote replicas
/// (§2.2: "quasi-transaction"). Remote nodes install the writes
/// unconditionally and atomically, in `seq` order per fragment.
struct QuasiTxn {
  TxnId origin_txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  NodeId origin_node = kInvalidNode;
  SimTime origin_time = 0;
  std::vector<WriteOp> writes;

  friend bool operator==(const QuasiTxn&, const QuasiTxn&) = default;
};

/// The one shared, immutable record of a committed quasi-transaction.
/// The home builds it once at commit (§4.4.3 repackaging and the WAL and
/// checkpoint decoders are the only other builders); every message,
/// stream log, holdback, install slot, Paxos slot and checkpoint image
/// that holds it keeps this pointer rather than a copy. Nothing mutates
/// the record after it is built, so PDES workers may read it
/// concurrently; the reference count is atomic.
using QuasiRef = std::shared_ptr<const QuasiTxn>;

/// Lock-table resource identifiers. FragDB locks at fragment granularity
/// (one agent serializes all updates to its fragment anyway); object-level
/// resources are provided for library users who need finer locking.
using ResourceId = int64_t;

inline ResourceId FragmentResource(FragmentId f) {
  return static_cast<ResourceId>(f);
}
inline ResourceId ObjectResource(ObjectId o) {
  return (int64_t{1} << 40) + o;
}

}  // namespace fragdb

#endif  // FRAGDB_CC_TRANSACTION_H_

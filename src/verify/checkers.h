#ifndef FRAGDB_VERIFY_CHECKERS_H_
#define FRAGDB_VERIFY_CHECKERS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/tasks.h"
#include "common/types.h"
#include "net/message.h"
#include "obs/availability.h"
#include "storage/catalog.h"
#include "storage/object_store.h"
#include "verify/history.h"
#include "verify/serialization_graph.h"

namespace fragdb {

/// Outcome of a correctness check, with diagnostics when it fails.
struct CheckReport {
  bool ok = true;
  std::string detail;
  /// Transactions implicated in the failure (a serialization cycle, a
  /// partial-effect read, ...), when applicable.
  std::vector<TxnId> witnesses;

  static CheckReport Pass() { return CheckReport{}; }
  static CheckReport Fail(std::string detail,
                          std::vector<TxnId> witnesses = {});
};

/// Is the recorded execution globally serializable (acyclic global
/// serialization graph, Definition 8.2)?
CheckReport CheckGlobalSerializability(const History& history);

/// Property 1 (paper §4.3): the schedule consisting solely of U(F_i) is
/// serializable.
CheckReport CheckProperty1(const History& history, FragmentId fragment);

/// Property 2 (paper §4.3): no transaction reading F_i ever sees a partial
/// effect of a transaction in U(F_i).
CheckReport CheckProperty2(const History& history, FragmentId fragment);

/// Fragmentwise serializability = Properties 1 and 2 for every fragment.
CheckReport CheckFragmentwiseSerializability(const History& history,
                                             int fragment_count);

/// Quorum freshness (ControlOption::kQuorum, R+W>N): every completed
/// R-quorum read must observe, for each object it read, a version at least
/// as new as the newest write to that object that had reached its write
/// quorum before the read began. The records come straight from the
/// protocol (QuorumWriteRecord at W-ack, QuorumReadRecord at read
/// completion); write sets are resolved through the history's installs.
CheckReport CheckQuorumFreshness(const History& history);

/// Paxos Commit atomicity: every (fragment, seq) slot's recorded
/// decisions agree on the outcome, and a slot decided `commit` has its
/// transaction marked committed in the history — participants never
/// disagree about whether a transaction happened. Includes
/// CheckDecidedInstalls.
CheckReport CheckCommitAtomicity(const History& history);

/// Every install of a decided (fragment, seq) slot — at the home, which
/// applies its proposal before the decide, and at each replica — carries
/// the decided transaction, and no node installs a slot twice within one
/// volatile lifetime (an amnesia crash wipes the install, so the revived
/// node installs it again). Slots without decision records are not
/// checked.
CheckReport CheckDecidedInstalls(const History& history);

/// Every history check an audit makes, each report the one its checker
/// above returns.
struct HistoryAudit {
  CheckReport global_serializability;
  /// Properties 1 and 2 of each fragment, by fragment id.
  std::vector<CheckReport> property1;
  std::vector<CheckReport> property2;
  CheckReport quorum_freshness;
  CheckReport commit_atomicity;
};

/// Runs the history checks of fragments 0..fragment_count-1 as
/// independent tasks on `run`: the lookup tables first, then the global
/// graph's edge chunks, each fragment's Property 1 and Property 2, quorum
/// freshness, commit atomicity and `alongside` (when set) together, and
/// last the one cycle search over the merged global graph. Every report
/// is byte-identical at any worker count.
HistoryAudit AuditHistory(const History& history, int fragment_count,
                          const TaskRunner& run,
                          const std::function<void()>& alongside = nullptr);

/// Mutual consistency: all replicas hold identical contents. Valid only at
/// quiescence (all propagation drained).
CheckReport CheckMutualConsistency(
    const std::vector<const ObjectStore*>& replicas);

/// Streaming check of the network's per-channel FIFO promise: fed every
/// delivery (via Network::SetDeliveryObserver), it verifies that on each
/// ordered (from, to) channel the delivered messages' send stamps are
/// non-decreasing — i.e. no delivery ever overtakes an earlier send, even
/// under latency changes, gray links, loss windows and queued-message
/// flushes. O(1) per delivery; ask Report() at the end of the run.
class FifoOrderChecker {
 public:
  void Observe(const Message& m);
  CheckReport Report() const;

  uint64_t observed() const { return observed_; }
  uint64_t violations() const { return violations_; }

 private:
  // Last observed sent_at per ordered channel, indexed [to][from] and
  // grown on demand; a channel not yet seen reads 0. Checkers shard by
  // destination, so each one usually holds a single row.
  std::vector<std::vector<SimTime>> last_sent_;
  uint64_t observed_ = 0;
  uint64_t violations_ = 0;
  std::string first_violation_;
};

/// A consistency predicate over data objects (paper §4.3): single-fragment
/// if all inputs lie in one fragment, multi-fragment otherwise.
/// Fragmentwise serializability guarantees single-fragment predicates hold;
/// only multi-fragment predicates can be violated.
struct ConsistencyPredicate {
  std::string name;
  std::vector<ObjectId> inputs;
  std::function<bool(const std::vector<Value>&)> fn;
};

/// True if every input object belongs to the same fragment.
bool IsSingleFragment(const ConsistencyPredicate& p, const Catalog& catalog);

/// Evaluates `p` against one replica's current contents.
bool EvaluatePredicate(const ConsistencyPredicate& p,
                       const ObjectStore& store);

/// How a predicate fared over one replica's lifetime, reconstructed by
/// replaying the recorded installs at that node in installation order
/// (paper §4.3: under fragmentwise serializability, single-fragment
/// predicates are NEVER violated; multi-fragment predicates may be
/// violated transiently until propagation catches up).
struct PredicateTimeline {
  /// Evaluations performed (initial state + one per install at the node).
  int evaluations = 0;
  /// Evaluations at which the predicate did not hold.
  int violations = 0;
  /// Whether the predicate held after the last install.
  bool holds_at_end = true;
  /// (install time, now-holds) at each flip of the predicate's truth.
  std::vector<std::pair<SimTime, bool>> transitions;
};

/// Replays `history`'s installs at `node` and traces `predicate`.
PredicateTimeline TracePredicate(const History& history,
                                 const Catalog& catalog,
                                 const ConsistencyPredicate& predicate,
                                 NodeId node);

/// Structural soundness of a finalized AvailabilityTracker's interval
/// list: sorted by (node, fragment, access, start), every interval
/// non-empty and inside [0, horizon], and no two intervals of the same
/// (node, fragment, access) cell overlapping. A violation means the
/// tracker's state machine double-opened or mis-closed a window — a bug in
/// the observability layer itself, not in the database.
CheckReport CheckAvailabilityIntervals(
    const std::vector<AvailabilityInterval>& intervals, SimTime horizon);

/// §4.3's consequence, checked over a whole run: a single-fragment
/// predicate that every update transaction preserves must hold at every
/// replica after every install. Fails with the offending node/time for
/// multi-fragment predicates that were (even transiently) violated.
CheckReport CheckPredicateNeverViolated(const History& history,
                                        const Catalog& catalog,
                                        const ConsistencyPredicate& predicate,
                                        int node_count);

}  // namespace fragdb

#endif  // FRAGDB_VERIFY_CHECKERS_H_

#ifndef FRAGDB_CORE_MULTI_FRAGMENT_H_
#define FRAGDB_CORE_MULTI_FRAGMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "cc/transaction.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cluster.h"

namespace fragdb {

/// Extension: transactions that update more than one fragment.
///
/// The paper's footnote in §3.2 sketches two escapes from the initiation
/// requirement: split the work into per-fragment transactions, or run "a
/// semblance of the two-phase commit protocol ... that involves the agents
/// of all the fragments that are being updated" (details deferred to the
/// unpublished report [7]). This coordinator implements that sketch:
///
///   phase 0  the coordinating agent reads the declared read set at its
///            home node and runs the body, producing writes that may span
///            several fragments;
///   phase 1  every involved agent's home must currently be reachable from
///            the coordinator (the "vote"); if any is not, the transaction
///            aborts as Unavailable with no effects anywhere;
///   phase 2  the writes are handed to each involved agent, which commits
///            them as a normal single-fragment update transaction of its
///            own (sequence number, propagation, and all).
///
/// Limitations, faithful to the fragmentwise model: the per-fragment
/// commits are not mutually atomic — a reader can observe fragment A's
/// part before fragment B's part arrives. Single-fragment atomicity
/// (Property 2) is preserved for every part.
///
/// Under MoveProtocol::kPaxosCommit each part routes through the
/// non-blocking Paxos Commit path like any other update: every part's
/// outcome is decided by an acceptor majority, so a part never blocks on
/// its home crashing mid-commit (CheckCommitAtomicity covers the parts
/// like any other slot). Cross-part atomicity is unchanged — parts still
/// commit independently, in line with the §3.2 footnote's sketch.
struct MultiFragmentResult {
  Status status;
  /// Per-fragment transaction results (committed parts), in fragment order.
  std::vector<TxnResult> parts;
};

class MultiFragmentCoordinator {
 public:
  /// `cluster` must outlive the coordinator.
  explicit MultiFragmentCoordinator(Cluster* cluster) : cluster_(cluster) {}

  /// Runs a multi-fragment transaction coordinated by `coordinator` (the
  /// agent initiating the work). `body` may return writes in any fragment
  /// whose agent is reachable; writes are grouped and committed per
  /// fragment. `done` fires after every part commits (or on abort), in a
  /// global event. Call from setup, a global event, or an event on the
  /// coordinator's home node.
  void Submit(AgentId coordinator, std::vector<ObjectId> read_set,
              TxnBody body, std::string label,
              std::function<void(MultiFragmentResult)> done);

 private:
  Cluster* cluster_;
};

}  // namespace fragdb

#endif  // FRAGDB_CORE_MULTI_FRAGMENT_H_

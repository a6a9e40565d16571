#ifndef FRAGDB_SIM_ENGINE_H_
#define FRAGDB_SIM_ENGINE_H_

#include <functional>
#include <utility>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/partition.h"
#include "sim/pdes_scheduler.h"

namespace fragdb {

/// Node-attributed scheduling interface the protocol stack runs on: the
/// conservative windowed PdesScheduler, partitioned by a PartitionPlan.
///
/// Every schedule names the node whose state the event touches; every
/// message names sender and receiver; and work that must see (or mutate)
/// shared cluster state — topology, catalog, partition plan — goes
/// through AtGlobal. The attribution is the partition-confinement
/// contract that lets windows of node events run concurrently; output is
/// byte-identical at any worker-thread count (docs/PERFORMANCE.md).
class SimEngine {
 public:
  /// Node events partitioned by `plan`; globals serialize at window
  /// barriers. `lookahead` must lower-bound the arrival delay of any
  /// cross-partition Post under the current latency structure.
  SimEngine(PartitionPlan plan,
            std::function<SimTime(const PartitionPlan&)> lookahead,
            PdesScheduler::Options options)
      : scheduler_(std::move(plan), std::move(lookahead), options) {}

  /// `nodes` nodes in one partition on the calling thread, for components
  /// driven outside a Cluster (unit tests, micro-benchmarks). With no
  /// lookahead every event runs as its own step, in the canonical
  /// (time, node, seq) order, and globals run at their exact time.
  explicit SimEngine(int nodes)
      : SimEngine(PartitionPlan::Contiguous(nodes, 1), nullptr, {}) {}

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Current simulated time; inside an event, the event's scheduled time.
  SimTime Now() const { return scheduler_.Now(); }

  /// Schedules `fn` at `when` on `node` (the node whose state it reads
  /// and writes). During execution, only callable from an event already
  /// running on `node`, or from a global event.
  EventId AtNode(NodeId node, SimTime when, EventFn fn) {
    return scheduler_.ScheduleAt(node, when, std::move(fn));
  }

  EventId AfterNode(NodeId node, SimTime delay, EventFn fn) {
    return AtNode(node, Now() + delay, std::move(fn));
  }

  /// Cancels a pending event on `node` (same confinement rule).
  bool CancelNode(NodeId node, EventId id) {
    return scheduler_.CancelNode(node, id);
  }

  /// A simulated message: `fn` runs on `to` at `arrival`, sent by an
  /// event currently executing on `from`. Cross-partition arrivals must
  /// honor the lookahead bound.
  void Post(NodeId from, NodeId to, SimTime arrival, EventFn fn) {
    scheduler_.Post(from, to, arrival, std::move(fn));
  }

  /// Schedules `fn` as a global event: it runs with every node parked and
  /// may touch any shared or per-node state. From a node event the
  /// request may be deferred (never reordered against other requests).
  void AtGlobal(SimTime when, EventFn fn) {
    scheduler_.AtGlobal(when, std::move(fn));
  }

  void RunUntil(SimTime deadline) { scheduler_.RunUntil(deadline); }
  void RunToQuiescence() { scheduler_.RunToQuiescence(); }

  /// Node of the event the calling thread is executing, or kInvalidNode
  /// outside node events (setup, globals).
  NodeId CurrentNode() const { return scheduler_.CurrentNode(); }

  /// Tells the engine the latency structure changed (topology mutation
  /// from a global event) so it can re-derive its lookahead.
  void NotifyTopologyChanged() { scheduler_.RefreshLookahead(); }

  /// Runs `fn(0)` ... `fn(n - 1)` on the engine's worker threads, which
  /// are parked between runs; inline with one thread. Only while no
  /// window runs (between Run* calls, or from a global event).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    scheduler_.ParallelFor(n, fn);
  }
  /// How many ParallelFor tasks run at once.
  int task_threads() const { return scheduler_.task_threads(); }

  uint64_t events_executed() const {
    return scheduler_.stats().events_executed;
  }

  /// The windowed scheduler: mid-run plan reassignment and window/merge
  /// stats.
  PdesScheduler& scheduler() { return scheduler_; }

 private:
  PdesScheduler scheduler_;
};

}  // namespace fragdb

#endif  // FRAGDB_SIM_ENGINE_H_

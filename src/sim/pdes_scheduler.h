#ifndef FRAGDB_SIM_PDES_SCHEDULER_H_
#define FRAGDB_SIM_PDES_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/partition.h"

namespace fragdb {

/// Conservative windowed parallel discrete-event scheduler.
///
/// Nodes are grouped into partitions (PartitionPlan); each node owns a
/// slab EventQueue sub-queue, and each partition executes its nodes'
/// events strictly in the global total order (time, node, per-node seq).
/// The loop alternates three phases:
///
///   1. window: with L = lookahead (a lower bound on the latency of any
///      cross-partition message), every event with time < min_pending + L
///      is safe to run without hearing from other partitions — a message
///      it sends arrives no earlier than min_pending + L. Workers claim
///      partitions from a shared counter and drain them concurrently.
///   2. merge: cross-partition messages produced during the window were
///      appended to single-writer per-edge mailboxes; each destination
///      partition drains its inbound edges, sorts the envelopes by
///      (arrival, source node, source send seq) — a total order that does
///      not depend on thread count or claim order — and feeds them into
///      its nodes' sub-queues.
///   3. advance: the barrier applies buffered node reassignments (the
///      plan may only change here), recomputes the lookahead, and moves
///      the global clock to the window end.
///
/// When the lookahead is zero (some cross-partition latency is 0) no
/// window is safe; the scheduler degrades to deterministic serial
/// micro-steps — globally earliest event first — so adversarial
/// topologies stay correct, just not parallel.
///
/// Determinism: the pop order within a partition is the (time, node,
/// seq) order; partitions only interact at barriers; and every barrier
/// decision (window size, merge order, reassignment order) is computed
/// from simulation state alone. Hence the full execution trace — and any
/// metrics derived from it — is byte-identical for any worker-thread
/// count, given the same plan. See docs/PERFORMANCE.md.
class PdesScheduler {
 public:
  struct Options {
    /// Worker threads executing partitions; 1 runs everything inline on
    /// the caller (the exact same phase code, hence identical results).
    /// 0 = hardware concurrency.
    int threads = 1;
  };

  /// `lookahead` is re-evaluated against the current plan at every
  /// barrier that changed it: it must return a lower bound on the arrival
  /// delay (arrival - send time) of any message posted between nodes in
  /// different partitions, or 0 to force serial execution.
  PdesScheduler(PartitionPlan plan,
                std::function<SimTime(const PartitionPlan&)> lookahead,
                Options options);
  ~PdesScheduler();

  PdesScheduler(const PdesScheduler&) = delete;
  PdesScheduler& operator=(const PdesScheduler&) = delete;

  // --- Scheduling -------------------------------------------------------

  /// Schedules `fn` on `node` at absolute time `when`. Callable from the
  /// setup phase (before Run*) for any node, and during execution only by
  /// the worker currently running `node`'s partition — e.g. a node's
  /// event chaining its own next arrival or timer. Returns an id usable
  /// with CancelNode under the same confinement rule.
  EventId ScheduleAt(NodeId node, SimTime when, EventFn fn);

  /// Cancels a pending event on `node`. Same confinement rule as
  /// ScheduleAt: during execution only the worker running `node`'s
  /// partition (or a global event, with every partition parked) may call
  /// it. Returns false if the event already fired.
  bool CancelNode(NodeId node, EventId id);

  /// Schedules `fn` as a *global* event: it runs on the driving thread
  /// with every partition parked, so it may freely touch shared state
  /// (topology, catalog, plan) and any node's queue. Globals execute in
  /// (time, submission seq) order, strictly before node events at the
  /// same time; the lookahead is re-evaluated after each global batch.
  ///
  /// Called from a node event, the request is deferred to the current
  /// window's end (other partitions may already have executed past
  /// `when`); concurrent requests are ordered by (effective time,
  /// requesting node, per-node seq), independent of thread count.
  void AtGlobal(SimTime when, EventFn fn);

  /// Posts a message event: `fn` runs on `to` at `arrival`. Must be
  /// called from an event executing on `from` (or setup). Same-partition
  /// posts that arrive inside the current window are scheduled directly;
  /// everything else rides a per-edge mailbox and is merged at the next
  /// barrier. Cross-partition posts must honor the lookahead contract
  /// (arrival >= window end) — violations abort, they are programming
  /// errors, not data errors.
  void Post(NodeId from, NodeId to, SimTime arrival, EventFn fn);

  /// Buffers a plan change: `node` moves to `partition` (with its pending
  /// sub-queue) at the next barrier. Callable during execution from any
  /// worker and from setup. Requests are applied in ascending node order;
  /// the last request for a node wins.
  void RequestReassign(NodeId node, int partition);

  // --- Driving ----------------------------------------------------------

  /// Runs until every sub-queue is empty.
  void RunToQuiescence();

  /// Runs all events with time <= deadline, then advances the clock to
  /// the deadline.
  void RunUntil(SimTime deadline);

  // --- Inspection -------------------------------------------------------

  /// Context-aware clock: inside an event (node or global) this is the
  /// event's scheduled time; between Run* calls it is the end of the
  /// last completed window.
  SimTime Now() const;

  /// The node whose event the calling thread is currently executing, or
  /// kInvalidNode outside node events (setup, globals, between runs).
  NodeId CurrentNode() const;

  /// Re-evaluates the lookahead function against the current plan.
  /// Callable from global events (after they mutate the latency
  /// structure) and between runs.
  void RefreshLookahead();

  const PartitionPlan& plan() const { return plan_; }

  // --- End-of-run work --------------------------------------------------

  /// Runs `fn(0)` ... `fn(n - 1)` on the worker pool (the calling thread
  /// takes tasks too) and returns once all have finished. Callable only
  /// while no window runs: between Run* calls or from a global event.
  /// With one thread, or from inside a task, the tasks run inline in
  /// index order.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);
  /// How many ParallelFor tasks run at once: the workers and the caller.
  int task_threads() const { return static_cast<int>(workers_.size()) + 1; }

  struct Stats {
    uint64_t events_executed = 0;
    uint64_t windows = 0;       // parallel windows advanced
    uint64_t serial_steps = 0;  // zero-lookahead fallback micro-steps
    uint64_t mailbox_envelopes = 0;  // messages merged at barriers
    uint64_t direct_posts = 0;  // same-partition, same-window deliveries
    uint64_t reassignments = 0; // applied plan changes
    uint64_t global_events = 0; // barrier-serialized global events
  };
  /// Deterministic at any thread count (every field is a function of the
  /// simulation state and the plan, never of scheduling).
  const Stats& stats() const { return stats_; }

 private:
  /// A message crossing a partition boundary (or deferred past the
  /// current window), parked in a mailbox until the barrier.
  struct Envelope {
    SimTime arrival;
    NodeId from;
    NodeId to;
    uint64_t seq;  // per-source-node send sequence
    EventFn fn;
  };

  struct NodeState {
    EventQueue queue;
    uint64_t send_seq = 0;  // orders this node's posts deterministically
    uint64_t global_req_seq = 0;  // orders this node's AtGlobal requests
  };

  /// A pending global event (heap-ordered by (when, seq)).
  struct GlobalEvent {
    SimTime when;
    uint64_t seq;
    EventFn fn;
  };

  /// An AtGlobal call made from inside a node event, parked until the
  /// window barrier.
  struct GlobalRequest {
    SimTime when;  // already deferred to the window end
    NodeId node;
    uint64_t seq;  // per-requesting-node sequence
    EventFn fn;
  };

  /// Merge-phase sort key; envelopes themselves stay in their mailboxes
  /// until scheduled (sorting 32-byte keys beats relocating EventFns).
  struct MergeKey {
    SimTime arrival;
    NodeId from;
    uint64_t seq;
    uint32_t box;  // source partition
    uint32_t idx;  // index within that mailbox
    bool operator<(const MergeKey& o) const {
      if (arrival != o.arrival) return arrival < o.arrival;
      if (from != o.from) return from < o.from;
      return seq < o.seq;
    }
  };

  /// Per-partition working state. Mailboxes are indexed by destination
  /// partition: out[d] is written only by the worker executing this
  /// partition's window and read only by the worker merging partition d
  /// — single writer, single reader, handed over at the barrier.
  struct Partition {
    std::vector<std::vector<Envelope>> out;  // by destination partition
    std::vector<std::pair<SimTime, NodeId>> heap;  // min-heap (time, node)
    std::vector<MergeKey> merge_scratch;
    std::vector<std::pair<NodeId, int>> reassign_requests;
    std::vector<GlobalRequest> global_requests;
    // Per-phase counters, aggregated into stats_ at the barrier.
    uint64_t events = 0;
    uint64_t merged = 0;
    uint64_t direct = 0;
    SimTime max_time = 0;  // latest event time executed this window
  };

  void ExecuteWindow(int p, SimTime window_end);
  void MergeInbound(int p);
  void Drive(SimTime deadline);
  /// One deterministic serial micro-step (zero-lookahead fallback):
  /// executes the globally earliest event, then merges all mailboxes.
  void SerialStep();
  /// Barrier bookkeeping: apply reassignments, refresh lookahead.
  void ApplyReassignments();
  /// Moves node-buffered AtGlobal requests into the global heap in
  /// (effective time, requesting node, per-node seq) order.
  void FlushGlobalRequests();
  /// Runs every global event due at `t` serially on the calling thread.
  void RunGlobalBatch(SimTime t);
  /// Earliest pending event time across all sub-queues.
  SimTime GlobalNextTime();
  /// Runs `fn(p)` for every partition, on the pool if threads > 1.
  void ForEachPartition(const std::function<void(size_t)>& fn);
  /// Runs `fn(0)` ... `fn(n - 1)` on the pool (workers_ non-empty).
  void RunOnPool(size_t n, const std::function<void(size_t)>& fn);
  void WorkerLoop();

  PartitionPlan plan_;
  std::function<SimTime(const PartitionPlan&)> lookahead_fn_;
  Options options_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  SimTime now_ = 0;
  SimTime lookahead_ = 0;
  std::vector<GlobalEvent> globals_;  // min-heap by (when, seq)
  uint64_t global_seq_ = 0;
  /// Exclusive upper bound of the window being executed; nodes' posts
  /// compare arrivals against it. Written at the barrier (before workers
  /// wake), constant during a phase.
  SimTime window_end_ = 0;
  bool running_phase_ = false;  // true while workers may touch state
  Stats stats_;

  // Worker pool (idle unless options_.threads > 1). Phases are published
  // under pool_mu_; tasks (partitions, or ParallelFor's indices) are
  // claimed via an atomic counter so the claim order cannot influence
  // results.
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* phase_fn_ = nullptr;
  size_t phase_tasks_ = 0;
  uint64_t phase_epoch_ = 0;
  bool shutdown_ = false;
  std::atomic<size_t> claim_{0};
  int done_count_ = 0;
};

}  // namespace fragdb

#endif  // FRAGDB_SIM_PDES_SCHEDULER_H_

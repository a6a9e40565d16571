#include "sim/pdes_scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace fragdb {

namespace {

/// Partition the calling thread is currently executing or merging, -1
/// outside a phase. Lets ScheduleAt/Post verify partition confinement
/// without knowing which worker they run on.
thread_local int tl_partition = -1;
/// True only during the window-execution phase (when the partition heap
/// must be kept in sync with same-window schedules).
thread_local bool tl_in_exec = false;
/// Scheduled time of the event this thread is currently executing; valid
/// only while tl_have_now — makes Now() context-aware inside events.
thread_local SimTime tl_now = 0;
thread_local bool tl_have_now = false;
/// Node whose event this thread is executing; kInvalidNode during
/// globals, merges, and outside phases.
thread_local NodeId tl_node = kInvalidNode;
/// True while this thread runs a pool task: a ParallelFor from inside one
/// runs inline, since every worker may be busy.
thread_local bool tl_in_task = false;

/// Max-heap comparator turning std::push_heap into a (when, seq) min-heap
/// over global events.
struct GlobalLater {
  template <typename G>
  bool operator()(const G& a, const G& b) const {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }
};

/// Min-heap comparator over (time, node): std::push_heap et al. build a
/// max-heap, so invert. Ties broken by node id — the canonical global
/// order is (time, node, per-node seq).
struct LaterFirst {
  bool operator()(const std::pair<SimTime, NodeId>& a,
                  const std::pair<SimTime, NodeId>& b) const {
    return a.first != b.first ? a.first > b.first : a.second > b.second;
  }
};

SimTime SaturatingAdd(SimTime a, SimTime b) {
  return b >= kSimTimeMax - a ? kSimTimeMax : a + b;
}

}  // namespace

PdesScheduler::PdesScheduler(
    PartitionPlan plan, std::function<SimTime(const PartitionPlan&)> lookahead,
    Options options)
    : plan_(std::move(plan)),
      lookahead_fn_(std::move(lookahead)),
      options_(options) {
  int n = plan_.node_count();
  int p = plan_.partition_count();
  nodes_.reserve(n);
  for (int i = 0; i < n; ++i) nodes_.push_back(std::make_unique<NodeState>());
  partitions_.reserve(p);
  for (int i = 0; i < p; ++i) {
    auto part = std::make_unique<Partition>();
    part->out.resize(p);
    partitions_.push_back(std::move(part));
  }
  lookahead_ = lookahead_fn_ ? lookahead_fn_(plan_) : 0;
  if (options_.threads <= 0) {
    options_.threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  // One worker is the driving thread itself; spawn the rest. More workers
  // than partitions would never find work.
  int spawn = std::min(options_.threads, p) - 1;
  for (int i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PdesScheduler::~PdesScheduler() {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

EventId PdesScheduler::ScheduleAt(NodeId node, SimTime when, EventFn fn) {
  FRAGDB_CHECK(node >= 0 && node < plan_.node_count());
  if (running_phase_) {
    int p = plan_.PartitionOf(node);
    FRAGDB_CHECK(tl_partition == p);  // partition confinement
    EventId id = nodes_[node]->queue.Schedule(when, std::move(fn));
    if (tl_in_exec && when < window_end_) {
      auto& heap = partitions_[p]->heap;
      heap.emplace_back(when, node);
      std::push_heap(heap.begin(), heap.end(), LaterFirst{});
    }
    return id;
  }
  // Setup or a global event (partitions parked): direct access is safe.
  // Clamp to the clock so a global can fire node work "now".
  if (when < now_) when = now_;
  return nodes_[node]->queue.Schedule(when, std::move(fn));
}

bool PdesScheduler::CancelNode(NodeId node, EventId id) {
  FRAGDB_CHECK(node >= 0 && node < plan_.node_count());
  if (running_phase_) {
    FRAGDB_CHECK(tl_partition == plan_.PartitionOf(node));
  }
  // Stale partition-heap entries left by a cancel are skipped by the
  // NextTime check in ExecuteWindow.
  return nodes_[node]->queue.Cancel(id);
}

void PdesScheduler::AtGlobal(SimTime when, EventFn fn) {
  if (running_phase_) {
    FRAGDB_CHECK(tl_partition >= 0 && tl_node != kInvalidNode);
    // Defer to the window barrier: peers may have run past `when`.
    SimTime eff = std::max(when, window_end_);
    partitions_[tl_partition]->global_requests.push_back(GlobalRequest{
        eff, tl_node, nodes_[tl_node]->global_req_seq++, std::move(fn)});
    return;
  }
  if (when < now_) when = now_;
  globals_.push_back(GlobalEvent{when, global_seq_++, std::move(fn)});
  std::push_heap(globals_.begin(), globals_.end(), GlobalLater{});
}

SimTime PdesScheduler::Now() const { return tl_have_now ? tl_now : now_; }

NodeId PdesScheduler::CurrentNode() const { return tl_node; }

void PdesScheduler::RefreshLookahead() {
  FRAGDB_CHECK(!running_phase_);
  if (lookahead_fn_) lookahead_ = lookahead_fn_(plan_);
}

void PdesScheduler::Post(NodeId from, NodeId to, SimTime arrival, EventFn fn) {
  FRAGDB_CHECK(to >= 0 && to < plan_.node_count());
  if (!running_phase_) {
    nodes_[to]->queue.Schedule(arrival, std::move(fn));
    return;
  }
  int pf = plan_.PartitionOf(from);
  int pt = plan_.PartitionOf(to);
  FRAGDB_CHECK(tl_partition == pf);  // posts originate at the sender
  Partition& part = *partitions_[pf];
  if (pf == pt && arrival < window_end_) {
    // Same-partition, same-window: deliver directly (the only legal way
    // an arrival can precede the window end — the lookahead bounds every
    // cross-partition latency).
    nodes_[to]->queue.Schedule(arrival, std::move(fn));
    if (tl_in_exec) {
      part.heap.emplace_back(arrival, to);
      std::push_heap(part.heap.begin(), part.heap.end(), LaterFirst{});
    }
    ++part.direct;
    return;
  }
  // Lookahead contract: a cross-partition message may not arrive inside
  // the window that sent it. A violation means the lookahead function
  // overstated the minimum latency — a programming error.
  FRAGDB_CHECK(arrival >= window_end_);
  part.out[pt].push_back(
      Envelope{arrival, from, to, nodes_[from]->send_seq++, std::move(fn)});
}

void PdesScheduler::RequestReassign(NodeId node, int partition) {
  FRAGDB_CHECK(node >= 0 && node < plan_.node_count());
  FRAGDB_CHECK(partition >= 0 && partition < plan_.partition_count());
  if (running_phase_) {
    FRAGDB_CHECK(tl_partition >= 0);
    partitions_[tl_partition]->reassign_requests.emplace_back(node, partition);
  } else {
    // Setup or a global event: every partition is parked, so the change
    // applies immediately instead of waiting for a barrier.
    plan_.ReassignNode(node, partition);
    ++stats_.reassignments;
    if (lookahead_fn_) lookahead_ = lookahead_fn_(plan_);
  }
}

SimTime PdesScheduler::GlobalNextTime() {
  SimTime next = kSimTimeMax;
  for (auto& n : nodes_) next = std::min(next, n->queue.NextTime());
  return next;
}

void PdesScheduler::ExecuteWindow(int p, SimTime window_end) {
  tl_partition = p;
  tl_in_exec = true;
  Partition& part = *partitions_[p];
  part.events = 0;
  part.direct = 0;
  part.max_time = 0;
  part.heap.clear();
  for (NodeId n : plan_.Members(p)) {
    SimTime t = nodes_[n]->queue.NextTime();
    if (t < window_end) part.heap.emplace_back(t, n);
  }
  std::make_heap(part.heap.begin(), part.heap.end(), LaterFirst{});
  while (!part.heap.empty()) {
    std::pop_heap(part.heap.begin(), part.heap.end(), LaterFirst{});
    auto [t, n] = part.heap.back();
    part.heap.pop_back();
    EventQueue& q = nodes_[n]->queue;
    if (q.NextTime() != t) continue;  // stale entry; a re-push covers n
    EventQueue::Fired fired = q.PopNext();
    tl_now = t;
    tl_have_now = true;
    tl_node = n;
    fired.fn();
    tl_node = kInvalidNode;
    tl_have_now = false;
    ++part.events;
    part.max_time = t;  // heap pops in nondecreasing time order
    SimTime nt = q.NextTime();
    if (nt < window_end) {
      part.heap.emplace_back(nt, n);
      std::push_heap(part.heap.begin(), part.heap.end(), LaterFirst{});
    }
  }
  tl_in_exec = false;
  tl_partition = -1;
}

void PdesScheduler::MergeInbound(int p) {
  tl_partition = p;
  Partition& part = *partitions_[p];
  auto& keys = part.merge_scratch;
  keys.clear();
  int pc = plan_.partition_count();
  for (int s = 0; s < pc; ++s) {
    std::vector<Envelope>& box = partitions_[s]->out[p];
    for (uint32_t i = 0; i < box.size(); ++i) {
      keys.push_back(MergeKey{box[i].arrival, box[i].from, box[i].seq,
                              static_cast<uint32_t>(s), i});
    }
  }
  // (arrival, from, seq) is a total order independent of the partition a
  // sender was executed by and of the thread that executed it.
  std::sort(keys.begin(), keys.end());
  for (const MergeKey& k : keys) {
    Envelope& e = partitions_[k.box]->out[p][k.idx];
    nodes_[e.to]->queue.Schedule(e.arrival, std::move(e.fn));
  }
  for (int s = 0; s < pc; ++s) partitions_[s]->out[p].clear();
  part.merged = keys.size();
  tl_partition = -1;
}

void PdesScheduler::ApplyReassignments() {
  // Gather per-partition request logs. Sorting by (node, source
  // partition, log index) makes "last request wins" deterministic even
  // when two partitions fight over one node in the same window.
  struct Req {
    NodeId node;
    int src;
    size_t idx;
    int target;
  };
  std::vector<Req> reqs;
  for (int p = 0; p < plan_.partition_count(); ++p) {
    auto& log = partitions_[p]->reassign_requests;
    for (size_t i = 0; i < log.size(); ++i) {
      reqs.push_back(Req{log[i].first, p, i, log[i].second});
    }
    log.clear();
  }
  if (reqs.empty()) return;
  std::sort(reqs.begin(), reqs.end(), [](const Req& a, const Req& b) {
    if (a.node != b.node) return a.node < b.node;
    if (a.src != b.src) return a.src < b.src;
    return a.idx < b.idx;
  });
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (i + 1 < reqs.size() && reqs[i + 1].node == reqs[i].node) continue;
    plan_.ReassignNode(reqs[i].node, reqs[i].target);
    ++stats_.reassignments;
  }
  if (lookahead_fn_) lookahead_ = lookahead_fn_(plan_);
}

void PdesScheduler::FlushGlobalRequests() {
  // (when, requesting node, per-node seq) is a total order independent of
  // the partition that buffered the request and the thread that ran it.
  struct Ref {
    SimTime when;
    NodeId node;
    uint64_t seq;
    int part;
    size_t idx;
    bool operator<(const Ref& o) const {
      if (when != o.when) return when < o.when;
      if (node != o.node) return node < o.node;
      return seq < o.seq;
    }
  };
  std::vector<Ref> refs;
  for (int p = 0; p < plan_.partition_count(); ++p) {
    auto& log = partitions_[p]->global_requests;
    for (size_t i = 0; i < log.size(); ++i) {
      refs.push_back(Ref{log[i].when, log[i].node, log[i].seq, p, i});
    }
  }
  if (refs.empty()) return;
  std::sort(refs.begin(), refs.end());
  for (const Ref& r : refs) {
    GlobalRequest& req = partitions_[r.part]->global_requests[r.idx];
    globals_.push_back(GlobalEvent{req.when, global_seq_++, std::move(req.fn)});
    std::push_heap(globals_.begin(), globals_.end(), GlobalLater{});
  }
  for (auto& part : partitions_) part->global_requests.clear();
}

void PdesScheduler::RunGlobalBatch(SimTime t) {
  now_ = t;
  tl_now = t;
  tl_have_now = true;
  // A global firing AtGlobal(t) (clamped to now_) joins this batch with a
  // higher seq, so the drain below also runs it.
  while (!globals_.empty() && globals_.front().when <= t) {
    std::pop_heap(globals_.begin(), globals_.end(), GlobalLater{});
    GlobalEvent ev = std::move(globals_.back());
    globals_.pop_back();
    ev.fn();
    ++stats_.global_events;
    ++stats_.events_executed;
  }
  tl_have_now = false;
  // Globals are where shared latency structure (topology, plan) may
  // change; the next window must use the new bound.
  if (lookahead_fn_) lookahead_ = lookahead_fn_(plan_);
}

void PdesScheduler::SerialStep() {
  // Zero-lookahead fallback: execute the single globally earliest event
  // — smallest (time, node, seq); per-node queues order by seq, the scan
  // below breaks time ties by node id.
  SimTime best = kSimTimeMax;
  NodeId who = kInvalidNode;
  for (NodeId n = 0; n < plan_.node_count(); ++n) {
    SimTime t = nodes_[n]->queue.NextTime();
    if (t < best) {
      best = t;
      who = n;
    }
  }
  if (who == kInvalidNode) return;
  running_phase_ = true;
  tl_partition = plan_.PartitionOf(who);
  window_end_ = best;  // every post (arrival >= best) rides a mailbox
  EventQueue::Fired fired = nodes_[who]->queue.PopNext();
  tl_now = best;
  tl_have_now = true;
  tl_node = who;
  fired.fn();
  tl_node = kInvalidNode;
  tl_have_now = false;
  tl_partition = -1;
  // Inline deterministic merge of everything the event posted.
  for (int p = 0; p < plan_.partition_count(); ++p) MergeInbound(p);
  running_phase_ = false;
  ++stats_.serial_steps;
  ++stats_.events_executed;
  now_ = best;
  FlushGlobalRequests();
  ApplyReassignments();
}

void PdesScheduler::ForEachPartition(const std::function<void(size_t)>& fn) {
  const size_t pc = static_cast<size_t>(plan_.partition_count());
  if (workers_.empty()) {
    for (size_t p = 0; p < pc; ++p) fn(p);
    return;
  }
  RunOnPool(pc, fn);
}

void PdesScheduler::ParallelFor(size_t n,
                                const std::function<void(size_t)>& fn) {
  FRAGDB_CHECK(!running_phase_);
  if (workers_.empty() || n < 2 || tl_in_task) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  RunOnPool(n, fn);
}

void PdesScheduler::RunOnPool(size_t n,
                              const std::function<void(size_t)>& fn) {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    phase_fn_ = &fn;
    phase_tasks_ = n;
    claim_.store(0, std::memory_order_relaxed);
    done_count_ = 0;
    ++phase_epoch_;
  }
  pool_cv_.notify_all();
  tl_in_task = true;
  while (true) {
    size_t i = claim_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    fn(i);
  }
  tl_in_task = false;
  std::unique_lock<std::mutex> lk(pool_mu_);
  done_cv_.wait(lk, [&] {
    return done_count_ == static_cast<int>(workers_.size());
  });
  phase_fn_ = nullptr;
}

void PdesScheduler::WorkerLoop() {
  uint64_t seen = 0;
  while (true) {
    const std::function<void(size_t)>* job = nullptr;
    size_t tasks = 0;
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_cv_.wait(lk, [&] { return shutdown_ || phase_epoch_ != seen; });
      if (shutdown_) return;
      seen = phase_epoch_;
      job = phase_fn_;
      tasks = phase_tasks_;
    }
    tl_in_task = true;
    while (true) {
      size_t i = claim_.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks) break;
      (*job)(i);
    }
    tl_in_task = false;
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      if (++done_count_ == static_cast<int>(workers_.size())) {
        done_cv_.notify_one();
      }
    }
  }
}

void PdesScheduler::Drive(SimTime deadline) {
  while (true) {
    SimTime next_node = GlobalNextTime();
    SimTime next_global = globals_.empty() ? kSimTimeMax : globals_[0].when;
    SimTime next = std::min(next_node, next_global);
    if (next == kSimTimeMax || next > deadline) break;
    if (next_global <= next_node) {
      // Globals run strictly before node events at the same time: they
      // are the only place shared state may change, and node events in
      // the following window observe the post-change world.
      RunGlobalBatch(next_global);
      continue;
    }
    if (lookahead_ <= 0) {
      SerialStep();
      continue;
    }
    SimTime we = SaturatingAdd(next_node, lookahead_);
    // A window may not run past the next global event (its shared-state
    // mutation must be visible to every later node event).
    if (we > next_global) we = next_global;
    if (deadline != kSimTimeMax && we > deadline) we = deadline + 1;
    window_end_ = we;
    running_phase_ = true;
    ForEachPartition(
        [this, we](size_t p) { ExecuteWindow(static_cast<int>(p), we); });
    ForEachPartition([this](size_t p) { MergeInbound(static_cast<int>(p)); });
    running_phase_ = false;
    SimTime executed_max = 0;
    for (auto& part : partitions_) {
      stats_.events_executed += part->events;
      stats_.direct_posts += part->direct;
      stats_.mailbox_envelopes += part->merged;
      executed_max = std::max(executed_max, part->max_time);
    }
    ++stats_.windows;
    SimTime advanced = we == kSimTimeMax ? std::max(now_, executed_max) : we;
    if (advanced > deadline) advanced = deadline;  // we may be deadline + 1
    now_ = advanced;
    FlushGlobalRequests();
    ApplyReassignments();
  }
  if (deadline != kSimTimeMax) now_ = std::max(now_, deadline);
}

void PdesScheduler::RunToQuiescence() { Drive(kSimTimeMax); }

void PdesScheduler::RunUntil(SimTime deadline) { Drive(deadline); }

}  // namespace fragdb

// E9 — micro-benchmarks of the machinery itself (google-benchmark):
// event queue, lock manager, message dispatch, serialization graph
// checking, and end-to-end transaction throughput in the simulator.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_harness.h"
#include "cc/lock_manager.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "core/messages.h"
#include "obs/availability.h"
#include "cc/scheduler.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "verify/checkers.h"
#include "verify/serialization_graph.h"

namespace {
/// Global operator new calls in this process, for the allocation counters
/// below (the replaced operators are defined after main's namespace).
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

// Kept out of line so the compiler never pairs an inlined new with an
// inlined free at a call site.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fragdb {
namespace {

// Shared CLI options (--threads / --seeds), parsed before google-benchmark
// sees argv. Benches that fan out instances read the thread count here.
fragdb_bench::BenchOptions g_opts;

/// Wall time since construction or the previous Lap, in seconds.
class Stopwatch {
 public:
  double Lap() {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    return s;
  }

 private:
  std::chrono::steady_clock::time_point last_ =
      std::chrono::steady_clock::now();
};

/// Reports each phase's summed seconds as ms per iteration.
void SetPhaseCounters(
    benchmark::State& state,
    std::initializer_list<std::pair<const char*, double>> phases) {
  for (const auto& [name, seconds] : phases) {
    state.counters[name] = benchmark::Counter(
        seconds * 1e3, benchmark::Counter::kAvgIterations);
  }
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.Schedule(static_cast<SimTime>(rng.NextBelow(1000000)), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.PopNext());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000);

void BM_EventQueueScheduleFireCancel(benchmark::State& state) {
  // Schedule n events, cancel every other one, fire the rest — the mixed
  // pattern protocol timeouts produce (most timers are cancelled).
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<EventId> ids;
  ids.reserve(n);
  for (auto _ : state) {
    EventQueue q;
    ids.clear();
    for (int i = 0; i < n; ++i) {
      ids.push_back(
          q.Schedule(static_cast<SimTime>(rng.NextBelow(1000000)), [] {}));
    }
    for (int i = 0; i < n; i += 2) q.Cancel(ids[i]);
    while (!q.empty()) benchmark::DoNotOptimize(q.PopNext());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleFireCancel)->Arg(1000)->Arg(10000);

void BM_EventQueueSteadyChurn(benchmark::State& state) {
  // Steady state of a live simulation: a queue holding `depth` pending
  // events, each fire scheduling a replacement. Slab reuse means zero
  // allocation per iteration once warm.
  const int depth = static_cast<int>(state.range(0));
  Rng rng(2);
  EventQueue q;
  SimTime now = 0;
  for (int i = 0; i < depth; ++i) {
    q.Schedule(static_cast<SimTime>(rng.NextBelow(1000)), [] {});
  }
  for (auto _ : state) {
    auto fired = q.PopNext();
    now = fired.time;
    q.Schedule(now + 1 + static_cast<SimTime>(rng.NextBelow(1000)), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyChurn)->Arg(64)->Arg(4096);

void BM_LockManagerSharedChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LockManager lm;
    for (TxnId t = 0; t < n; ++t) {
      lm.Acquire(t, t % 16, LockMode::kShared, [](Status) {});
    }
    for (TxnId t = 0; t < n; ++t) lm.ReleaseAll(t);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LockManagerSharedChurn)->Arg(1000);

void BM_LockManagerExclusiveConvoy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LockManager lm;
    int granted = 0;
    for (TxnId t = 0; t < n; ++t) {
      lm.Acquire(t, 1, LockMode::kExclusive,
                 [&granted](Status) { ++granted; });
    }
    for (TxnId t = 0; t < n; ++t) lm.ReleaseAll(t);
    benchmark::DoNotOptimize(granted);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LockManagerExclusiveConvoy)->Arg(1000);

void BM_GlobalSerializationGraphCheck(benchmark::State& state) {
  // Build a history of n committed transactions over 64 objects, then
  // time the graph build + cycle check. The history builds its lookup
  // tables on the first iteration and keeps them (nothing mutates it
  // afterwards), so this times the sorted-vector lookups and the graph's
  // sort-and-pack, not the one-pass table build (BM_HistoryCollapseAndAudit
  // times that, with the collapse and the other checks).
  const int n = static_cast<int>(state.range(0));
  History history;
  Rng rng(7);
  for (TxnId id = 1; id <= n; ++id) {
    TxnRecord rec;
    rec.id = id;
    rec.type_fragment = static_cast<FragmentId>(id % 8);
    rec.home = static_cast<NodeId>(id % 4);
    history.RegisterTxn(rec);
    history.MarkCommitted(id, id / 8 + 1);
    QuasiTxn q;
    q.origin_txn = id;
    q.fragment = rec.type_fragment;
    q.seq = id / 8 + 1;
    q.writes = {{static_cast<ObjectId>(rng.NextBelow(64)), id}};
    history.RecordInstall(rec.home, q, id);
    ReadRecord r;
    r.reader = id;
    r.object = static_cast<ObjectId>(rng.NextBelow(64));
    r.version_writer = kInvalidTxn;
    r.version_seq = 0;
    history.RecordRead(r);
  }
  for (auto _ : state) {
    TxnGraph g = BuildGlobalSerializationGraph(history);
    benchmark::DoNotOptimize(g.Acyclic());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GlobalSerializationGraphCheck)->Arg(200)->Arg(1000);

void BM_HistoryCollapseAndAudit(benchmark::State& state) {
  // A Paxos-shaped run on 16 nodes, one fragment homed at each: each of
  // n update transactions is registered at its home, reads the current
  // version of one of its fragment's objects there and writes another,
  // and every node installs it, marks it committed and records the
  // slot's decision in its own shard. Times recording, the shard
  // collapse and the history checks AuditRun makes (all of which pass),
  // and reports the collapse, the lookup tables' build and the checks
  // apart, in ms per iteration. The second argument is the worker count:
  // the three phases run as tasks on a PDES engine's pool, as at the end
  // of a Cluster run.
  const int n = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  constexpr int kNodes = 16;
  constexpr int kObjectsPerFragment = 64;
  SimEngine pool(PartitionPlan::Contiguous(workers, workers), nullptr,
                 PdesScheduler::Options{workers});
  const TaskRunner run{pool.task_threads(),
                       [&pool](size_t tasks,
                               const std::function<void(size_t)>& fn) {
                         pool.ParallelFor(tasks, fn);
                       }};
  double collapse_s = 0, lookups_s = 0, audit_s = 0;
  for (auto _ : state) {
    Rng rng(11);
    std::vector<History> shards(kNodes);
    std::vector<SeqNum> next_seq(kNodes, 1);
    // Current (writer, seq) of each object, by fragment * 64 + slot.
    std::vector<std::pair<TxnId, SeqNum>> current(
        kNodes * kObjectsPerFragment, {kInvalidTxn, 0});
    for (int i = 0; i < n; ++i) {
      const NodeId home = static_cast<NodeId>(rng.NextBelow(kNodes));
      const FragmentId fragment = home;
      const TxnId id = 1 + static_cast<TxnId>(i) * (kNodes + 1) + home;
      const SeqNum seq = next_seq[fragment]++;
      auto slot = [&] {
        return fragment * kObjectsPerFragment +
               static_cast<int>(rng.NextBelow(kObjectsPerFragment));
      };
      TxnRecord rec;
      rec.id = id;
      rec.agent = home;
      rec.type_fragment = fragment;
      rec.home = home;
      shards[home].RegisterTxn(rec);
      const int read = slot();
      shards[home].RecordRead({id, home, 1000 * read, current[read].first,
                               current[read].second, i});
      const int written = slot();
      current[written] = {id, seq};
      QuasiTxn q;
      q.origin_txn = id;
      q.fragment = fragment;
      q.seq = seq;
      q.origin_node = home;
      q.origin_time = i;
      q.writes = {{1000 * written, id}};
      for (NodeId node = 0; node < kNodes; ++node) {
        shards[node].RecordInstall(node, q, i + node);
        shards[node].MarkCommittedPartial(id, seq);
        shards[node].RecordDecision({node, fragment, seq, id, true, i + node});
      }
    }
    History history;
    Stopwatch watch;
    bool ok = history.AbsorbShards(shards, run) == kInvalidTxn;
    collapse_s += watch.Lap();
    history.PrepareLookups(run);
    lookups_s += watch.Lap();
    const HistoryAudit audit = AuditHistory(history, kNodes, run);
    ok = audit.global_serializability.ok && ok;
    for (FragmentId f = 0; f < kNodes; ++f) {
      ok = audit.property1[f].ok && audit.property2[f].ok && ok;
    }
    ok = audit.quorum_freshness.ok && audit.commit_atomicity.ok && ok;
    audit_s += watch.Lap();
    if (!ok) state.SkipWithError("audit failed");
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * n);
  SetPhaseCounters(state, {{"collapse_ms", collapse_s},
                           {"lookups_ms", lookups_s},
                           {"audit_ms", audit_s}});
}
BENCHMARK(BM_HistoryCollapseAndAudit)
    ->ArgNames({"txns", "workers"})
    ->ArgsProduct({{10000, 50000}, {1, 4}});

void BM_AvailabilityReport(benchmark::State& state) {
  // The paxos_flash shape: 16 nodes, one fragment homed at each, a 24 s
  // run of twelve 2 s periods, each with a 120 ms split of two nodes from
  // the rest, and 380k installs, about 340k of which land just past the
  // 15 ms staleness threshold, each a short retroactive stale window. Against
  // 24 fault windows (the twelve cluster-wide splits and twelve two-node
  // link faults), times Finalize, the interval check and the report, in
  // ms per iteration each; building the tracker is not timed.
  constexpr int kNodes = 16;
  constexpr int kPeriods = 12;
  constexpr int kInstalls = 380000;
  const SimTime horizon = Millis(2000) * kPeriods;
  const SimTime threshold = Millis(15);
  std::vector<NodeId> home(kNodes);
  for (NodeId n = 0; n < kNodes; ++n) home[n] = n;
  std::vector<FaultWindow> faults;
  for (int k = 0; k < kPeriods; ++k) {
    const SimTime t = Millis(2000) * k;
    const NodeId a = (2 * k) % kNodes;
    faults.push_back({"partition at=" + std::to_string(2000 * k + 20) +
                          "ms for=120ms groups=" + std::to_string(a) + "," +
                          std::to_string(a + 1) + "|rest",
                      t + Millis(20), t + Millis(140), {}});
    faults.push_back({"link at=" + std::to_string(2000 * k + 600) +
                          "ms for=50ms a=" + std::to_string(a) +
                          " b=" + std::to_string(a + 1),
                      t + Millis(600), t + Millis(650), {a, a + 1}});
  }
  double finalize_s = 0, check_s = 0, report_s = 0;
  size_t intervals = 0;
  for (auto _ : state) {
    state.PauseTiming();
    AvailabilityTracker tracker(kNodes, home, threshold);
    for (int k = 0; k < kPeriods; ++k) {
      const SimTime t = Millis(2000) * k;
      const NodeId a = (2 * k) % kNodes;
      for (const auto& [at, reachable] :
           {std::pair{t + Millis(20), false}, {t + Millis(140), true}}) {
        for (NodeId n = 0; n < kNodes; ++n) {
          for (FragmentId f = 0; f < kNodes; ++f) {
            const bool n_in = n == a || n == a + 1;
            const bool home_in = home[f] == a || home[f] == a + 1;
            if (n_in != home_in) tracker.SetHomeReachable(n, f, at, reachable);
          }
        }
      }
    }
    // Nine in ten lags land past the threshold, by up to 180 us.
    Rng rng(5);
    for (int i = 0; i < kInstalls; ++i) {
      const SimTime lag =
          threshold - Micros(20) + static_cast<SimTime>(rng.NextBelow(200));
      tracker.OnInstallLag(static_cast<NodeId>(i % kNodes),
                           static_cast<FragmentId>(rng.NextBelow(kNodes)),
                           1 + horizon * i / kInstalls, lag);
    }
    state.ResumeTiming();
    Stopwatch watch;
    tracker.Finalize(horizon);
    finalize_s += watch.Lap();
    const bool ok =
        CheckAvailabilityIntervals(tracker.intervals(), horizon).ok;
    check_s += watch.Lap();
    const AvailabilityReport report =
        BuildAvailabilityReport(tracker, faults, horizon);
    report_s += watch.Lap();
    if (!ok) state.SkipWithError("interval check failed");
    intervals = report.attributed.size();
    benchmark::DoNotOptimize(report.read_availability);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(intervals));
  SetPhaseCounters(state, {{"finalize_ms", finalize_s},
                           {"check_ms", check_s},
                           {"report_ms", report_s}});
}
BENCHMARK(BM_AvailabilityReport);

void BM_ClusterCommitThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    auto cluster = std::make_unique<Cluster>(
        config, Topology::FullMesh(4, Millis(1)));
    FragmentId f = cluster->DefineFragment("F");
    ObjectId x = *cluster->DefineObject(f, "x", 0);
    AgentId agent = cluster->DefineUserAgent("a");
    (void)cluster->AssignToken(f, agent);
    (void)cluster->SetAgentHome(agent, 0);
    (void)cluster->Start();
    state.ResumeTiming();

    int committed = 0;
    for (int i = 0; i < 200; ++i) {
      TxnSpec spec;
      spec.agent = agent;
      spec.write_fragment = f;
      spec.read_set = {x};
      spec.body = [x](const std::vector<Value>& reads)
          -> Result<std::vector<WriteOp>> {
        return std::vector<WriteOp>{{x, reads[0] + 1}};
      };
      cluster->Submit(spec, [&committed](const TxnResult& r) {
        if (r.status.ok()) ++committed;
      });
    }
    cluster->RunToQuiescence();
    benchmark::DoNotOptimize(committed);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_ClusterCommitThroughput);

void BM_CheckpointCommit(benchmark::State& state) {
  // One node's periodic checkpoint with `history` applied log entries
  // behind a fixed 64-entry delta: the timer's capture, then the commit
  // that writes the frame and truncates the WAL. Incremental checkpoints
  // keep this flat in the history length. Each iteration commits 64 more
  // updates untimed first, so the log grows by 4,096 entries over the 64
  // iterations.
  const int history = static_cast<int>(state.range(0));
  constexpr int kDelta = 64;
  ClusterConfig config;
  config.durability.enabled = true;
  config.durability.checkpoint_interval = Millis(10);
  Cluster cluster(config, Topology::FullMesh(1, Millis(1)));
  FragmentId f = cluster.DefineFragment("F");
  ObjectId x = *cluster.DefineObject(f, "x", 0);
  AgentId agent = cluster.DefineUserAgent("a");
  (void)cluster.AssignToken(f, agent);
  (void)cluster.SetAgentHome(agent, 0);
  (void)cluster.Start();
  auto submit = [&](int n) {
    for (int i = 0; i < n; ++i) {
      TxnSpec spec;
      spec.agent = agent;
      spec.write_fragment = f;
      spec.read_set = {x};
      spec.body = [x](const std::vector<Value>& reads)
          -> Result<std::vector<WriteOp>> {
        return std::vector<WriteOp>{{x, reads[0] + 1}};
      };
      cluster.Submit(spec, nullptr);
    }
  };
  // In batches: a lock queue of every update at once would cost more to
  // drain than the whole run.
  for (int done = 0; done < history; done += kDelta) {
    submit(std::min(kDelta, history - done));
    cluster.RunToQuiescence();
  }
  for (auto _ : state) {
    state.PauseTiming();
    // The delta commits in 6.4 ms; its first WAL append armed the 10 ms
    // checkpoint timer.
    submit(kDelta);
    cluster.RunFor(Millis(9));
    state.ResumeTiming();
    cluster.RunToQuiescence();
  }
  if (cluster.runtime(0).stream(f).log.size() !=
      static_cast<size_t>(history + kDelta * state.iterations())) {
    state.SkipWithError("updates did not all commit");
  }
}
BENCHMARK(BM_CheckpointCommit)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Iterations(64)
    ->Unit(benchmark::kMicrosecond);

/// Builds a 3-node cluster, runs `txns` increments at the home, and
/// returns the number of quasi-transaction installs across all replicas
/// (the paper's propagation fast path, end to end through network +
/// holdback + scheduler).
int RunQuasiInstallInstance(int txns, uint64_t seed) {
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  auto cluster =
      std::make_unique<Cluster>(config, Topology::FullMesh(3, Millis(1)));
  FragmentId f = cluster->DefineFragment("F");
  ObjectId x = *cluster->DefineObject(f, "x", static_cast<Value>(seed % 97));
  AgentId agent = cluster->DefineUserAgent("a");
  (void)cluster->AssignToken(f, agent);
  (void)cluster->SetAgentHome(agent, 0);
  (void)cluster->Start();
  for (int i = 0; i < txns; ++i) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = f;
    spec.read_set = {x};
    spec.body = [x](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{x, reads[0] + 1}};
    };
    cluster->Submit(spec, [](const TxnResult&) {});
  }
  cluster->RunToQuiescence();
  int installs = 0;
  for (NodeId n = 0; n < 3; ++n) {
    installs += static_cast<int>(cluster->runtime(n).stream(f).applied_seq);
  }
  return installs;
}

void BM_QuasiInstallThroughput(benchmark::State& state) {
  // End-to-end: home commit -> wire -> holdback -> in-order install at
  // every replica. Items = installs (3 replicas x txns). allocs_per_install
  // is every global operator new of the instance (setup, home commits,
  // sends and installs) divided by the installs.
  const int txns = static_cast<int>(state.range(0));
  int64_t installs = 0;
  const uint64_t allocs_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    installs += RunQuasiInstallInstance(txns, g_opts.SeedOr(1));
  }
  const uint64_t allocs =
      g_heap_allocations.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(installs);
  state.counters["allocs_per_install"] =
      installs > 0 ? static_cast<double>(allocs) / installs : 0.0;
}
BENCHMARK(BM_QuasiInstallThroughput)->Arg(500);

/// One default-built payload of every node-protocol message type.
std::vector<std::shared_ptr<const MessagePayload>> AllCorePayloads() {
  return {std::make_shared<QuasiTxnMsg>(),
          std::make_shared<ReadLockRequest>(),
          std::make_shared<ReadLockGrant>(),
          std::make_shared<ReadLockRelease>(),
          std::make_shared<QuasiPrepare>(),
          std::make_shared<QuasiAck>(),
          std::make_shared<QuasiCommit>(),
          std::make_shared<M0Msg>(),
          std::make_shared<ForwardMissing>(),
          std::make_shared<RecoveryQuery>(),
          std::make_shared<RecoveryReply>(),
          std::make_shared<QuorumReadRequest>(),
          std::make_shared<QuorumReadReply>(),
          std::make_shared<QuorumAppliedAck>(),
          std::make_shared<PaxosAccept>(),
          std::make_shared<PaxosAccepted>(),
          std::make_shared<PaxosOutcome>()};
}

void BM_HandleMessageDispatch(benchmark::State& state) {
  // The dispatch layer of NodeRuntime::HandleMessage alone: the tag switch
  // over a round-robin stream of all 17 payload types, each reaching a
  // per-type handler that only counts it. Items = messages dispatched.
  const std::vector<std::shared_ptr<const MessagePayload>> payloads =
      AllCorePayloads();
  std::array<uint64_t, kMsgTypeCount> handled{};
  auto count = [&handled](const auto& m) {
    ++handled[static_cast<int>(m.kType)];
  };
  int64_t messages = 0;
  for (auto _ : state) {
    for (const auto& p : payloads) {
      benchmark::DoNotOptimize(VisitCorePayload(*p, count));
    }
    messages += static_cast<int64_t>(payloads.size());
  }
  benchmark::DoNotOptimize(handled);
  state.SetItemsProcessed(messages);
}
BENCHMARK(BM_HandleMessageDispatch);

void BM_ParallelClusterInstances(benchmark::State& state) {
  // The bench harness running `instances` independent deterministic
  // simulations over --threads workers. Wall time should shrink with
  // threads on a multi-core host; results are aggregated in index order
  // so totals never depend on scheduling.
  const int instances = static_cast<int>(state.range(0));
  std::vector<uint64_t> seeds = g_opts.SeedsOr(1);
  int64_t installs = 0;
  for (auto _ : state) {
    std::vector<int> per_instance(instances);
    std::vector<std::function<void()>> jobs;
    jobs.reserve(instances);
    for (int i = 0; i < instances; ++i) {
      uint64_t seed = seeds[i % seeds.size()];
      jobs.push_back([&per_instance, i, seed] {
        per_instance[i] = RunQuasiInstallInstance(200, seed);
      });
    }
    fragdb_bench::RunJobs(jobs, g_opts.threads);
    for (int i = 0; i < instances; ++i) installs += per_instance[i];
  }
  state.SetItemsProcessed(installs);
}
BENCHMARK(BM_ParallelClusterInstances)->Arg(4);


void BM_TopologyPathLatency(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Topology topo = Topology::Ring(n, Millis(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.PathLatency(0, n / 2));
  }
}
BENCHMARK(BM_TopologyPathLatency)->Arg(8)->Arg(32);

// One home-side update through the scheduler's single path: lock, exec,
// body, seq, the commit's shared quasi record, apply, release.
// allocs_per_txn counts every global operator new of the loop.
void BM_SchedulerPrepareCommit(benchmark::State& state) {
  Catalog catalog;
  FragmentId f = catalog.AddFragment("F");
  ObjectId x = *catalog.AddObject(f, "x", 0);
  SimEngine engine(1);
  ObjectStore store(&catalog);
  LockManager locks;
  Scheduler sched(0, &engine, &store, &locks, Scheduler::Config{}, {});
  TxnSpec spec;
  spec.agent = 0;
  spec.write_fragment = f;
  spec.read_set = {x};
  spec.body = [x](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{x, reads[0] + 1}};
  };
  TxnId id = 1;
  SeqNum seq = 0;
  const uint64_t allocs_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const TxnId txn = id++;
    sched.Prepare(txn, spec, false, [&sched, &seq, txn, f](TxnResult r) {
      auto quasi = std::make_shared<QuasiTxn>();
      quasi->origin_txn = txn;
      quasi->fragment = f;
      quasi->seq = ++seq;
      quasi->writes = std::move(r.writes);
      sched.CommitPrepared(*quasi, /*release_locks=*/true);
    });
    engine.RunToQuiescence();
  }
  const uint64_t allocs =
      g_heap_allocations.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_txn"] =
      static_cast<double>(allocs) / std::max<int64_t>(state.iterations(), 1);
}
BENCHMARK(BM_SchedulerPrepareCommit);

void BM_RngZipf(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextZipf(1000, 0.9));
  }
}
BENCHMARK(BM_RngZipf);

/// Console output plus one BENCH_JSON line per benchmark run, so CI can
/// grep structured results without parsing the human-readable table.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      char json[512];
      std::snprintf(
          json, sizeof(json),
          "{\"bench\":\"micro\",\"name\":\"%s\","
          "\"real_ns\":%.1f,\"cpu_ns\":%.1f,\"iterations\":%lld,"
          "\"items_per_second\":%.1f",
          run.benchmark_name().c_str(), run.GetAdjustedRealTime(),
          run.GetAdjustedCPUTime(), (long long)run.iterations,
          run.counters.find("items_per_second") != run.counters.end()
              ? (double)run.counters.at("items_per_second")
              : 0.0);
      std::string line = json;
      for (const char* counter : {"allocs_per_install", "allocs_per_txn"}) {
        auto allocs = run.counters.find(counter);
        if (allocs == run.counters.end()) continue;
        std::snprintf(json, sizeof(json), ",\"%s\":%.1f", counter,
                      (double)allocs->second);
        line += json;
      }
      for (const char* counter :
           {"collapse_ms", "lookups_ms", "audit_ms", "finalize_ms",
            "check_ms", "report_ms"}) {
        auto phase = run.counters.find(counter);
        if (phase == run.counters.end()) continue;
        std::snprintf(json, sizeof(json), ",\"%s\":%.3f", counter,
                      (double)phase->second);
        line += json;
      }
      fragdb_bench::PrintJsonLine(line + "}");
    }
  }
};

}  // namespace
}  // namespace fragdb

int main(int argc, char** argv) {
  // Strip --threads/--seeds before google-benchmark rejects them.
  fragdb::g_opts = fragdb_bench::ParseBenchOptions(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  fragdb::JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

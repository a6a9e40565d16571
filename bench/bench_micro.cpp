// E9 — micro-benchmarks of the machinery itself (google-benchmark):
// event queue, lock manager, serialization graph checking, and end-to-end
// transaction throughput in the simulator.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_harness.h"
#include "cc/lock_manager.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "cc/scheduler.h"
#include "sim/event_queue.h"
#include "verify/serialization_graph.h"

namespace fragdb {
namespace {

// Shared CLI options (--threads / --seeds), parsed before google-benchmark
// sees argv. Benches that fan out instances read the thread count here.
fragdb_bench::BenchOptions g_opts;

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
  // time the graph build + cycle check.
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
  // every replica. Items = installs (3 replicas x txns).
  const int txns = static_cast<int>(state.range(0));
  int64_t installs = 0;
  for (auto _ : state) {
    installs += RunQuasiInstallInstance(txns, g_opts.SeedOr(1));
  }
  state.SetItemsProcessed(installs);
}
BENCHMARK(BM_QuasiInstallThroughput)->Arg(500);

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

void BM_SchedulerRunLocal(benchmark::State& state) {
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
  for (auto _ : state) {
    sched.RunLocal(id++, spec, false, [&seq] { return ++seq; },
                   [](TxnResult) {});
    engine.RunToQuiescence();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerRunLocal);

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
          "\"items_per_second\":%.1f}",
          run.benchmark_name().c_str(), run.GetAdjustedRealTime(),
          run.GetAdjustedCPUTime(), (long long)run.iterations,
          run.counters.find("items_per_second") != run.counters.end()
              ? (double)run.counters.at("items_per_second")
              : 0.0);
      fragdb_bench::PrintJsonLine(json);
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

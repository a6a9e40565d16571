// E12 (scaling) — how the fragments-and-agents design scales with cluster
// size, in two regimes.
//
// Legacy mode: the full-protocol Cluster vs the mutual-exclusion
// baseline at small n. The propagation cost of a commit is one message
// per remote replica (linear in n); commit latency at the home node is
// CONSTANT in n — the paper's availability story is also a latency
// story: an agent never waits for anyone to update its own fragment.
//
// PDES mode: the full Cluster protocol stack on the parallel scheduler,
// at up to 1,000 nodes with 3-replica sets — the partial-replication
// regime (see docs/PERFORMANCE.md for the recipe). Fragment i is homed at
// node i, each node replays its own op stream, and two crash-stop windows
// (one reassigning the revived node's partition) run under load; every
// run must end with each replica set converged. Output is split on
// purpose:
//   * "pdes" BENCH_JSON lines carry only simulation-determined fields —
//     byte-identical at any --sim_threads, which CI enforces by diffing.
//   * "pdes_wall" lines carry wall clock and speedup, the only fields a
//     thread count may legitimately change.
// With --sim_threads > 1 the driver also re-runs each config serially
// in-process and aborts on any mismatch in the replica-state fingerprint,
// end time or event count, so a determinism regression cannot produce a
// plausible-looking table.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "baselines/mutual_exclusion.h"
#include "bench_harness.h"
#include "common/logging.h"
#include "core/cluster.h"
#include "verify/checkers.h"
#include "workload/metrics.h"
#include "workload/opstream.h"

using namespace fragdb;
using namespace fragdb_bench;

namespace {

double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// --- Legacy mode (unchanged experiment) -----------------------------------

struct RowResult {
  double frag_commit_ms = 0;   // mean commit latency, fragments+agents
  double frag_msgs = 0;        // messages per commit
  double mutex_commit_ms = 0;  // mean commit latency, mutual exclusion
  double mutex_msgs = 0;
  double wall_ms = 0;          // host wall-clock for this instance
};

RowResult RunOnce(int nodes) {
  RowResult row;
  const int kTxnsPerNode = 30;
  {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    Cluster cluster(config, Topology::FullMesh(nodes, Millis(5)));
    std::vector<ObjectId> objs;
    std::vector<AgentId> agents;
    std::vector<FragmentId> frags;
    for (int i = 0; i < nodes; ++i) {
      FragmentId f = cluster.DefineFragment("F" + std::to_string(i));
      frags.push_back(f);
      objs.push_back(*cluster.DefineObject(f, "o" + std::to_string(i), 0));
      AgentId a = cluster.DefineUserAgent("a" + std::to_string(i));
      agents.push_back(a);
      if (!cluster.AssignToken(f, a).ok()) std::abort();
      if (!cluster.SetAgentHome(a, i).ok()) std::abort();
    }
    if (!cluster.Start().ok()) std::abort();
    WorkloadMetrics metrics;
    for (int k = 0; k < kTxnsPerNode; ++k) {
      for (int i = 0; i < nodes; ++i) {
        TxnSpec spec;
        spec.agent = agents[i];
        spec.write_fragment = frags[i];
        ObjectId obj = objs[i];
        spec.read_set = {obj};
        spec.body = [obj](const std::vector<Value>& reads)
            -> Result<std::vector<WriteOp>> {
          return std::vector<WriteOp>{{obj, reads[0] + 1}};
        };
        SimTime at = cluster.Now();
        cluster.Submit(spec, [&metrics, at](const TxnResult& r) {
          metrics.Record(r, at);
        });
      }
      cluster.RunFor(Millis(5));
    }
    cluster.RunToQuiescence();
    if (!CheckMutualConsistency(cluster.Replicas()).ok) std::abort();
    row.frag_commit_ms = metrics.MeanCommitLatency() / 1000.0;
    row.frag_msgs = double(cluster.net_stats().messages_sent) /
                    double(metrics.committed);
  }
  {
    Catalog catalog;
    FragmentId f = catalog.AddFragment("ALL");
    std::vector<ObjectId> objs;
    for (int i = 0; i < nodes; ++i) {
      objs.push_back(*catalog.AddObject(f, "o" + std::to_string(i), 0));
    }
    MutualExclusionEngine eng(&catalog,
                              Topology::FullMesh(nodes, Millis(5)));
    WorkloadMetrics metrics;
    for (int k = 0; k < kTxnsPerNode; ++k) {
      for (NodeId i = 0; i < nodes; ++i) {
        TxnSpec spec;
        ObjectId obj = objs[i];
        spec.read_set = {obj};
        spec.body = [obj](const std::vector<Value>& reads)
            -> Result<std::vector<WriteOp>> {
          return std::vector<WriteOp>{{obj, reads[0] + 1}};
        };
        SimTime at = eng.Now();
        eng.Submit(i, spec, [&metrics, at](const TxnResult& r) {
          metrics.Record(r, at);
        });
      }
      eng.RunFor(Millis(5));
    }
    eng.RunToQuiescence();
    if (!CheckMutualConsistency(eng.Replicas()).ok) std::abort();
    row.mutex_commit_ms = metrics.MeanCommitLatency() / 1000.0;
    row.mutex_msgs = double(eng.net_stats().messages_sent) /
                     double(metrics.committed);
  }
  return row;
}

void RunLegacy(const BenchOptions& opts, const std::vector<int>& node_counts,
               const std::vector<uint64_t>& seeds) {
  std::printf(
      "E12 (scaling) — cluster size vs commit latency and message cost\n"
      "per-site updates to own data, healthy network, 5ms links\n"
      "threads=%d seeds=%zu\n\n",
      opts.threads, seeds.size());

  // One simulation instance per (nodes, seed), run across the harness;
  // results come back in configuration order, so output is identical for
  // any thread count.
  struct Job {
    int nodes;
    uint64_t seed;
  };
  std::vector<Job> jobs;
  for (int nodes : node_counts) {
    for (uint64_t seed : seeds) jobs.push_back({nodes, seed});
  }
  auto start = std::chrono::steady_clock::now();
  std::vector<RowResult> results = RunIndexed<Job, RowResult>(
      jobs,
      [](const Job& job) {
        auto t0 = std::chrono::steady_clock::now();
        RowResult row = RunOnce(job.nodes);
        row.wall_ms = WallSince(t0);
        return row;
      },
      opts.threads);
  double total_ms = WallSince(start);

  std::vector<int> widths = {10, 20, 16, 20, 16, 12};
  PrintRow({"nodes", "f+a commit (ms)", "f+a msgs", "mutex commit (ms)",
            "mutex msgs", "wall (ms)"},
           widths);
  PrintRule(widths);
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].seed != seeds.front()) continue;  // table: one row per size
    const RowResult& row = results[i];
    PrintRow({Int(jobs[i].nodes), Num(row.frag_commit_ms, 2),
              Num(row.frag_msgs, 1), Num(row.mutex_commit_ms, 2),
              Num(row.mutex_msgs, 1), Num(row.wall_ms, 1)},
             widths);
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    const RowResult& row = results[i];
    char json[256];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"scaling\",\"nodes\":%d,\"seed\":%llu,"
        "\"threads\":%d,\"frag_commit_ms\":%.3f,\"frag_msgs\":%.2f,"
        "\"mutex_commit_ms\":%.3f,\"mutex_msgs\":%.2f,\"wall_ms\":%.1f}",
        jobs[i].nodes, (unsigned long long)jobs[i].seed, opts.threads,
        row.frag_commit_ms, row.frag_msgs, row.mutex_commit_ms, row.mutex_msgs,
        row.wall_ms);
    PrintJsonLine(json);
  }
  {
    char json[128];
    std::snprintf(json, sizeof(json),
                  "{\"bench\":\"scaling_total\",\"threads\":%d,"
                  "\"instances\":%zu,\"wall_ms\":%.1f}",
                  opts.threads, jobs.size(), total_ms);
    PrintJsonLine(json);
  }
  std::printf(
      "\nexpected shape: fragments+agents commit latency is flat in n\n"
      "(the agent commits locally; propagation is asynchronous) while its\n"
      "message cost grows linearly (n-1 replicas). Mutual exclusion's\n"
      "commit latency includes the sequencer round trip and its sequencer\n"
      "serializes everyone, so latency grows with contention.\n");
}

// --- PDES mode ------------------------------------------------------------

struct PdesConfig {
  int nodes = 0;
  uint64_t clients = 0;
  uint64_t ops_per_client = 0;
  int replication = 3;  // 0 = full replication
  int partitions = 0;   // 0 = min(nodes, 16)
  uint64_t seed = 1;
  SimTime mean_interarrival = Millis(3);
  bool faults = true;
};

struct PdesReport {
  uint64_t committed = 0;
  uint64_t unavailable = 0;  // ops submitted at a crashed node
  int partitions = 0;
  NetworkStats net;
  SimTime end_time = 0;
  bool consistent = false;
  uint64_t fingerprint = 0;  // replica state, folded in node order
  PdesScheduler::Stats sched;
  double setup_ms = 0;     // constructor through Start, wall clock
  double fault_ms_max = 0; // slowest crash/revive global, wall clock
};

PdesReport RunPdesOnce(const PdesConfig& config, int sim_threads) {
  const int n = config.nodes;
  PdesReport report;
  report.partitions =
      config.partitions > 0 ? config.partitions : std::min(n, 16);
  auto t0 = std::chrono::steady_clock::now();
  ClusterConfig cluster_config;
  cluster_config.control = ControlOption::kFragmentwise;
  cluster_config.engine.threads = sim_threads;
  cluster_config.engine.partitions = report.partitions;
  Cluster cluster(cluster_config, Topology::FullMesh(n, Millis(5)));
  // Fragment i is homed at node i and replicated at {i, ..., i+r-1 mod n};
  // held[node] lists the fragments a node replicates, for the fingerprint.
  const int replicas = config.replication > 0 ? config.replication : n;
  std::vector<ObjectId> objects;
  std::vector<AgentId> agents;
  std::vector<std::vector<FragmentId>> held(n);
  for (NodeId i = 0; i < n; ++i) {
    FragmentId f = cluster.DefineFragment("F" + std::to_string(i));
    objects.push_back(*cluster.DefineObject(f, "o" + std::to_string(i), 0));
    agents.push_back(cluster.DefineUserAgent("a" + std::to_string(i)));
    if (!cluster.AssignToken(f, agents.back()).ok()) std::abort();
    if (!cluster.SetAgentHome(agents.back(), i).ok()) std::abort();
    std::vector<NodeId> members;
    for (int k = 0; k < replicas; ++k) {
      members.push_back((i + k) % n);
      held[members.back()].push_back(f);
    }
    if (!cluster.SetReplicaSet(f, std::move(members)).ok()) std::abort();
  }
  if (!cluster.Start().ok()) std::abort();
  report.setup_ms = WallSince(t0);

  // Each node replays its own deterministic op stream: one pending arrival
  // per node, each scheduling the next, so generation rides the partition
  // workers and the queue never holds the whole stream.
  OpStreamOptions workload;
  workload.seed = config.seed;
  workload.nodes = n;
  workload.clients = config.clients;
  workload.ops_per_client = config.ops_per_client;
  workload.mean_interarrival = config.mean_interarrival;
  std::vector<OpSource> sources;
  sources.reserve(n);
  for (NodeId i = 0; i < n; ++i) sources.emplace_back(workload, i);
  // Per-node tallies: a node's submissions finish on that node.
  std::vector<uint64_t> committed(n, 0), unavailable(n, 0);
  SimEngine* engine = cluster.engine();
  std::function<void(NodeId)> chain = [&](NodeId node) {
    GeneratedOp op;
    if (!sources[node].Next(&op)) return;
    engine->AtNode(node, op.at, [&, node, delta = op.delta] {
      TxnSpec spec;
      spec.agent = agents[node];
      spec.write_fragment = node;
      ObjectId obj = objects[node];
      spec.read_set = {obj};
      spec.body = [obj, delta](const std::vector<Value>& reads)
          -> Result<std::vector<WriteOp>> {
        return std::vector<WriteOp>{{obj, reads[0] + delta}};
      };
      cluster.Submit(spec, [&, node](const TxnResult& r) {
        ++(r.status.ok() ? committed : unavailable)[node];
      });
      chain(node);
    });
  };
  for (NodeId i = 0; i < n; ++i) chain(i);

  // Fixed fault plan: two crash-stop windows; the first revive also moves
  // the node to the next partition, a mid-run plan change under load. Each
  // crash and revive refreshes every routing row, so each is timed.
  PdesScheduler* sched = cluster.pdes_scheduler();
  auto timed = [&report](const std::function<Status()>& fault) {
    auto t = std::chrono::steady_clock::now();
    if (!fault().ok()) std::abort();
    report.fault_ms_max = std::max(report.fault_ms_max, WallSince(t));
  };
  auto crash = [&](NodeId node, SimTime at, SimTime revive_at,
                   bool reassign) {
    engine->AtGlobal(at, [&, node] {
      timed([&] { return cluster.CrashNode(node, CrashMode::kCrashStop); });
    });
    engine->AtGlobal(revive_at, [&, node, reassign] {
      timed([&] { return cluster.ReviveNode(node); });
      if (!reassign) return;
      const PartitionPlan& plan = sched->plan();
      sched->RequestReassign(
          node, (plan.PartitionOf(node) + 1) % plan.partition_count());
    });
  };
  if (config.faults && n >= 4) {
    crash(1, Millis(20), Millis(80), /*reassign=*/true);
    crash(n / 2, Millis(50), Millis(110), /*reassign=*/false);
  }
  cluster.RunToQuiescence();

  report.end_time = cluster.Now();
  report.sched = sched->stats();
  report.net = cluster.net_stats();
  report.consistent = cluster.CheckReplicaSetConsistency().ok;
  uint64_t hash = kOpHashSeed;
  for (NodeId node = 0; node < n; ++node) {
    report.committed += committed[node];
    report.unavailable += unavailable[node];
    hash = FoldU64(hash, static_cast<uint64_t>(node));
    for (FragmentId f : held[node]) {
      hash = FoldU64(hash, static_cast<uint64_t>(f));
      hash = FoldU64(hash,
                     static_cast<uint64_t>(cluster.ReadAt(node, objects[f])));
      hash = FoldU64(hash, static_cast<uint64_t>(
                               cluster.runtime(node).stream(f).applied_seq));
    }
  }
  report.fingerprint = hash;
  return report;
}

void RunPdes(const BenchOptions& opts, const std::vector<PdesConfig>& configs,
             bool verify_serial) {
  std::printf(
      "\nPDES scaling — the full Cluster on the parallel scheduler\n"
      "sim_threads=%d verify_serial=%d (5ms mesh, fragmentwise)\n\n",
      opts.sim_threads, verify_serial ? 1 : 0);
  std::vector<int> widths = {8, 12, 12, 12, 10, 12, 10, 12, 12};
  PrintRow({"nodes", "clients", "commits", "events", "windows", "mailbox",
            "speedup", "wall (ms)", "consistent"},
           widths);
  PrintRule(widths);

  for (const PdesConfig& config : configs) {
    auto t0 = std::chrono::steady_clock::now();
    PdesReport report = RunPdesOnce(config, opts.sim_threads);
    double wall_ms = WallSince(t0);
    FRAGDB_CHECK(report.consistent);

    double serial_wall_ms = 0;
    double speedup = 1.0;
    if (opts.sim_threads != 1 && verify_serial) {
      auto t1 = std::chrono::steady_clock::now();
      PdesReport serial = RunPdesOnce(config, 1);
      serial_wall_ms = WallSince(t1);
      // The whole point: a parallel run must be indistinguishable from
      // the serial one. Abort, don't footnote.
      FRAGDB_CHECK(serial.fingerprint == report.fingerprint);
      FRAGDB_CHECK(serial.end_time == report.end_time);
      FRAGDB_CHECK(serial.sched.events_executed ==
                   report.sched.events_executed);
      speedup = wall_ms > 0 ? serial_wall_ms / wall_ms : 1.0;
    }

    PrintRow({Int(config.nodes), Int((long long)config.clients),
              Int((long long)report.committed),
              Int((long long)report.sched.events_executed),
              Int((long long)report.sched.windows),
              Int((long long)report.sched.mailbox_envelopes),
              serial_wall_ms > 0 ? Num(speedup, 2) : "-", Num(wall_ms, 1),
              report.consistent ? "yes" : "NO"},
             widths);

    // Deterministic line: nothing here may depend on --sim_threads.
    char json[640];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"pdes\",\"nodes\":%d,\"partitions\":%d,"
        "\"replication\":%d,\"seed\":%llu,\"clients\":%llu,"
        "\"committed\":%llu,\"unavailable\":%llu,\"messages\":%llu,"
        "\"queued\":%llu,\"end_time_us\":%lld,"
        "\"events\":%llu,\"windows\":%llu,\"serial_steps\":%llu,"
        "\"mailbox\":%llu,\"direct\":%llu,\"reassign\":%llu,"
        "\"global_events\":%llu,"
        "\"fingerprint\":\"%016llx\",\"consistent\":%s}",
        config.nodes, report.partitions, config.replication,
        (unsigned long long)config.seed, (unsigned long long)config.clients,
        (unsigned long long)report.committed,
        (unsigned long long)report.unavailable,
        (unsigned long long)report.net.messages_sent,
        (unsigned long long)report.net.messages_queued,
        (long long)report.end_time,
        (unsigned long long)report.sched.events_executed,
        (unsigned long long)report.sched.windows,
        (unsigned long long)report.sched.serial_steps,
        (unsigned long long)report.sched.mailbox_envelopes,
        (unsigned long long)report.sched.direct_posts,
        (unsigned long long)report.sched.reassignments,
        (unsigned long long)report.sched.global_events,
        (unsigned long long)report.fingerprint,
        report.consistent ? "true" : "false");
    PrintJsonLine(json);

    // Wall-clock line: the only place sim_threads and timing may appear.
    char wall_json[320];
    std::snprintf(
        wall_json, sizeof(wall_json),
        "{\"bench\":\"pdes_wall\",\"nodes\":%d,\"sim_threads\":%d,"
        "\"wall_ms\":%.1f,\"setup_wall_ms\":%.1f,"
        "\"fault_wall_ms_max\":%.1f,\"serial_wall_ms\":%.1f,"
        "\"speedup\":%.2f}",
        config.nodes, opts.sim_threads, wall_ms, report.setup_ms,
        report.fault_ms_max, serial_wall_ms, speedup);
    PrintJsonLine(wall_json);
  }
}

uint64_t ExtraU64(const BenchOptions& opts, const char* key,
                  uint64_t fallback) {
  std::string v = opts.ExtraOr(key, "");
  return v.empty() ? fallback : std::strtoull(v.c_str(), nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchOptions(&argc, argv);
  // The workloads are deterministic; --seeds replicates identical
  // instances (extra parallel work for the harness, identical tables).
  std::vector<uint64_t> seeds = opts.SeedsOr(1);
  std::vector<int> legacy_nodes = {3, 5, 9, 17, 33};
  std::vector<int> pdes_nodes = {16, 64, 256};
  std::string nodes_flag = opts.ExtraOr("nodes", "");
  if (!nodes_flag.empty()) {
    int n = std::atoi(nodes_flag.c_str());
    legacy_nodes = {n};
    pdes_nodes = {n};
  }
  std::string mode = opts.ExtraOr("mode", "both");

  if (mode == "legacy" || mode == "both") RunLegacy(opts, legacy_nodes, seeds);

  if (mode == "pdes" || mode == "both") {
    std::vector<PdesConfig> configs;
    for (int nodes : pdes_nodes) {
      PdesConfig config;
      config.nodes = nodes;
      // Default sizing keeps the smoke runs quick; override for the big
      // runs (docs/PERFORMANCE.md has the 1,000-node recipe).
      config.clients = ExtraU64(opts, "clients",
                                static_cast<uint64_t>(nodes) * 16);
      config.ops_per_client = ExtraU64(opts, "ops_per_client", 50);
      config.replication =
          static_cast<int>(ExtraU64(opts, "replication", 3));
      config.mean_interarrival = static_cast<SimTime>(
          ExtraU64(opts, "mean_us", static_cast<uint64_t>(Millis(3))));
      config.partitions = opts.sim_partitions;
      config.seed = seeds.front();
      config.faults = ExtraU64(opts, "faults", 1) != 0;
      configs.push_back(config);
    }
    RunPdes(opts, configs, ExtraU64(opts, "verify_serial", 1) != 0);
  }
  return 0;
}

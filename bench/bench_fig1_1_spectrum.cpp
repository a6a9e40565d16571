// E1 — Figure 1.1: the correctness/availability spectrum.
//
// Every strategy runs the same shape of workload on 6 nodes: each site
// issues updates to its own data and reads one other site's data, under
// an identical randomized partition schedule. The paper's claim: moving
// right along the spectrum, availability rises while the correctness
// criterion weakens.
//
//   mutual exclusion  ->  §4.1  ->  §4.2  ->  §4.3  ->  §4.4.3  ->
//   free-for-all (log transformation / optimistic)

#include <cstdio>
#include <memory>

#include "bench_harness.h"

#include "baselines/log_transform.h"
#include "baselines/mutual_exclusion.h"
#include "baselines/optimistic.h"
#include "common/rng.h"
#include "verify/checkers.h"
#include "workload/synthetic.h"

using namespace fragdb;
using namespace fragdb_bench;

namespace {

constexpr int kNodes = 6;
constexpr uint64_t kDefaultSeed = 42;
constexpr SimTime kDuration = Seconds(2);
constexpr SimTime kMeanUp = Millis(250);
constexpr SimTime kMeanDown = Millis(250);

struct RowResult {
  std::string name;
  std::string guarantee;
  uint64_t submitted = 0;
  uint64_t served = 0;
  bool guarantee_holds = false;
  double msgs_per_served = 0;
  // Harness jobs must not interleave stdout; JSON lines are carried back
  // and printed by the main thread in configuration order.
  std::string json;
};

/// Quorum/read-mix knobs for the rows that need them (zeros elsewhere).
struct QuorumKnobs {
  int read_quorum = 0;
  int write_quorum = 0;
  double read_only_fraction = 0.0;
};

SyntheticOptions ClusterOptions(ControlOption control, MoveProtocol move,
                                uint64_t seed, const QuorumKnobs& q) {
  SyntheticOptions opt;
  opt.nodes = kNodes;
  opt.objects_per_fragment = 3;
  // Under a third of the updates read a foreign fragment; the rest are purely
  // local (the paper's premise: most users mostly touch their own data).
  opt.read_fan = 0.3;
  opt.mean_interarrival = Millis(10);
  opt.duration = kDuration;
  opt.mean_up_time = kMeanUp;
  opt.mean_partition_time = kMeanDown;
  opt.seed = seed;
  opt.control = control;
  opt.move_protocol = move;
  opt.read_quorum = q.read_quorum;
  opt.write_quorum = q.write_quorum;
  opt.read_only_fraction = q.read_only_fraction;
  return opt;
}

RowResult RunCluster(const std::string& name, const std::string& guarantee,
                     uint64_t seed, ControlOption control,
                     MoveProtocol move = MoveProtocol::kForbidden,
                     bool with_moves = false, QuorumKnobs quorum = {}) {
  SyntheticWorkload workload(ClusterOptions(control, move, seed, quorum));
  Status st = workload.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed to start: %s\n", name.c_str(),
                 st.ToString().c_str());
    return {};
  }
  if (with_moves) {
    Rng rng(seed * 31);
    Cluster& cluster = workload.cluster();
    for (int i = 0; i < 6; ++i) {
      SimTime when = Millis(200) * (i + 1);
      AgentId agent = static_cast<AgentId>(rng.NextBelow(kNodes));
      NodeId to = static_cast<NodeId>(rng.NextBelow(kNodes));
      cluster.engine()->AtGlobal(when, [&cluster, agent, to] {
        (void)cluster.MoveAgent(agent, to, nullptr);
      });
    }
  }
  SyntheticReport report = workload.Run();
  RowResult row;
  row.json = report.metrics.ToJson(name);
  row.name = name;
  row.guarantee = guarantee;
  row.submitted = report.metrics.submitted;
  row.served = report.metrics.served();
  bool base_ok = report.mutually_consistent;
  // commit_atomic defaults true; under kPaxosCommit it additionally
  // demands agreeing decisions and no commit left blocked.
  row.guarantee_holds = base_ok && report.property_ok && report.commit_atomic;
  row.msgs_per_served =
      row.served ? double(report.net.messages_sent) / double(row.served) : 0;
  return row;
}

void MaybeMerge(MutualExclusionEngine&) {}
void MaybeMerge(LogTransformEngine&) {}
void MaybeMerge(OptimisticEngine& engine) { (void)engine.Merge(); }

/// The same workload pattern driven against a baseline engine.
template <typename Engine>
RowResult RunBaseline(const std::string& name, const std::string& guarantee,
                      uint64_t seed, Engine& engine, const Catalog& catalog,
                      bool merge_on_heal) {
  Rng rng(seed);
  Rng part_rng(seed + 99);
  uint64_t submitted = 0, served = 0;

  // Same arrival structure as the synthetic cluster workload: per node,
  // increment transactions on the node's own object reading one other
  // object.
  auto submit_one = [&engine, &catalog, &rng, &submitted,
                     &served](NodeId node) {
    ObjectId own = node;
    ObjectId other = static_cast<ObjectId>(
        rng.NextBelow(static_cast<uint64_t>(catalog.object_count())));
    TxnSpec spec;
    spec.read_set = {own, other};
    spec.body = [own](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{own, reads[0] + reads[1] + 1}};
    };
    ++submitted;
    engine.Submit(node, spec, [&served](const TxnResult& r) {
      if (r.status.ok() || r.status.IsFailedPrecondition()) ++served;
    });
  };

  // Drive time manually: arrivals every mean_interarrival per node;
  // partition flips per the same mean up/down times.
  SimTime now = 0;
  SimTime next_flip = kMeanUp;
  bool partitioned = false;
  while (now < kDuration) {
    for (NodeId n = 0; n < kNodes; ++n) {
      submit_one(n);
    }
    engine.RunFor(Millis(10));
    now += Millis(10);
    if (now >= next_flip) {
      if (!partitioned) {
        std::vector<NodeId> left, right;
        for (NodeId n = 0; n < kNodes; ++n) {
          (part_rng.NextBool(0.5) ? left : right).push_back(n);
        }
        if (!left.empty() && !right.empty()) {
          (void)engine.Partition({left, right});
          partitioned = true;
        }
        next_flip = now + kMeanDown;
      } else {
        engine.HealAll();
        engine.RunToQuiescence();
        if (merge_on_heal) {
          MaybeMerge(engine);
          engine.RunToQuiescence();
        }
        partitioned = false;
        next_flip = now + kMeanUp;
      }
    }
  }
  engine.HealAll();
  engine.RunToQuiescence();
  if (merge_on_heal) {
    MaybeMerge(engine);
    engine.RunToQuiescence();
  }

  RowResult row;
  row.name = name;
  row.guarantee = guarantee;
  row.submitted = submitted;
  row.served = served;
  row.guarantee_holds = CheckMutualConsistency(engine.Replicas()).ok;
  row.msgs_per_served =
      served ? double(engine.net_stats().messages_sent) / double(served) : 0;
  return row;
}

}  // namespace

namespace {

/// Builds the baseline engines' shared schema (one fragment, one object
/// per node). Each harness job builds its own copy: jobs share nothing.
Catalog MakeBaselineCatalog() {
  Catalog catalog;
  FragmentId f = catalog.AddFragment("ALL");
  for (int i = 0; i < kNodes; ++i) {
    (void)*catalog.AddObject(f, "o" + std::to_string(i), 0);
  }
  return catalog;
}

/// One spectrum row as a self-contained job keyed by (row index, seed).
RowResult RunRow(int row, uint64_t seed) {
  switch (row) {
    case 0: {
      Catalog catalog = MakeBaselineCatalog();
      MutualExclusionEngine eng(&catalog,
                                Topology::FullMesh(kNodes, Millis(5)));
      return RunBaseline("mutual-exclusion", "global SR", seed, eng, catalog,
                         /*merge_on_heal=*/false);
    }
    case 1:
      return RunCluster("frag+agents 4.1 read-locks", "global SR", seed,
                        ControlOption::kReadLocks);
    case 2:
      return RunCluster("frag+agents 4.2 acyclic", "global SR", seed,
                        ControlOption::kAcyclicReads);
    case 3:
      return RunCluster("frag+agents 4.3 fragmentwise", "fragmentwise SR",
                        seed, ControlOption::kFragmentwise);
    case 4:
      // Read-cheap quorum point (R=2, W=5 on 6 replicas, R+W>N): reads
      // touch a third of the cluster, writes wait for nearly all of it.
      return RunCluster("quorum R=2 W=5", "quorum freshness", seed,
                        ControlOption::kQuorum, MoveProtocol::kForbidden,
                        /*with_moves=*/false,
                        QuorumKnobs{2, 5, /*read_only_fraction=*/0.3});
    case 5:
      // Write-cheap quorum point (R=5, W=2): the mirror image — writes
      // ack fast, reads pay the assembly cost.
      return RunCluster("quorum R=5 W=2", "quorum freshness", seed,
                        ControlOption::kQuorum, MoveProtocol::kForbidden,
                        /*with_moves=*/false,
                        QuorumKnobs{5, 2, /*read_only_fraction=*/0.3});
    case 6:
      // Non-blocking commit: every update decided by an acceptor majority,
      // so a crashed home never strands a prepared transaction.
      return RunCluster("paxos-commit", "atomic commit (NB)", seed,
                        ControlOption::kFragmentwise,
                        MoveProtocol::kPaxosCommit);
    case 7:
      return RunCluster("frag+agents 4.4.3 moving", "mutual consistency",
                        seed, ControlOption::kFragmentwise,
                        MoveProtocol::kOmitPrep, /*with_moves=*/true);
    case 8: {
      Catalog catalog = MakeBaselineCatalog();
      OptimisticEngine eng(&catalog, Topology::FullMesh(kNodes, Millis(5)));
      return RunBaseline("optimistic (free-for-all)", "convergence", seed,
                         eng, catalog, /*merge_on_heal=*/true);
    }
    default: {
      Catalog catalog = MakeBaselineCatalog();
      LogTransformEngine eng(&catalog, Topology::FullMesh(kNodes, Millis(5)));
      return RunBaseline("log-transform (free-for-all)", "convergence", seed,
                         eng, catalog, /*merge_on_heal=*/false);
    }
  }
}

constexpr int kRows = 10;

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchOptions(&argc, argv);
  std::vector<uint64_t> seeds = opts.SeedsOr(kDefaultSeed);

  std::printf(
      "E1 / Figure 1.1 — the correctness-availability spectrum\n"
      "workload: %d nodes, ~%lldms partitioned half the time, "
      "seeds=%zu threads=%d\n\n",
      kNodes, (long long)(kMeanDown / 1000), seeds.size(), opts.threads);

  struct Job {
    uint64_t seed;
    int row;
  };
  std::vector<Job> jobs;
  for (uint64_t seed : seeds) {
    for (int row = 0; row < kRows; ++row) jobs.push_back({seed, row});
  }
  std::vector<RowResult> results = RunIndexed<Job, RowResult>(
      jobs, [](const Job& job) { return RunRow(job.row, job.seed); },
      opts.threads);

  std::vector<int> widths = {30, 12, 12, 14, 20, 12};
  for (size_t si = 0; si < seeds.size(); ++si) {
    std::printf("seed %llu\n", (unsigned long long)seeds[si]);
    PrintRow({"strategy", "submitted", "served", "availability", "guarantee",
              "holds"},
             widths);
    PrintRule(widths);
    for (int r = 0; r < kRows; ++r) {
      const RowResult& row = results[si * kRows + r];
      PrintRow({row.name, Int((long long)row.submitted),
                Int((long long)row.served),
                Pct(row.submitted ? double(row.served) / row.submitted : 0),
                row.guarantee, row.guarantee_holds ? "yes" : "NO"},
               widths);
      if (!row.json.empty()) PrintJsonLine(row.json);
    }
    std::printf("\n");
  }
  std::printf(
      "expected shape (paper Fig. 1.1): availability is lowest at the\n"
      "left (mutual exclusion), rises monotonically to ~100%% at the\n"
      "right, while the correctness criterion weakens from global\n"
      "serializability to mere convergence.\n");
  return 0;
}

// End-to-end acceptance for the observability layer: a 3-node banking run
// with metrics+tracing on must yield nonzero replication-lag and message
// series, a JSONL trace from which a full submit -> commit -> broadcast ->
// install span chain is reconstructible, metric/audit agreement, and — the
// foundation of everything in this repo — bitwise deterministic snapshots
// for identical seeds.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/audit.h"
#include "workload/banking.h"
#include "workload/synthetic.h"

namespace fragdb {
namespace {

constexpr SimTime kPartitionWindow = Millis(40);

class ObsBankingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BankingWorkload::Options opt;
    opt.nodes = 3;
    opt.accounts = 2;
    opt.central_node = 0;
    opt.initial_balance = 300;
    opt.observability.metrics = true;
    opt.observability.tracing = true;
    // Large enough that no ring wraps in this short run: the flight dump
    // must then be byte-identical to the full trace export.
    opt.observability.flight_recorder = true;
    opt.observability.flight_recorder_capacity = 4096;
    bank_ = std::make_unique<BankingWorkload>(opt);
    ASSERT_TRUE(bank_->Start().ok());
    Cluster& cluster = bank_->cluster();

    for (int i = 0; i < 4; ++i) {
      bank_->Deposit(0, 10, nullptr);
      bank_->Withdraw(1, 5, nullptr);
      cluster.RunFor(Millis(10));
    }
    // Cut node 2 off; commits during this window replicate to it only
    // after the heal, which is what the lag histogram must show.
    ASSERT_TRUE(cluster.Partition({{0, 1}, {2}}).ok());
    for (int i = 0; i < 4; ++i) {
      bank_->Deposit(0, 10, nullptr);
      cluster.RunFor(Millis(10));
    }
    cluster.HealAll();
    cluster.RunToQuiescence();
  }

  std::unique_ptr<BankingWorkload> bank_;
};

TEST_F(ObsBankingTest, SnapshotHasTheCoreSeries) {
  Cluster& cluster = bank_->cluster();
  MetricsSnapshot snap = cluster.SnapshotMetrics();

  EXPECT_GT(snap.CounterTotal("txn_submitted_total"), 0u);
  EXPECT_GT(snap.CounterTotal("txn_committed_total"), 0u);
  EXPECT_GT(snap.HistogramCount("commit_latency_us"), 0u);
  EXPECT_GT(snap.HistogramCount("replication_lag_us"), 0u);
  EXPECT_GT(snap.HistogramCount("lock_wait_us"), 0u);
  EXPECT_GT(snap.HistogramCount("lock_hold_us"), 0u);
  EXPECT_GT(snap.CounterTotal("messages_sent_total"), 0u);
  EXPECT_EQ(snap.CounterTotal("messages_sent_total"),
            cluster.net_stats().messages_sent);
  EXPECT_GT(snap.CounterTotal("bytes_sent_total"), 0u);
  EXPECT_EQ(snap.CounterTotal("partitions_total"), 1u);
  EXPECT_EQ(snap.CounterTotal("heals_total"), 1u);
}

TEST_F(ObsBankingTest, PartitionShowsUpAsReplicationLag) {
  MetricsSnapshot snap = bank_->cluster().SnapshotMetrics();
  // The first deposit committed behind the partition waits out most of the
  // 40ms window before node 2 installs it.
  EXPECT_GE(snap.HistogramMax("replication_lag_us"), kPartitionWindow / 2);
}

TEST_F(ObsBankingTest, SpanChainReconstructsFromJsonl) {
  Tracer* tracer = bank_->cluster().tracer();
  ASSERT_NE(tracer, nullptr);
  Result<std::vector<TraceEvent>> parsed =
      Tracer::ParseJsonl(tracer->ToJsonl());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), tracer->events().size());

  struct Chain {
    int submits = 0, commits = 0, broadcasts = 0, installs = 0;
    SimTime submit_at = 0, commit_at = 0, broadcast_at = 0;
    SimTime last_install_at = 0;
    bool ordered = true;
  };
  std::map<TxnId, Chain> chains;
  for (const TraceEvent& ev : *parsed) {
    if (ev.txn == kInvalidTxn) continue;
    Chain& c = chains[ev.txn];
    if (ev.kind == "submit") {
      c.submits += 1;
      c.submit_at = ev.at;
    } else if (ev.kind == "commit") {
      c.commits += 1;
      c.commit_at = ev.at;
      c.ordered = c.ordered && ev.at >= c.submit_at;
    } else if (ev.kind == "broadcast") {
      c.broadcasts += 1;
      c.broadcast_at = ev.at;
      c.ordered = c.ordered && ev.at >= c.commit_at;
    } else if (ev.kind == "install") {
      c.installs += 1;
      c.last_install_at = ev.at;
      c.ordered = c.ordered && ev.at >= c.broadcast_at;
    }
  }

  // Every broadcast transaction has the full chain, installed at both
  // replicas once the partition heals.
  int full_chains = 0;
  for (const auto& [txn, c] : chains) {
    if (c.broadcasts == 0) continue;
    EXPECT_EQ(c.submits, 1) << "T" << txn;
    EXPECT_EQ(c.commits, 1) << "T" << txn;
    EXPECT_EQ(c.broadcasts, 1) << "T" << txn;
    EXPECT_EQ(c.installs, 2) << "T" << txn;
    EXPECT_TRUE(c.ordered) << "T" << txn;
    if (c.submits == 1 && c.commits == 1 && c.installs == 2) full_chains += 1;
  }
  EXPECT_GT(full_chains, 0);
}

TEST_F(ObsBankingTest, FlightDumpMatchesTracerWhenNothingWrapped) {
  // Same hook sites feed both sinks; with capacity exceeding the event
  // count, the merged dump reproduces the tracer's JSONL byte for
  // byte — so every span-chain property proven for the trace export holds
  // for flight-recorder dumps too.
  Tracer* fr = bank_->cluster().flight_recorder();
  Tracer* tracer = bank_->cluster().tracer();
  ASSERT_NE(fr, nullptr);
  ASSERT_NE(tracer, nullptr);
  ASSERT_LE(tracer->events().size(), static_cast<size_t>(fr->capacity()));
  EXPECT_EQ(fr->total_recorded(), tracer->events().size());
  EXPECT_EQ(fr->ToJsonl(), tracer->ToJsonl());

  Result<std::vector<TraceEvent>> parsed = Tracer::ParseJsonl(fr->ToJsonl());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), tracer->events().size());
}

TEST_F(ObsBankingTest, AuditAgreesWithTheMetrics) {
  Cluster& cluster = bank_->cluster();
  MetricsSnapshot snap = cluster.SnapshotMetrics();
  AuditReport report = AuditRun(cluster);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(snap.HistogramMax("replication_lag_us"),
            report.max_replication_lag_us);
  EXPECT_EQ(snap.CounterTotal("messages_sent_total"), report.messages_sent);
  EXPECT_NE(report.ToString().find("messages sent"), std::string::npos);
  EXPECT_NE(report.ToString().find("max replication lag"), std::string::npos);
}

TEST(ObsClusterTest, ObservabilityIsOffByDefault) {
  BankingWorkload::Options opt;
  opt.nodes = 3;
  opt.accounts = 1;
  BankingWorkload bank(opt);
  ASSERT_TRUE(bank.Start().ok());
  bank.Deposit(0, 10, nullptr);
  bank.cluster().RunToQuiescence();
  EXPECT_EQ(bank.cluster().tracer(), nullptr);
  EXPECT_TRUE(bank.cluster().SnapshotMetrics().entries.empty());
}

SyntheticOptions ReadLockOptions() {
  SyntheticOptions opt;
  opt.nodes = 4;
  opt.objects_per_fragment = 3;
  opt.read_fan = 1.0;
  opt.mean_interarrival = Millis(4);
  opt.duration = Millis(500);
  opt.mean_up_time = Millis(120);
  opt.mean_partition_time = Millis(80);
  opt.seed = 42;
  opt.control = ControlOption::kReadLocks;
  opt.observability.metrics = true;
  opt.observability.tracing = true;
  return opt;
}

TEST(ObsClusterTest, ReadLocksProduceLockWaitSeries) {
  SyntheticWorkload workload(ReadLockOptions());
  ASSERT_TRUE(workload.Start().ok());
  (void)workload.Run();
  MetricsSnapshot snap = workload.cluster().SnapshotMetrics();
  EXPECT_GT(snap.HistogramCount("lock_wait_us"), 0u);
  EXPECT_GT(snap.HistogramCount("lock_hold_us"), 0u);
}

TEST(ObsClusterTest, IdenticalSeedsGiveIdenticalSnapshots) {
  std::string text[2], jsonl[2];
  for (int i = 0; i < 2; ++i) {
    SyntheticWorkload workload(ReadLockOptions());
    ASSERT_TRUE(workload.Start().ok());
    (void)workload.Run();
    text[i] = workload.cluster().SnapshotMetrics().ToText();
    jsonl[i] = workload.cluster().tracer()->ToJsonl();
  }
  EXPECT_FALSE(text[0].empty());
  EXPECT_EQ(text[0], text[1]);
  EXPECT_EQ(jsonl[0], jsonl[1]);
}

// Metrics, tracing and the flight recorder shard per node, so they work
// on any number of PDES workers: a read-lock run through a partition and
// an amnesia crash must export byte-identical series and traces at every
// thread count.
struct ObsExports {
  std::string metrics;
  std::string trace;
  std::string flight;
  uint64_t committed = 0;
  uint64_t recoveries = 0;
};

ObsExports RunObservedCluster(int threads) {
  constexpr int kNodes = 4;
  ClusterConfig config;
  config.control = ControlOption::kReadLocks;
  config.durability.enabled = true;
  config.durability.checkpoint_interval = Millis(30);
  config.observability.metrics = true;
  config.observability.tracing = true;
  config.observability.flight_recorder = true;
  config.engine.threads = threads;
  Cluster cluster(config, Topology::FullMesh(kNodes, Millis(5)));
  std::vector<FragmentId> frags;
  std::vector<ObjectId> objs;
  std::vector<AgentId> agents;
  for (int i = 0; i < kNodes; ++i) {
    frags.push_back(cluster.DefineFragment("F" + std::to_string(i)));
    objs.push_back(*cluster.DefineObject(frags[i], "o" + std::to_string(i), 0));
    agents.push_back(cluster.DefineUserAgent("a" + std::to_string(i)));
    EXPECT_TRUE(cluster.AssignToken(frags[i], agents[i]).ok());
    EXPECT_TRUE(cluster.SetAgentHome(agents[i], i).ok());
  }
  EXPECT_TRUE(cluster.Start().ok());

  // Agent i updates its own object from a neighbor's every 6ms, as events
  // on its home node i; its RNG and commit count are touched only there.
  std::vector<Rng> rngs;
  std::vector<uint64_t> committed(kNodes, 0);
  for (int i = 0; i < kNodes; ++i) rngs.emplace_back(100 + i);
  for (int i = 0; i < kNodes; ++i) {
    for (SimTime t = Millis(1); t < Millis(300); t += Millis(6)) {
      cluster.engine()->AtNode(i, t, [&, i] {
        const int other = (i + 1 + static_cast<int>(rngs[i].NextBelow(
                                        kNodes - 1))) % kNodes;
        TxnSpec spec;
        spec.agent = agents[i];
        spec.write_fragment = frags[i];
        spec.read_set = {objs[i], objs[other]};
        ObjectId own = objs[i];
        spec.body = [own](const std::vector<Value>& reads)
            -> Result<std::vector<WriteOp>> {
          return std::vector<WriteOp>{{own, reads[0] + reads[1] + 1}};
        };
        cluster.Submit(spec, [&committed, i](const TxnResult& r) {
          if (r.status.ok()) ++committed[i];
        });
      });
    }
  }
  cluster.engine()->AtGlobal(Millis(60), [&cluster] {
    EXPECT_TRUE(cluster.Partition({{0, 1}, {2, 3}}).ok());
  });
  cluster.engine()->AtGlobal(Millis(130), [&cluster] { cluster.HealAll(); });
  cluster.engine()->AtGlobal(Millis(170), [&cluster] {
    EXPECT_TRUE(cluster.CrashNode(3, CrashMode::kAmnesia).ok());
  });
  cluster.engine()->AtGlobal(Millis(220), [&cluster] {
    EXPECT_TRUE(cluster.ReviveNode(3).ok());
  });
  cluster.RunToQuiescence();

  ObsExports out;
  MetricsSnapshot snap = cluster.SnapshotMetrics();
  out.metrics = snap.ToText();
  out.trace = cluster.tracer()->ToJsonl();
  out.flight = cluster.flight_recorder()->ToJsonl();
  for (uint64_t c : committed) out.committed += c;
  out.recoveries = snap.CounterTotal("recoveries_total");
  EXPECT_EQ(snap.CounterTotal("txn_committed_total"), out.committed);
  EXPECT_EQ(snap.CounterTotal("messages_sent_total"),
            cluster.net_stats().messages_sent);
  EXPECT_TRUE(CheckMutualConsistency(cluster.Replicas()).ok);
  return out;
}

TEST(ObsClusterTest, MetricsAndTracingIdenticalAcrossThreadCounts) {
  const ObsExports base = RunObservedCluster(1);
  EXPECT_GT(base.committed, 0u);
  EXPECT_EQ(base.recoveries, 1u);
  EXPECT_NE(base.trace.find("\"name\":\"partition\""), std::string::npos);
  EXPECT_NE(base.trace.find("\"name\":\"recover\""), std::string::npos);
  for (int threads : {2, 4}) {
    const ObsExports run = RunObservedCluster(threads);
    EXPECT_EQ(run.metrics, base.metrics) << "threads=" << threads;
    EXPECT_EQ(run.trace, base.trace) << "threads=" << threads;
    EXPECT_EQ(run.flight, base.flight) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace fragdb

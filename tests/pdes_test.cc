#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/audit.h"
#include "core/cluster.h"
#include "sim/partition.h"
#include "sim/pdes_scheduler.h"
#include "workload/opstream.h"

namespace fragdb {
namespace {

// --- PartitionPlan --------------------------------------------------------

TEST(PartitionPlan, ContiguousBalancesAndSorts) {
  PartitionPlan plan = PartitionPlan::Contiguous(10, 3);
  EXPECT_EQ(plan.node_count(), 10);
  EXPECT_EQ(plan.partition_count(), 3);
  // 10 = 4 + 3 + 3.
  EXPECT_EQ(plan.Members(0), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(plan.Members(1), (std::vector<NodeId>{4, 5, 6}));
  EXPECT_EQ(plan.Members(2), (std::vector<NodeId>{7, 8, 9}));
  for (NodeId n = 0; n < 10; ++n) {
    EXPECT_EQ(plan.PartitionOf(n), n < 4 ? 0 : (n < 7 ? 1 : 2));
  }
}

TEST(PartitionPlan, RoundRobinSpreads) {
  PartitionPlan plan = PartitionPlan::RoundRobin(7, 3);
  EXPECT_EQ(plan.Members(0), (std::vector<NodeId>{0, 3, 6}));
  EXPECT_EQ(plan.Members(1), (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(plan.Members(2), (std::vector<NodeId>{2, 5}));
}

TEST(PartitionPlan, ClampsPartitionCountToNodes) {
  PartitionPlan plan = PartitionPlan::Contiguous(3, 16);
  EXPECT_EQ(plan.partition_count(), 3);
}

TEST(PartitionPlan, ReassignKeepsMembersSorted) {
  PartitionPlan plan = PartitionPlan::Contiguous(6, 2);
  plan.ReassignNode(1, 1);
  plan.ReassignNode(4, 0);
  EXPECT_EQ(plan.Members(0), (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(plan.Members(1), (std::vector<NodeId>{1, 3, 5}));
  EXPECT_EQ(plan.PartitionOf(1), 1);
  plan.ReassignNode(1, 1);  // no-op
  EXPECT_EQ(plan.Members(1), (std::vector<NodeId>{1, 3, 5}));
}

// --- Lookahead -----------------------------------------------------------

TEST(TopologyLookahead, MinCrossingLinkLatency) {
  // Line 0-1-2-3 with a fast 1ms link inside partition 0: the bound must
  // come from links that actually cross the cut, and ignore downed ones.
  Topology topo(4);
  ASSERT_TRUE(topo.AddLink(0, 1, Millis(1)).ok());
  ASSERT_TRUE(topo.AddLink(1, 2, Millis(5)).ok());
  ASSERT_TRUE(topo.AddLink(2, 3, Millis(3)).ok());
  std::vector<int> owner{0, 0, 1, 1};
  EXPECT_EQ(topo.MinCrossPartitionLatency(owner), Millis(5));
  std::vector<int> split{0, 1, 1, 0};
  EXPECT_EQ(topo.MinCrossPartitionLatency(split), Millis(1));
  ASSERT_TRUE(topo.SetLinkUp(1, 2, false).ok());
  EXPECT_EQ(topo.MinCrossPartitionLatency(owner), kSimTimeMax);
  std::vector<int> one{0, 0, 0, 0};
  EXPECT_EQ(topo.MinCrossPartitionLatency(one), kSimTimeMax);
}

// --- PdesScheduler --------------------------------------------------------

PdesScheduler::Options Threads(int n) {
  PdesScheduler::Options o;
  o.threads = n;
  return o;
}

/// Records (time, node, tag) triples per node; partition-confined.
struct NodeLog {
  std::vector<std::vector<std::pair<SimTime, int>>> per_node;
  explicit NodeLog(int nodes) : per_node(nodes) {}
  void Add(NodeId n, SimTime t, int tag) { per_node[n].emplace_back(t, tag); }
};

TEST(PdesScheduler, ExecutesInTimeOrderWithinNode) {
  PartitionPlan plan = PartitionPlan::Contiguous(2, 2);
  PdesScheduler sched(
      plan, [](const PartitionPlan&) { return Millis(1); }, Threads(1));
  NodeLog log(2);
  sched.ScheduleAt(0, Millis(3), [&] { log.Add(0, Millis(3), 1); });
  sched.ScheduleAt(0, Millis(1), [&] { log.Add(0, Millis(1), 2); });
  sched.ScheduleAt(1, Millis(2), [&] { log.Add(1, Millis(2), 3); });
  sched.RunToQuiescence();
  ASSERT_EQ(log.per_node[0].size(), 2u);
  EXPECT_EQ(log.per_node[0][0].second, 2);
  EXPECT_EQ(log.per_node[0][1].second, 1);
  ASSERT_EQ(log.per_node[1].size(), 1u);
  EXPECT_EQ(sched.stats().events_executed, 3u);
}

TEST(PdesScheduler, CrossPartitionPostDelivers) {
  PartitionPlan plan = PartitionPlan::Contiguous(4, 2);
  PdesScheduler sched(
      plan, [](const PartitionPlan&) { return Millis(5); }, Threads(2));
  std::vector<SimTime> deliveries;
  // Node 0 (partition 0) pings node 3 (partition 1), which pongs back.
  sched.ScheduleAt(0, Millis(1), [&] {
    sched.Post(0, 3, Millis(6), [&] {
      deliveries.push_back(Millis(6));
      sched.Post(3, 0, Millis(11), [&] { deliveries.push_back(Millis(11)); });
    });
  });
  sched.RunToQuiescence();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], Millis(6));
  EXPECT_EQ(deliveries[1], Millis(11));
  EXPECT_GE(sched.stats().mailbox_envelopes, 2u);
}

TEST(PdesScheduler, RunUntilAdvancesClockToDeadline) {
  PartitionPlan plan = PartitionPlan::Contiguous(2, 2);
  PdesScheduler sched(
      plan, [](const PartitionPlan&) { return Millis(1); }, Threads(1));
  int fired = 0;
  sched.ScheduleAt(0, Millis(2), [&] { ++fired; });
  sched.ScheduleAt(1, Millis(9), [&] { ++fired; });
  sched.RunUntil(Millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.Now(), Millis(5));
  sched.RunToQuiescence();
  EXPECT_EQ(fired, 2);
}

TEST(PdesScheduler, ZeroLookaheadFallsBackToSerialSteps) {
  PartitionPlan plan = PartitionPlan::Contiguous(4, 2);
  PdesScheduler sched(
      plan, [](const PartitionPlan&) { return 0; }, Threads(4));
  std::vector<int> order;
  sched.ScheduleAt(0, Millis(1), [&] {
    order.push_back(0);
    // Zero-latency cross-partition message: arrival == send time. Only
    // legal because the scheduler is in serial micro-steps.
    sched.Post(0, 2, Millis(1), [&] { order.push_back(2); });
  });
  sched.ScheduleAt(3, Millis(1), [&] { order.push_back(3); });
  sched.RunToQuiescence();
  // Canonical order: (1ms, node 0), (1ms, node 2, arrived), (1ms, node 3)?
  // The posted event reaches node 2's queue only after node 0's event
  // executes; the serial scan then picks node 2 before node 3 (same time,
  // lower id).
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(sched.stats().windows, 0u);
  EXPECT_EQ(sched.stats().serial_steps, 3u);
}

TEST(PdesScheduler, ReassignAppliesAtBarrierAndRebalances) {
  PartitionPlan plan = PartitionPlan::Contiguous(4, 2);
  PdesScheduler sched(
      plan, [](const PartitionPlan&) { return Millis(1); }, Threads(2));
  sched.ScheduleAt(1, Millis(1), [&] { sched.RequestReassign(1, 1); });
  int late_fired = 0;
  sched.ScheduleAt(1, Millis(10), [&] { ++late_fired; });
  sched.RunToQuiescence();
  EXPECT_EQ(late_fired, 1);  // pending events moved with the node
  EXPECT_EQ(sched.plan().PartitionOf(1), 1);
  EXPECT_EQ(sched.stats().reassignments, 1u);
}

// --- The full Cluster under partial replication --------------------------
//
// The ShardedCluster suite runs the partial-replication PDES workload of
// `bench_scaling --mode=pdes` on the real Cluster: 3-replica sets,
// per-node op streams, crash-stop/revive and mid-run partition moves.

struct ReplicaSetOptions {
  int threads = 1;
  int partitions = 4;
  /// Node 3 is crash-stopped over [20ms, 90ms) and moves to the next
  /// partition when it revives; node 10 is down over [40ms, 60ms).
  bool faults = true;
  /// When >= 0, one RequestReassign(reassign_node, reassign_to) at 30ms.
  NodeId reassign_node = -1;
  int reassign_to = 0;
};

struct ReplicaSetRun {
  std::string digest;
  AuditReport audit;
  PdesScheduler::Stats sched;
  SimTime end = 0;  // the clock at quiescence stops on a window edge
  uint64_t ops = 0;
  uint64_t committed = 0;
  uint64_t unavailable = 0;
  uint64_t sent = 0;
  PartitionPlan plan = PartitionPlan::Contiguous(1, 1);
};

/// 16 nodes on a 5ms mesh. Fragment i is homed at node i and replicated at
/// {i, i+1, i+2 mod 16}; every node replays its own op stream. The digest
/// folds the replica state in node order plus every count a worker or plan
/// change could disturb; the final clock depends on the plan, so it is
/// apart.
ReplicaSetRun RunReplicaSetCluster(const ReplicaSetOptions& o) {
  const int n = 16;
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  config.engine.threads = o.threads;
  config.engine.partitions = o.partitions;
  Cluster c(config, Topology::FullMesh(n, Millis(5)));
  std::vector<ObjectId> objects;
  std::vector<AgentId> agents;
  for (NodeId i = 0; i < n; ++i) {
    FragmentId f = c.DefineFragment("F" + std::to_string(i));
    objects.push_back(*c.DefineObject(f, "o" + std::to_string(i), 0));
    agents.push_back(c.DefineUserAgent("a" + std::to_string(i)));
    EXPECT_TRUE(c.AssignToken(f, agents.back()).ok());
    EXPECT_TRUE(c.SetAgentHome(agents.back(), i).ok());
    EXPECT_TRUE(c.SetReplicaSet(f, {i, (i + 1) % n, (i + 2) % n}).ok());
  }
  EXPECT_TRUE(c.Start().ok());

  OpStreamOptions workload;
  workload.seed = 11;
  workload.nodes = n;
  workload.clients = 64;
  workload.ops_per_client = 20;
  workload.mean_interarrival = Millis(3);
  std::vector<OpSource> sources;
  for (NodeId i = 0; i < n; ++i) sources.emplace_back(workload, i);
  std::vector<uint64_t> committed(n, 0), unavailable(n, 0);
  std::function<void(NodeId)> chain = [&](NodeId node) {
    GeneratedOp op;
    if (!sources[node].Next(&op)) return;
    c.engine()->AtNode(node, op.at, [&, node, delta = op.delta] {
      TxnSpec spec;
      spec.agent = agents[node];
      spec.write_fragment = node;
      ObjectId obj = objects[node];
      spec.read_set = {obj};
      spec.body = [obj, delta](const std::vector<Value>& reads)
          -> Result<std::vector<WriteOp>> {
        return std::vector<WriteOp>{{obj, reads[0] + delta}};
      };
      c.Submit(spec, [&, node](const TxnResult& r) {
        ++(r.status.ok() ? committed : unavailable)[node];
      });
      chain(node);
    });
  };
  for (NodeId i = 0; i < n; ++i) chain(i);

  PdesScheduler* sched = c.pdes_scheduler();
  auto crash = [&](NodeId node, SimTime at, SimTime revive_at, bool move) {
    c.engine()->AtGlobal(at, [&c, node] {
      EXPECT_TRUE(c.CrashNode(node, CrashMode::kCrashStop).ok());
    });
    c.engine()->AtGlobal(revive_at, [&c, sched, node, move] {
      EXPECT_TRUE(c.ReviveNode(node).ok());
      if (!move) return;
      const PartitionPlan& plan = sched->plan();
      sched->RequestReassign(
          node, (plan.PartitionOf(node) + 1) % plan.partition_count());
    });
  };
  if (o.faults) {
    crash(3, Millis(20), Millis(90), /*move=*/true);
    crash(10, Millis(40), Millis(60), /*move=*/false);
  }
  if (o.reassign_node >= 0) {
    c.engine()->AtGlobal(Millis(30), [sched, &o] {
      sched->RequestReassign(o.reassign_node, o.reassign_to);
    });
  }
  c.RunToQuiescence();

  ReplicaSetRun run;
  run.audit = AuditRun(c);
  run.sched = sched->stats();
  run.end = c.Now();
  run.plan = sched->plan();
  run.ops = static_cast<uint64_t>(workload.clients) * workload.ops_per_client;
  uint64_t hash = kOpHashSeed;
  for (NodeId node = 0; node < n; ++node) {
    run.committed += committed[node];
    run.unavailable += unavailable[node];
    for (int k = 0; k < 3; ++k) {
      FragmentId f = (node - k + n) % n;
      hash = FoldU64(hash, static_cast<uint64_t>(c.ReadAt(node, objects[f])));
      hash = FoldU64(hash, static_cast<uint64_t>(
                               c.runtime(node).stream(f).applied_seq));
    }
  }
  NetworkStats net = c.net_stats();
  run.sent = net.messages_sent;
  std::ostringstream os;
  os << "committed=" << run.committed << " unavailable=" << run.unavailable
     << " sent=" << net.messages_sent << " queued=" << net.messages_queued
     << " events=" << run.sched.events_executed
     << " state=" << std::hex << hash;
  run.digest = os.str();
  return run;
}

ReplicaSetOptions Opts(int threads, int partitions, bool faults) {
  ReplicaSetOptions o;
  o.threads = threads;
  o.partitions = partitions;
  o.faults = faults;
  return o;
}

TEST(ShardedCluster, ConvergesAndCountsAddUp) {
  ReplicaSetRun r = RunReplicaSetCluster(Opts(1, 4, /*faults=*/false));
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  // With every node up each op commits, and each commit fans out to the
  // two other members of its replica set.
  EXPECT_EQ(r.committed, r.ops);
  EXPECT_EQ(r.unavailable, 0u);
  EXPECT_EQ(r.sent, r.committed * 2);
  EXPECT_GT(r.sched.windows, 0u);
  EXPECT_EQ(r.sched.serial_steps, 0u);
}

TEST(ShardedCluster, ByteIdenticalAcrossSimThreads) {
  ReplicaSetRun base = RunReplicaSetCluster(Opts(1, 4, /*faults=*/false));
  for (int threads : {2, 4}) {
    ReplicaSetRun r = RunReplicaSetCluster(Opts(threads, 4, false));
    EXPECT_EQ(r.digest, base.digest) << threads << " workers";
    EXPECT_EQ(r.end, base.end) << threads << " workers";
    EXPECT_EQ(r.sched.windows, base.sched.windows) << threads << " workers";
  }
}

TEST(ShardedCluster, ByteIdenticalAcrossSimThreadsUnderFaults) {
  // Crash-stop drops traffic to the downed nodes, revive catches them up,
  // and one revive moves its node to another partition mid-run.
  ReplicaSetRun base = RunReplicaSetCluster(Opts(1, 4, /*faults=*/true));
  EXPECT_TRUE(base.audit.ok()) << base.audit.ToString();
  EXPECT_GT(base.unavailable, 0u);
  EXPECT_EQ(base.committed + base.unavailable, base.ops);
  EXPECT_EQ(base.sched.reassignments, 1u);
  for (int threads : {2, 4}) {
    ReplicaSetRun r = RunReplicaSetCluster(Opts(threads, 4, true));
    EXPECT_EQ(r.digest, base.digest) << threads << " workers";
    EXPECT_EQ(r.end, base.end) << threads << " workers";
    EXPECT_EQ(r.sched.windows, base.sched.windows) << threads << " workers";
    EXPECT_EQ(r.sched.reassignments, 1u) << threads << " workers";
  }
}

TEST(ShardedCluster, StateInvariantAcrossPartitionCounts) {
  // The digest holds simulation state and counts only, so the plan must
  // not change it either.
  ReplicaSetRun base = RunReplicaSetCluster(Opts(2, 1, /*faults=*/true));
  EXPECT_TRUE(base.audit.ok()) << base.audit.ToString();
  for (int partitions : {4, 16}) {
    ReplicaSetRun r = RunReplicaSetCluster(Opts(2, partitions, true));
    EXPECT_EQ(r.digest, base.digest) << partitions << " partitions";
    EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  }
}

TEST(ShardedCluster, ExplicitMidRunReassign) {
  ReplicaSetOptions o = Opts(4, 4, /*faults=*/false);
  o.reassign_node = 2;
  o.reassign_to = 3;
  ReplicaSetRun r = RunReplicaSetCluster(o);
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_EQ(r.sched.reassignments, 1u);
  EXPECT_EQ(r.plan.PartitionOf(2), 3);

  o.threads = 1;
  ReplicaSetRun serial = RunReplicaSetCluster(o);
  EXPECT_EQ(serial.digest, r.digest);
}

TEST(ShardedCluster, PinnedFingerprint) {
  // Pinned so any drift in event order, routing, replication or the op
  // streams fails loudly; pinned at 2 workers to exercise the pool (the
  // tests above show the digest holds at every worker count).
  ReplicaSetRun r = RunReplicaSetCluster(Opts(2, 4, /*faults=*/true));
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_EQ(r.digest,
            "committed=1249 unavailable=31 sent=2498 queued=63 events=7529 "
            "state=c8541406d20c306c");
}

}  // namespace
}  // namespace fragdb

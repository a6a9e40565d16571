// The full Cluster protocol stack on the PDES engine. The contract under
// test is the one docs/PERFORMANCE.md promises: a run is bit-identical at
// any worker-thread count — same metrics, same fingerprints, same replica
// contents — including while a §4.4 moving-agent protocol is in flight
// and the partition plan is reassigned mid-run.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "verify/checkers.h"

namespace fragdb {
namespace {

EngineConfig Pdes(int threads, int partitions = 0) {
  EngineConfig e;
  e.threads = threads;
  e.partitions = partitions;
  return e;
}

// --- Torture cell across thread counts ------------------------------------

std::string CellDigest(const ScenarioCellReport& r) {
  std::ostringstream os;
  os << "m=" << r.metrics.submitted << "," << r.metrics.committed << ","
     << r.metrics.declined << "," << r.metrics.unavailable << ","
     << r.metrics.rejected << "," << r.metrics.other_failed << ","
     << r.metrics.total_commit_latency << ";net=" << r.net.messages_sent
     << "," << r.net.messages_delivered << "," << r.net.messages_queued
     << "," << r.net.messages_dropped << "," << r.net.bytes_sent
     << ";fifo=" << r.fifo_deliveries << ";rev=" << r.revives_completed
     << ";tl=" << r.timeline_fingerprint
     << ";av=" << r.availability_fingerprint;
  return os.str();
}

ScenarioCellReport RunTortureCell(const EngineConfig& engine) {
  Result<Scenario> s = ParseScenario(
      "scenario pdes_cell\n"
      "partition at=60ms for=80ms groups=0,1|rest\n"
      "loss at=180ms for=40ms p=0.2\n"
      "crash at=240ms for=60ms node=3 mode=stop\n");
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  ScenarioRunOptions opt;
  opt.nodes = 6;
  opt.duration = Millis(400);
  opt.seed = 7;
  opt.observability.timelines = true;
  opt.engine = engine;
  ScenarioRunner runner(*s, opt);
  EXPECT_TRUE(runner.Start().ok());
  return runner.Run();
}

TEST(PdesClusterTest, TortureCellBitIdenticalAcrossThreadCounts) {
  ScenarioCellReport base = RunTortureCell(Pdes(1));
  EXPECT_TRUE(base.ok()) << base.failure_detail;
  EXPECT_GT(base.metrics.committed, 0u);
  const std::string want = CellDigest(base);
  for (int threads : {2, 4}) {
    ScenarioCellReport r = RunTortureCell(Pdes(threads));
    EXPECT_TRUE(r.ok()) << r.failure_detail;
    EXPECT_EQ(CellDigest(r), want) << "threads=" << threads;
  }
}

TEST(PdesClusterTest, TortureCellIdenticalAcrossPartitionCounts) {
  // Fewer partitions than nodes changes which events share a sub-queue
  // drain but not the (time, node, seq) total order.
  const std::string want = CellDigest(RunTortureCell(Pdes(2)));
  EXPECT_EQ(CellDigest(RunTortureCell(Pdes(4, 3))), want);
  EXPECT_EQ(CellDigest(RunTortureCell(Pdes(4, 2))), want);
}

// --- Mid-run plan reassignment during an in-flight §4.4 move --------------

struct MoveCell {
  std::unique_ptr<Cluster> cluster;
  FragmentId frag;
  ObjectId x, y;
  AgentId agent;

  explicit MoveCell(MoveProtocol protocol, const EngineConfig& engine) {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    config.move_protocol = protocol;
    config.agent_travel_time = Millis(20);
    config.engine = engine;
    cluster =
        std::make_unique<Cluster>(config, Topology::FullMesh(4, Millis(5)));
    Cluster& c = *cluster;
    frag = c.DefineFragment("F");
    x = *c.DefineObject(frag, "x", 0);
    y = *c.DefineObject(frag, "y", 0);
    agent = c.DefineUserAgent("mover");
    EXPECT_TRUE(c.AssignToken(frag, agent).ok());
    EXPECT_TRUE(c.SetAgentHome(agent, 0).ok());
    EXPECT_TRUE(c.Start().ok());
  }

  void Update(ObjectId obj, Value v, TxnResult* out = nullptr) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = frag;
    spec.body = [obj, v](const std::vector<Value>&)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{obj, v}};
    };
    cluster->Submit(spec, [out](const TxnResult& r) {
      if (out) *out = r;
    });
  }
};

/// Runs a full move 0 -> 2 and, while the agent is in transit, merges the
/// old and new homes' partitions at a window barrier. Returns a digest of
/// everything observable.
std::string RunMoveWithReassign(MoveProtocol protocol,
                                const EngineConfig& engine) {
  MoveCell cell(protocol, engine);
  Cluster& c = *cell.cluster;
  TxnResult before;
  cell.Update(cell.x, 10, &before);
  c.RunToQuiescence();
  EXPECT_TRUE(before.status.ok());

  Status move_status = Status::Internal("not called");
  EXPECT_TRUE(
      c.MoveAgent(cell.agent, 2, [&](Status st) { move_status = st; }).ok());
  // Mid-travel (travel takes 20ms), fold the endpoints' partitions
  // together and strand node 1 in a third one. Requested from a node
  // event — the buffered worker path — and applied at the next window
  // barrier; the (time, node, seq) order of events is unchanged.
  PdesScheduler* sched = c.pdes_scheduler();
  c.engine()->AfterNode(1, Millis(10), [sched] {
    sched->RequestReassign(0, 2);
    sched->RequestReassign(1, 3);
  });
  c.RunToQuiescence();
  EXPECT_TRUE(move_status.ok()) << move_status.ToString();

  TxnResult after;
  cell.Update(cell.y, 20, &after);
  c.RunToQuiescence();
  EXPECT_TRUE(after.status.ok()) << after.status.ToString();

  CheckReport property = c.CheckConfiguredProperty();
  EXPECT_TRUE(property.ok) << property.detail;
  CheckReport consistent = CheckMutualConsistency(c.Replicas());
  EXPECT_TRUE(consistent.ok) << consistent.detail;

  std::ostringstream os;
  os << "home=" << *c.catalog().HomeOf(cell.agent)
     << ";seq=" << before.frag_seq << "->" << after.frag_seq;
  for (NodeId n = 0; n < c.node_count(); ++n) {
    os << ";n" << n << "=" << c.ReadAt(n, cell.x) << "/"
       << c.ReadAt(n, cell.y);
  }
  NetworkStats net = c.net_stats();
  os << ";net=" << net.messages_sent << "," << net.messages_delivered;
  return os.str();
}

TEST(PdesClusterTest, ReassignDuringMoveBitIdenticalAcrossThreadCounts) {
  for (MoveProtocol protocol :
       {MoveProtocol::kMoveWithData, MoveProtocol::kMoveWithSeqNum,
        MoveProtocol::kMajorityCommit, MoveProtocol::kOmitPrep}) {
    const std::string want = RunMoveWithReassign(protocol, Pdes(1));
    for (int threads : {2, 4}) {
      EXPECT_EQ(RunMoveWithReassign(protocol, Pdes(threads)), want)
          << "protocol=" << static_cast<int>(protocol)
          << " threads=" << threads;
    }
  }
}

TEST(PdesClusterTest, ReassignmentsAreActuallyApplied) {
  MoveCell cell(MoveProtocol::kMoveWithData, Pdes(2));
  Cluster& c = *cell.cluster;
  PdesScheduler* sched = c.pdes_scheduler();
  EXPECT_TRUE(c.MoveAgent(cell.agent, 2, nullptr).ok());
  c.engine()->AtGlobal(c.Now() + Millis(10), [sched] {
    sched->RequestReassign(0, 2);
  });
  c.RunToQuiescence();
  EXPECT_EQ(sched->plan().PartitionOf(0), 2);
  EXPECT_GE(sched->stats().reassignments, 1u);
}

}  // namespace
}  // namespace fragdb

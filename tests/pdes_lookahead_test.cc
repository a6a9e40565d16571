// Lookahead correctness across connectivity churn. The conservative
// window is only safe if the lookahead is a true lower bound on every
// cross-partition delivery delay, through any sequence of partition /
// heal / link flips. These tests pin the source of that bound —
// Topology::MinCrossPartitionLatency, the crossing-link bound the live
// cluster uses — and then drive a real cluster through flap cycles at
// several thread counts; the scheduler's own arrival >= window_end check
// aborts the run if a refresh ever admitted a causality violation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/topology.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/partition.h"

namespace fragdb {
namespace {

TEST(PdesLookaheadTest, TopologyBoundShrinksAndGrowsAcrossCycles) {
  Topology topo = Topology::FullMesh(6, Millis(5));
  const std::vector<int> owner = PartitionPlan::Contiguous(6, 2).owners();

  EXPECT_EQ(topo.MinCrossPartitionLatency(owner), Millis(5));

  // Network partition aligned with the plan: nothing crosses, so any
  // window is safe — the bound grows to "infinite".
  ASSERT_TRUE(topo.Partition({{0, 1, 2}, {3, 4, 5}}).ok());
  EXPECT_EQ(topo.MinCrossPartitionLatency(owner), kSimTimeMax);

  // Heal: the 5ms crossing links are back, the bound must shrink again.
  topo.HealAll();
  EXPECT_EQ(topo.MinCrossPartitionLatency(owner), Millis(5));

  // Misaligned network partition: group {0, 3} spans both plan
  // partitions, so its internal link still crosses.
  ASSERT_TRUE(topo.Partition({{0, 3}, {1, 2, 4, 5}}).ok());
  EXPECT_EQ(topo.MinCrossPartitionLatency(owner), Millis(5));
  topo.HealAll();

  // Severing individual crossing links one at a time only raises the
  // bound once ALL of them are down.
  for (NodeId a = 0; a < 3; ++a) {
    for (NodeId b = 3; b < 6; ++b) {
      EXPECT_EQ(topo.MinCrossPartitionLatency(owner), Millis(5));
      ASSERT_TRUE(topo.SetLinkUp(a, b, false).ok());
    }
  }
  EXPECT_EQ(topo.MinCrossPartitionLatency(owner), kSimTimeMax);
  ASSERT_TRUE(topo.SetLinkUp(2, 3, true).ok());
  EXPECT_EQ(topo.MinCrossPartitionLatency(owner), Millis(5));
}

// --- Live cluster through flap cycles -------------------------------------

std::string FlapDigest(int threads, SimTime link_latency) {
  Result<Scenario> s = ParseScenario(
      "scenario lookahead_churn\n"
      "flap at=50ms for=300ms period=100ms down=50ms groups=0,1,2|rest\n"
      "gray at=120ms for=100ms from=0 to=4 extra=20ms\n");
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  ScenarioRunOptions opt;
  opt.nodes = 6;
  opt.duration = Millis(400);
  opt.seed = 11;
  opt.link_latency = link_latency;
  opt.observability.timelines = true;
  opt.engine.threads = threads;
  opt.engine.partitions = 2;  // flap groups align with plan partitions
  ScenarioRunner runner(*s, opt);
  EXPECT_TRUE(runner.Start().ok());
  ScenarioCellReport r = runner.Run();
  EXPECT_TRUE(r.ok()) << r.failure_detail;
  std::ostringstream os;
  os << r.metrics.submitted << "/" << r.metrics.committed << "/"
     << r.metrics.unavailable << ";" << r.net.messages_delivered << ";"
     << r.timeline_fingerprint << ";" << r.availability_fingerprint;
  return os.str();
}

TEST(PdesLookaheadTest, FlapCyclesNeverAdmitCausalityViolation) {
  // The scheduler aborts (arrival >= window_end check) if a heal shrank
  // the lookahead too late or a partition grew it too early; surviving
  // the cycles bit-identically at every thread count is the pass signal.
  const std::string want = FlapDigest(1, Millis(5));
  EXPECT_EQ(FlapDigest(2, Millis(5)), want);
  EXPECT_EQ(FlapDigest(4, Millis(5)), want);
}

TEST(PdesLookaheadTest, ZeroLatencyLinksFallBackToSerialSteps) {
  // A zero-latency mesh yields zero lookahead: no parallel window is
  // safe, and the scheduler must degrade to deterministic micro-steps
  // rather than race — identical output at any thread count.
  const std::string want = FlapDigest(1, 0);
  EXPECT_EQ(FlapDigest(4, 0), want);
}

}  // namespace
}  // namespace fragdb

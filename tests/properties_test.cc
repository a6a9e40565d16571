// Parameterized property sweeps over random seeds and configurations:
// the paper's guarantees must hold on every randomized run, not just the
// scripted examples.

#include <gtest/gtest.h>

#include "verify/checkers.h"
#include "verify/serialization_graph.h"
#include "workload/synthetic.h"

namespace fragdb {
namespace {

SyntheticOptions BaseOptions(uint64_t seed) {
  SyntheticOptions opt;
  opt.nodes = 6;
  opt.objects_per_fragment = 3;
  opt.read_fan = 1.2;
  opt.mean_interarrival = Millis(8);
  opt.duration = Millis(800);
  opt.mean_up_time = Millis(120);
  opt.mean_partition_time = Millis(120);
  opt.seed = seed;
  return opt;
}

// ---------------------------------------------------------------------------
// §4.3: fragmentwise serializability and mutual consistency always hold.
// ---------------------------------------------------------------------------

class FragmentwiseSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FragmentwiseSweep, HoldsUnderRandomPartitionedTraffic) {
  SyntheticOptions opt = BaseOptions(GetParam());
  opt.control = ControlOption::kFragmentwise;
  SyntheticWorkload workload(opt);
  ASSERT_TRUE(workload.Start().ok());
  SyntheticReport report = workload.Run();
  EXPECT_TRUE(report.property_ok) << report.property_detail;
  EXPECT_TRUE(report.mutually_consistent);
  // Fragmentwise keeps every update available (agents write locally).
  EXPECT_EQ(report.metrics.unavailable, 0u);
  EXPECT_GT(report.metrics.committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentwiseSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ---------------------------------------------------------------------------
// §4.2 Theorem: elementarily acyclic read-access graph => globally
// serializable, with no read synchronization at all.
// ---------------------------------------------------------------------------

class AcyclicTheoremSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AcyclicTheoremSweep, ElementarilyAcyclicRagYieldsSerializability) {
  SyntheticOptions opt = BaseOptions(GetParam());
  opt.control = ControlOption::kAcyclicReads;
  SyntheticWorkload workload(opt);
  ASSERT_TRUE(workload.Start().ok());
  SyntheticReport report = workload.Run();
  EXPECT_TRUE(report.property_ok) << report.property_detail;
  EXPECT_TRUE(report.mutually_consistent);
  EXPECT_EQ(report.metrics.unavailable, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcyclicTheoremSweep,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108, 109, 110));

// The Theorem's exact hypothesis and conclusion (Appendix): if the
// read-access graph is elementarily acyclic and every LOCAL serialization
// graph (Definition 8.3) is acyclic, the GLOBAL graph is acyclic. Our
// engine guarantees acyclic l.s.g.'s by construction; verify both sides
// from the recorded history.
class LsgTheoremSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LsgTheoremSweep, LocalGraphsAcyclicAndGlobalFollows) {
  SyntheticOptions opt = BaseOptions(GetParam());
  opt.control = ControlOption::kAcyclicReads;
  SyntheticWorkload workload(opt);
  ASSERT_TRUE(workload.Start().ok());
  (void)workload.Run();
  const Cluster& cluster = workload.cluster();
  const ReadAccessGraph& rag = cluster.rag();
  ASSERT_TRUE(rag.ElementarilyAcyclic());
  for (FragmentId f = 0; f < cluster.catalog().fragment_count(); ++f) {
    Result<NodeId> home = cluster.catalog().HomeOfFragment(f);
    ASSERT_TRUE(home.ok());
    TxnGraph lsg = BuildLocalSerializationGraph(cluster.history(), f, rag,
                                                *home);
    EXPECT_TRUE(lsg.Acyclic()) << "l.s.g. of F" << f << " cyclic:\n"
                               << lsg.ToDot(&cluster.history());
  }
  TxnGraph gsg = BuildGlobalSerializationGraph(cluster.history());
  EXPECT_TRUE(gsg.Acyclic());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsgTheoremSweep,
                         ::testing::Values(301, 302, 303, 304, 305));

// ---------------------------------------------------------------------------
// §4.1: read locks preserve global serializability too, but availability
// drops when partitions separate readers from the fragments they lock.
// ---------------------------------------------------------------------------

class ReadLocksSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReadLocksSweep, SerializableButPaysAvailability) {
  SyntheticOptions opt = BaseOptions(GetParam());
  opt.control = ControlOption::kReadLocks;
  SyntheticWorkload workload(opt);
  ASSERT_TRUE(workload.Start().ok());
  SyntheticReport report = workload.Run();
  EXPECT_TRUE(report.property_ok) << report.property_detail;
  EXPECT_TRUE(report.mutually_consistent);
  if (report.partitions_injected > 0) {
    // With cross-fragment reads and real partitions, some transactions
    // must have failed to get their remote locks.
    EXPECT_GT(report.metrics.unavailable, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadLocksSweep,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

// ---------------------------------------------------------------------------
// Mutual consistency also under the §4.4 move protocols with no partitions
// (move correctness separated from partition effects is covered in
// moves_test.cc; here we stress random traffic + random moves).
// ---------------------------------------------------------------------------

struct MoveSweepParam {
  uint64_t seed;
  MoveProtocol protocol;
};

class MoveProtocolSweep : public ::testing::TestWithParam<MoveSweepParam> {};

TEST_P(MoveProtocolSweep, ConsistencyUnderTrafficAndMoves) {
  SyntheticOptions opt = BaseOptions(GetParam().seed);
  opt.control = ControlOption::kFragmentwise;
  opt.move_protocol = GetParam().protocol;
  opt.mean_up_time = 0;  // keep the network whole; moves are the stressor
  SyntheticWorkload workload(opt);
  ASSERT_TRUE(workload.Start().ok());
  Cluster& cluster = workload.cluster();
  // Schedule a few agent moves during the run.
  Rng rng(GetParam().seed * 7919);
  for (int i = 0; i < 4; ++i) {
    SimTime when = Millis(100) + Millis(150) * i;
    AgentId agent = static_cast<AgentId>(rng.NextBelow(opt.nodes));
    NodeId to = static_cast<NodeId>(rng.NextBelow(opt.nodes));
    cluster.engine()->AtGlobal(when, [&cluster, agent, to] {
      // Ignore rejections (agent already moving, etc.).
      (void)cluster.MoveAgent(agent, to, nullptr);
    });
  }
  SyntheticReport report = workload.Run();
  EXPECT_TRUE(report.mutually_consistent);
  EXPECT_GT(report.metrics.committed, 0u);
  if (GetParam().protocol != MoveProtocol::kOmitPrep) {
    EXPECT_TRUE(report.property_ok) << report.property_detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, MoveProtocolSweep,
    ::testing::Values(
        MoveSweepParam{11, MoveProtocol::kMoveWithData},
        MoveSweepParam{12, MoveProtocol::kMoveWithData},
        MoveSweepParam{13, MoveProtocol::kMoveWithSeqNum},
        MoveSweepParam{14, MoveProtocol::kMoveWithSeqNum},
        MoveSweepParam{15, MoveProtocol::kMajorityCommit},
        MoveSweepParam{16, MoveProtocol::kMajorityCommit},
        MoveSweepParam{17, MoveProtocol::kOmitPrep},
        MoveSweepParam{18, MoveProtocol::kOmitPrep}));

// ---------------------------------------------------------------------------
// The hard case: random traffic + random moves + random PARTITIONS.
// Mutual consistency must survive every combination; the §4.4.1/§4.4.2
// protocols additionally keep fragmentwise serializability.
// ---------------------------------------------------------------------------

class MovePartitionSweep : public ::testing::TestWithParam<MoveSweepParam> {};

TEST_P(MovePartitionSweep, ConvergesUnderMovesAcrossPartitions) {
  SyntheticOptions opt = BaseOptions(GetParam().seed);
  opt.control = ControlOption::kFragmentwise;
  opt.move_protocol = GetParam().protocol;
  SyntheticWorkload workload(opt);
  ASSERT_TRUE(workload.Start().ok());
  Cluster& cluster = workload.cluster();
  Rng rng(GetParam().seed * 104729);
  for (int i = 0; i < 5; ++i) {
    SimTime when = Millis(80) + Millis(130) * i;
    AgentId agent = static_cast<AgentId>(rng.NextBelow(opt.nodes));
    NodeId to = static_cast<NodeId>(rng.NextBelow(opt.nodes));
    cluster.engine()->AtGlobal(when, [&cluster, agent, to] {
      (void)cluster.MoveAgent(agent, to, nullptr);
    });
  }
  SyntheticReport report = workload.Run();
  EXPECT_TRUE(report.mutually_consistent);
  EXPECT_GT(report.metrics.committed, 0u);
  if (GetParam().protocol == MoveProtocol::kMoveWithData ||
      GetParam().protocol == MoveProtocol::kMoveWithSeqNum) {
    EXPECT_TRUE(report.property_ok) << report.property_detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, MovePartitionSweep,
    ::testing::Values(
        MoveSweepParam{21, MoveProtocol::kMoveWithData},
        MoveSweepParam{22, MoveProtocol::kMoveWithData},
        MoveSweepParam{23, MoveProtocol::kMoveWithSeqNum},
        MoveSweepParam{24, MoveProtocol::kMoveWithSeqNum},
        MoveSweepParam{25, MoveProtocol::kOmitPrep},
        MoveSweepParam{26, MoveProtocol::kOmitPrep},
        MoveSweepParam{27, MoveProtocol::kOmitPrep}));

}  // namespace
}  // namespace fragdb

#include "core/multi_fragment.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "verify/checkers.h"

namespace fragdb {
namespace {

struct MultiFixture : ::testing::Test {
  MultiFixture() {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    cluster = std::make_unique<Cluster>(config,
                                        Topology::FullMesh(3, Millis(5)));
    f0 = cluster->DefineFragment("F0");
    f1 = cluster->DefineFragment("F1");
    a = *cluster->DefineObject(f0, "a", 100);
    b = *cluster->DefineObject(f1, "b", 0);
    alice = cluster->DefineUserAgent("alice");
    bob = cluster->DefineUserAgent("bob");
    EXPECT_TRUE(cluster->AssignToken(f0, alice).ok());
    EXPECT_TRUE(cluster->AssignToken(f1, bob).ok());
    EXPECT_TRUE(cluster->SetAgentHome(alice, 0).ok());
    EXPECT_TRUE(cluster->SetAgentHome(bob, 1).ok());
    EXPECT_TRUE(cluster->Start().ok());
  }
  std::unique_ptr<Cluster> cluster;
  FragmentId f0, f1;
  ObjectId a, b;
  AgentId alice, bob;
};

TEST_F(MultiFixture, TransfersAcrossFragments) {
  // Move 40 units from a (alice's fragment) to b (bob's fragment): the
  // §3.2 footnote's 2PC-among-agents sketch.
  MultiFragmentCoordinator coord(cluster.get());
  MultiFragmentResult out;
  ObjectId oa = a, ob = b;
  coord.Submit(alice, {a, b},
               [oa, ob](const std::vector<Value>& reads)
                   -> Result<std::vector<WriteOp>> {
                 return std::vector<WriteOp>{{oa, reads[0] - 40},
                                             {ob, reads[1] + 40}};
               },
               "transfer", [&](MultiFragmentResult r) { out = std::move(r); });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.parts.size(), 2u);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, a), 60);
    EXPECT_EQ(cluster->ReadAt(n, b), 40);
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(MultiFixture, AbortsWhenAnInvolvedAgentIsUnreachable) {
  ASSERT_TRUE(cluster->Partition({{0, 2}, {1}}).ok());
  MultiFragmentCoordinator coord(cluster.get());
  MultiFragmentResult out;
  ObjectId oa = a, ob = b;
  coord.Submit(alice, {a},
               [oa, ob](const std::vector<Value>& reads)
                   -> Result<std::vector<WriteOp>> {
                 return std::vector<WriteOp>{{oa, reads[0] - 1},
                                             {ob, 1}};
               },
               "transfer", [&](MultiFragmentResult r) { out = std::move(r); });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.IsUnavailable());
  // No effects anywhere.
  EXPECT_EQ(cluster->ReadAt(0, a), 100);
  EXPECT_EQ(cluster->ReadAt(1, b), 0);
}

TEST_F(MultiFixture, BodyDeclinePropagates) {
  MultiFragmentCoordinator coord(cluster.get());
  MultiFragmentResult out;
  coord.Submit(alice, {a},
               [](const std::vector<Value>&) -> Result<std::vector<WriteOp>> {
                 return Status::FailedPrecondition("no");
               },
               "declined", [&](MultiFragmentResult r) { out = std::move(r); });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.IsFailedPrecondition());
}

TEST_F(MultiFixture, SingleFragmentWritesDegradeToNormalCommit) {
  MultiFragmentCoordinator coord(cluster.get());
  MultiFragmentResult out;
  ObjectId oa = a;
  coord.Submit(alice, {a},
               [oa](const std::vector<Value>& reads)
                   -> Result<std::vector<WriteOp>> {
                 return std::vector<WriteOp>{{oa, reads[0] + 1}};
               },
               "bump", [&](MultiFragmentResult r) { out = std::move(r); });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.parts.size(), 1u);
  EXPECT_EQ(cluster->ReadAt(2, a), 101);
}

TEST_F(MultiFixture, EmptyWriteSetIsTrivialSuccess) {
  MultiFragmentCoordinator coord(cluster.get());
  MultiFragmentResult out;
  out.status = Status::Internal("unset");
  coord.Submit(alice, {a},
               [](const std::vector<Value>&) -> Result<std::vector<WriteOp>> {
                 return std::vector<WriteOp>{};
               },
               "noop", [&](MultiFragmentResult r) { out = std::move(r); });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  EXPECT_TRUE(out.parts.empty());
}

// §4.3 airline with a stop-over: a traveler books both legs of a
// connection as one multi-fragment transaction (leg 0 homed at node 0,
// leg 1 at node 1, the traveler's own record at its home), while node 1
// is cut off for a while. The hand-off to the legs' agents and the join
// of their parts cross PDES partitions, so the whole run must come out
// byte-identical on one worker and on four.
std::string RunStopoverItineraries(int threads) {
  constexpr int kNodes = 6;
  constexpr int kTravelers = 4;
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  config.engine.threads = threads;
  Cluster cluster(config, Topology::FullMesh(kNodes, Millis(5)));
  std::vector<ObjectId> legs;
  for (int leg = 0; leg < 2; ++leg) {
    FragmentId f = cluster.DefineFragment("leg" + std::to_string(leg));
    legs.push_back(*cluster.DefineObject(f, "sold" + std::to_string(leg), 0));
    AgentId agent = cluster.DefineUserAgent("flight" + std::to_string(leg));
    EXPECT_TRUE(cluster.AssignToken(f, agent).ok());
    EXPECT_TRUE(cluster.SetAgentHome(agent, leg).ok());
  }
  std::vector<ObjectId> booked;
  std::vector<AgentId> travelers;
  for (int i = 0; i < kTravelers; ++i) {
    FragmentId f = cluster.DefineFragment("trips" + std::to_string(i));
    booked.push_back(*cluster.DefineObject(f, "booked" + std::to_string(i), 0));
    travelers.push_back(cluster.DefineUserAgent("t" + std::to_string(i)));
    EXPECT_TRUE(cluster.AssignToken(f, travelers[i]).ok());
    EXPECT_TRUE(cluster.SetAgentHome(travelers[i], 2 + i).ok());
  }
  EXPECT_TRUE(cluster.Start().ok());

  MultiFragmentCoordinator coord(&cluster);
  // Completions join in global events, so one shared log is safe.
  std::ostringstream log;
  for (int i = 0; i < kTravelers; ++i) {
    for (SimTime t = Millis(1 + i); t < Millis(200); t += Millis(12)) {
      cluster.engine()->AtNode(2 + i, t, [&, i] {
        ObjectId l0 = legs[0], l1 = legs[1], mine = booked[i];
        coord.Submit(
            travelers[i], {l0, l1, mine},
            [l0, l1, mine](const std::vector<Value>& reads)
                -> Result<std::vector<WriteOp>> {
              return std::vector<WriteOp>{{l0, reads[0] + 1},
                                          {l1, reads[1] + 1},
                                          {mine, reads[2] + 1}};
            },
            "stopover", [&log, i](MultiFragmentResult r) {
              log << "t" << i << ":" << r.status.ToString();
              for (const TxnResult& part : r.parts) {
                log << "," << part.id << "@" << part.frag_seq;
              }
              log << "\n";
            });
      });
    }
  }
  cluster.engine()->AtGlobal(Millis(50), [&cluster] {
    EXPECT_TRUE(cluster.Partition({{1}, {0, 2, 3, 4, 5}}).ok());
  });
  cluster.engine()->AtGlobal(Millis(110), [&cluster] { cluster.HealAll(); });
  cluster.RunToQuiescence();

  EXPECT_TRUE(CheckMutualConsistency(cluster.Replicas()).ok);
  EXPECT_TRUE(cluster.CheckConfiguredProperty().ok);
  std::string out = log.str();
  EXPECT_NE(out.find(":OK,"), std::string::npos);
  EXPECT_NE(out.find(":Unavailable"), std::string::npos);
  for (NodeId n = 0; n < kNodes; ++n) {
    out += "N" + std::to_string(n) + "=" +
           std::to_string(cluster.ReadAt(n, legs[0])) + "/" +
           std::to_string(cluster.ReadAt(n, legs[1])) + "\n";
  }
  return out;
}

TEST(MultiFragmentPdesTest, StopoverItinerariesIdenticalAtOneAndFourThreads) {
  EXPECT_EQ(RunStopoverItineraries(4), RunStopoverItineraries(1));
}

}  // namespace
}  // namespace fragdb

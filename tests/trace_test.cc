#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/cluster.h"

namespace fragdb {
namespace {

struct TraceFixture : ::testing::Test {
  TraceFixture() {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    config.move_protocol = MoveProtocol::kOmitPrep;
    config.observability.tracing = true;
    cluster = std::make_unique<Cluster>(config,
                                        Topology::FullMesh(3, Millis(5)));
    frag = cluster->DefineFragment("F");
    x = *cluster->DefineObject(frag, "x", 0);
    agent = cluster->DefineUserAgent("mover");
    EXPECT_TRUE(cluster->AssignToken(frag, agent).ok());
    EXPECT_TRUE(cluster->SetAgentHome(agent, 0).ok());
    EXPECT_TRUE(cluster->Start().ok());
  }

  int Count(const std::string& kind) const {
    int n = 0;
    for (const auto& ev : cluster->tracer()->events()) {
      if (ev.kind == kind) ++n;
    }
    return n;
  }
  std::optional<TraceEvent> First(const std::string& kind) const {
    for (const auto& ev : cluster->tracer()->events()) {
      if (ev.kind == kind) return ev;
    }
    return std::nullopt;
  }

  void Update(Value v, TxnResult* out = nullptr) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = frag;
    spec.label = "bump";
    ObjectId obj = x;
    spec.body = [obj, v](const std::vector<Value>&)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{obj, v}};
    };
    cluster->Submit(spec, [out](const TxnResult& r) {
      if (out) *out = r;
    });
  }

  std::unique_ptr<Cluster> cluster;
  FragmentId frag;
  ObjectId x;
  AgentId agent;
};

TEST_F(TraceFixture, CommitLifecycleTraced) {
  Update(5);
  cluster->RunToQuiescence();
  EXPECT_EQ(Count("submit"), 1);
  EXPECT_EQ(Count("commit"), 1);
  std::optional<TraceEvent> submit = First("submit");
  ASSERT_TRUE(submit.has_value());
  EXPECT_NE(submit->detail.find("bump"), std::string::npos);
  EXPECT_NE(submit->detail.find("N0"), std::string::npos);
}

TEST_F(TraceFixture, DeclineTraced) {
  TxnSpec spec;
  spec.agent = agent;
  spec.write_fragment = frag;
  spec.body = [](const std::vector<Value>&) -> Result<std::vector<WriteOp>> {
    return Status::FailedPrecondition("no");
  };
  cluster->Submit(spec, nullptr);
  cluster->RunToQuiescence();
  EXPECT_EQ(Count("decline"), 1);
  EXPECT_EQ(Count("commit"), 0);
}

TEST_F(TraceFixture, PartitionHealAndMoveTraced) {
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2}}).ok());
  Update(1);
  cluster->RunFor(Millis(10));
  ASSERT_TRUE(cluster->MoveAgent(agent, 2, nullptr).ok());
  cluster->RunFor(Millis(50));
  cluster->HealAll();
  cluster->RunToQuiescence();
  EXPECT_EQ(Count("partition"), 1);
  EXPECT_EQ(Count("heal"), 1);
  EXPECT_EQ(Count("move-start"), 1);
  EXPECT_EQ(Count("move-finish"), 1);
  EXPECT_GE(Count("repackage"), 1);  // the trapped update surfaced
  std::optional<TraceEvent> part = First("partition");
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->detail, "{0}{1,2}");
  std::optional<TraceEvent> move = First("move-start");
  ASSERT_TRUE(move.has_value());
  EXPECT_NE(move->detail.find("mover"), std::string::npos);
  EXPECT_NE(move->detail.find("omit-prep"), std::string::npos);
}

TEST_F(TraceFixture, TracerCanBeCleared) {
  Update(9);
  cluster->RunToQuiescence();
  EXPECT_EQ(Count("commit"), 1);
  cluster->tracer()->Clear();
  EXPECT_TRUE(cluster->tracer()->events().empty());
  Update(10);
  cluster->RunToQuiescence();
  EXPECT_EQ(Count("commit"), 1);
}

TEST_F(TraceFixture, EventsCarrySimTime) {
  cluster->RunFor(Millis(30));
  Update(1);
  cluster->RunToQuiescence();
  std::optional<TraceEvent> submit = First("submit");
  ASSERT_TRUE(submit.has_value());
  EXPECT_GE(submit->at, Millis(30));
  std::optional<TraceEvent> commit = First("commit");
  ASSERT_TRUE(commit.has_value());
  EXPECT_GE(commit->at, submit->at);
}

}  // namespace
}  // namespace fragdb

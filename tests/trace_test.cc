#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
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

// A pinned flight-recorder dump of a short Paxos Commit run: every
// "paxos-decide" and "install" record renders its detail from the event's
// own fields at dump time, and the bytes must not drift. The capacity is
// small enough that the busiest rings wrap.
constexpr char kPinnedPaxosFlightDump[] = R"dump({"name":"paxos-propose","ph":"i","s":"p","ts":2100,"pid":0,"tid":8,"args":{"fragment":0,"seq":2,"detail":"T8 ballot=0"}}
{"name":"submit","ph":"i","s":"p","ts":4000,"pid":0,"tid":12,"args":{"fragment":0,"seq":0,"detail":"T12 add at N0"}}
{"name":"paxos-propose","ph":"i","s":"p","ts":4100,"pid":0,"tid":12,"args":{"fragment":0,"seq":3,"detail":"T12 ballot=0"}}
{"name":"paxos-decide","ph":"i","s":"p","ts":10100,"pid":0,"tid":4,"args":{"fragment":0,"seq":1,"detail":"T4 commit"}}
{"name":"paxos-decide","ph":"i","s":"p","ts":12100,"pid":0,"tid":8,"args":{"fragment":0,"seq":2,"detail":"T8 commit"}}
{"name":"paxos-decide","ph":"i","s":"p","ts":14100,"pid":0,"tid":12,"args":{"fragment":0,"seq":3,"detail":"T12 commit"}}
{"name":"paxos-decide","ph":"i","s":"p","ts":15100,"pid":1,"tid":4,"args":{"fragment":0,"seq":1,"detail":"T4 commit"}}
{"name":"paxos-decide","ph":"i","s":"p","ts":15100,"pid":2,"tid":4,"args":{"fragment":0,"seq":1,"detail":"T4 commit"}}
{"name":"install","ph":"i","s":"p","ts":15150,"pid":1,"tid":4,"args":{"fragment":0,"seq":1,"detail":"T4 seq=1 at N1"}}
{"name":"install","ph":"i","s":"p","ts":15150,"pid":2,"tid":4,"args":{"fragment":0,"seq":1,"detail":"T4 seq=1 at N2"}}
{"name":"paxos-decide","ph":"i","s":"p","ts":17100,"pid":1,"tid":8,"args":{"fragment":0,"seq":2,"detail":"T8 commit"}}
{"name":"paxos-decide","ph":"i","s":"p","ts":17100,"pid":2,"tid":8,"args":{"fragment":0,"seq":2,"detail":"T8 commit"}}
{"name":"install","ph":"i","s":"p","ts":17150,"pid":1,"tid":8,"args":{"fragment":0,"seq":2,"detail":"T8 seq=2 at N1"}}
{"name":"install","ph":"i","s":"p","ts":17150,"pid":2,"tid":8,"args":{"fragment":0,"seq":2,"detail":"T8 seq=2 at N2"}}
{"name":"paxos-decide","ph":"i","s":"p","ts":19100,"pid":1,"tid":12,"args":{"fragment":0,"seq":3,"detail":"T12 commit"}}
{"name":"paxos-decide","ph":"i","s":"p","ts":19100,"pid":2,"tid":12,"args":{"fragment":0,"seq":3,"detail":"T12 commit"}}
{"name":"install","ph":"i","s":"p","ts":19150,"pid":1,"tid":12,"args":{"fragment":0,"seq":3,"detail":"T12 seq=3 at N1"}}
{"name":"install","ph":"i","s":"p","ts":19150,"pid":2,"tid":12,"args":{"fragment":0,"seq":3,"detail":"T12 seq=3 at N2"}}
)dump";

TEST(FlightRecorderPinTest, PaxosCommitDumpIsPinned) {
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  config.move_protocol = MoveProtocol::kPaxosCommit;
  config.observability.flight_recorder = true;
  config.observability.flight_recorder_capacity = 6;
  Cluster cluster(config, Topology::FullMesh(3, Millis(5)));
  FragmentId frag = cluster.DefineFragment("F");
  ObjectId x = *cluster.DefineObject(frag, "x", 0);
  AgentId agent = cluster.DefineUserAgent("owner");
  ASSERT_TRUE(cluster.AssignToken(frag, agent).ok());
  ASSERT_TRUE(cluster.SetAgentHome(agent, 0).ok());
  ASSERT_TRUE(cluster.Start().ok());
  for (Value v : {3, 4, 5}) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = frag;
    spec.label = "add";
    spec.read_set = {x};
    spec.body = [x, v](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{x, reads[0] + v}};
    };
    cluster.Submit(spec, nullptr);
    cluster.RunFor(Millis(2));
  }
  cluster.RunToQuiescence();
  ASSERT_EQ(cluster.ReadAt(2, x), 12);

  const std::string dump = cluster.flight_recorder()->ToJsonl();
  EXPECT_NE(dump.find("\"name\":\"paxos-decide\""), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"install\""), std::string::npos);
  EXPECT_EQ(dump, kPinnedPaxosFlightDump) << dump;
}

}  // namespace
}  // namespace fragdb

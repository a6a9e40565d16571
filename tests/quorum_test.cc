// ControlOption::kQuorum: per-fragment read/write quorums with R + W > N.
// Writes commit at the home as usual but the client hears back only once W
// replicas have installed; reads gather from R replicas and serve the
// freshest version seen, so any read quorum intersects any write quorum.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/cluster.h"
#include "sim/engine.h"
#include "verify/checkers.h"

namespace fragdb {
namespace {

EngineConfig Pdes(int threads) {
  EngineConfig e;
  e.threads = threads;
  return e;
}

struct QuorumFixture : ::testing::Test {
  // Builds a 5-node full mesh with one fragment F = {x} whose owning agent
  // lives at node 0. Returns Start()'s status so validation tests can
  // assert rejection; on success the cluster is ready to drive.
  Status Build(int read_quorum, int write_quorum,
               MoveProtocol protocol = MoveProtocol::kForbidden,
               EngineConfig engine = EngineConfig{},
               std::vector<NodeId> replica_set = {}) {
    ClusterConfig config;
    config.control = ControlOption::kQuorum;
    config.move_protocol = protocol;
    config.read_quorum = read_quorum;
    config.write_quorum = write_quorum;
    config.engine = engine;
    config.durability.enabled = true;  // amnesia crashes need it
    cluster =
        std::make_unique<Cluster>(config, Topology::FullMesh(5, Millis(5)));
    frag = cluster->DefineFragment("F");
    x = *cluster->DefineObject(frag, "x", 0);
    agent = cluster->DefineUserAgent("owner");
    Status st = cluster->AssignToken(frag, agent);
    if (!st.ok()) return st;
    st = cluster->SetAgentHome(agent, 0);
    if (!st.ok()) return st;
    if (!replica_set.empty()) {
      st = cluster->SetReplicaSet(frag, std::move(replica_set));
      if (!st.ok()) return st;
    }
    return cluster->Start();
  }
  void Update(Value v, TxnResult* out = nullptr) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = frag;
    ObjectId obj = x;
    spec.read_set = {obj};
    spec.body = [obj, v](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{obj, reads[0] + v}};
    };
    cluster->Submit(spec, [this, out](const TxnResult& r) {
      ++callbacks;
      if (out) *out = r;
    });
  }
  void ReadOnlyAt(NodeId node, TxnResult* out) {
    TxnSpec probe;
    probe.agent = kInvalidAgent;
    probe.read_set = {x};
    cluster->SubmitReadOnlyAt(node, probe, [this, out](const TxnResult& r) {
      ++callbacks;
      *out = r;
    });
  }
  std::unique_ptr<Cluster> cluster;
  int callbacks = 0;
  FragmentId frag;
  ObjectId x;
  AgentId agent;
};

TEST_F(QuorumFixture, StartRejectsNonIntersectingQuorums) {
  // R + W = 5 = N: a read quorum and a write quorum could be disjoint, so
  // a read might miss the latest write entirely.
  Status st = Build(2, 3);
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_NE(st.ToString().find("R+W>N"), std::string::npos) << st.ToString();
}

TEST_F(QuorumFixture, StartRejectsOversizedQuorum) {
  Status st = Build(1, 6);  // W > N is unsatisfiable
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
}

TEST_F(QuorumFixture, StartRejectsQuorumWithAgentMoves) {
  // Quorum control has no token hand-over story; moves must stay off.
  Status st = Build(3, 3, MoveProtocol::kMajorityCommit);
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_NE(st.ToString().find("MoveProtocol::kForbidden"), std::string::npos)
      << st.ToString();
}

TEST_F(QuorumFixture, ZeroConfigMeansMajorityQuorums) {
  ASSERT_TRUE(Build(0, 0).ok());
  EXPECT_EQ(cluster->ReadQuorumFor(frag), 3);
  EXPECT_EQ(cluster->WriteQuorumFor(frag), 3);
}

TEST_F(QuorumFixture, WriteAckArrivesOnceWReplicasInstalled) {
  ASSERT_TRUE(Build(1, 5).ok());
  TxnResult out;
  Update(7, &out);
  cluster->RunToQuiescence();
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  ASSERT_EQ(cluster->history().quorum_writes().size(), 1u);
  EXPECT_GE(cluster->history().quorum_writes()[0].acks, 5);
  EXPECT_TRUE(CheckQuorumFreshness(cluster->history()).ok);
}

TEST_F(QuorumFixture, WriteAckTimesOutWhenWUnreachableButCommitStands) {
  ASSERT_TRUE(Build(1, 5).ok());
  ASSERT_TRUE(cluster->Partition({{0, 1, 2, 3}, {4}}).ok());
  TxnResult out;
  Update(7, &out);
  cluster->RunToQuiescence();
  // W=5 cannot be met with node 4 cut off: the client is told so, but the
  // commit is not undone — the write keeps propagating.
  EXPECT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
  EXPECT_NE(out.status.ToString().find("write quorum"), std::string::npos);
  EXPECT_EQ(cluster->ReadAt(0, x), 7);
  cluster->HealAll();
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->ReadAt(4, x), 7);
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(CheckQuorumFreshness(cluster->history()).ok);
}

TEST_F(QuorumFixture, ReadGathersFreshestVersionAcrossR) {
  // R=2, W=4: the write never reaches node 4, but every 2-of-5 read quorum
  // overlaps the 4-node write quorum, so reads see the write regardless of
  // which replicas answer.
  ASSERT_TRUE(Build(2, 4).ok());
  ASSERT_TRUE(cluster->Partition({{0, 1, 2, 3}, {4}}).ok());
  TxnResult w;
  Update(5, &w);
  cluster->RunToQuiescence();
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  TxnResult r;
  ReadOnlyAt(3, &r);
  cluster->RunToQuiescence();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(r.reads.size(), 1u);
  EXPECT_EQ(r.reads[0], 5);
  cluster->HealAll();
  cluster->RunToQuiescence();
  EXPECT_TRUE(CheckQuorumFreshness(cluster->history()).ok);
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(QuorumFixture, ReadTimesOutWithoutRReachableReplicas) {
  ASSERT_TRUE(Build(3, 3).ok());
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3, 4}}).ok());
  TxnResult out;
  ReadOnlyAt(0, &out);  // node 0 alone cannot assemble R=3
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
  EXPECT_NE(out.status.ToString().find("quorum read"), std::string::npos);
}

TEST_F(QuorumFixture, ReadAtReplicalessNodeGathersRemotely) {
  // F lives on {0,1,2} only; R=W=2 of N=3 intersect.
  ASSERT_TRUE(Build(2, 2, MoveProtocol::kForbidden, EngineConfig{}, {0, 1, 2})
                  .ok());
  TxnResult w;
  Update(9, &w);
  cluster->RunToQuiescence();
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  // Node 4 holds no copy of F, yet a quorum read there is legal: it
  // assembles the value from R remote replicas.
  TxnResult r;
  ReadOnlyAt(4, &r);
  cluster->RunToQuiescence();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(r.reads.size(), 1u);
  EXPECT_EQ(r.reads[0], 9);
  EXPECT_TRUE(CheckQuorumFreshness(cluster->history()).ok);
}

TEST_F(QuorumFixture, AmnesiaCrashDropsPendingWriteAndReadWaits) {
  // 5 ms links: at t=2 ms node 0 has committed the write and sent its read
  // requests, but no installed-ack or read reply is back. The crash wipes
  // both waits: neither callback may fire, not even from a timeout.
  ASSERT_TRUE(Build(3, 3).ok());
  TxnResult w, r;
  Update(7, &w);
  ReadOnlyAt(0, &r);
  cluster->RunFor(Millis(2));
  ASSERT_EQ(callbacks, 0);  // both waits are pending
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  cluster->RunToQuiescence();
  EXPECT_EQ(callbacks, 0);
}

TEST_F(QuorumFixture, QuorumRunsOnParallelEngine) {
  ASSERT_TRUE(Build(2, 4, MoveProtocol::kForbidden, Pdes(2)).ok());
  for (int i = 0; i < 4; ++i) Update(1);
  cluster->RunToQuiescence();
  TxnResult r;
  ReadOnlyAt(2, &r);
  cluster->RunToQuiescence();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(r.reads.size(), 1u);
  EXPECT_EQ(r.reads[0], 4);
  EXPECT_TRUE(CheckQuorumFreshness(cluster->history()).ok);
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

}  // namespace
}  // namespace fragdb

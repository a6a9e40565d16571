#include "core/cluster.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace fragdb {
namespace {

/// Two-fragment, three-node fixture: alice owns F0 at node 0, bob owns F1
/// at node 1; node 2 is a pure replica.
struct ClusterFixture : ::testing::Test {
  void Build(ControlOption control,
             MoveProtocol move = MoveProtocol::kForbidden) {
    ClusterConfig config;
    config.control = control;
    config.move_protocol = move;
    cluster = std::make_unique<Cluster>(config,
                                        Topology::FullMesh(3, Millis(5)));
    f0 = cluster->DefineFragment("F0");
    f1 = cluster->DefineFragment("F1");
    a = *cluster->DefineObject(f0, "a", 100);
    b = *cluster->DefineObject(f1, "b", 200);
    alice = cluster->DefineUserAgent("alice");
    bob = cluster->DefineUserAgent("bob");
    ASSERT_TRUE(cluster->AssignToken(f0, alice).ok());
    ASSERT_TRUE(cluster->AssignToken(f1, bob).ok());
    ASSERT_TRUE(cluster->SetAgentHome(alice, 0).ok());
    ASSERT_TRUE(cluster->SetAgentHome(bob, 1).ok());
    ASSERT_TRUE(cluster->DeclareRead(f0, f1).ok());
    ASSERT_TRUE(cluster->Start().ok());
  }

  TxnSpec UpdateSpec(AgentId agent, FragmentId f, ObjectId obj, Value delta) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = f;
    spec.read_set = {obj};
    spec.body = [obj, delta](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{obj, reads[0] + delta}};
    };
    spec.label = "update";
    return spec;
  }

  std::unique_ptr<Cluster> cluster;
  FragmentId f0, f1;
  ObjectId a, b;
  AgentId alice, bob;
};

TEST_F(ClusterFixture, StartRejectsFragmentWithoutAgent) {
  ClusterConfig config;
  Cluster c(config, Topology::FullMesh(2, Millis(1)));
  c.DefineFragment("orphan");
  EXPECT_TRUE(c.Start().IsFailedPrecondition());
}

TEST_F(ClusterFixture, StartRejectsCyclicRagUnderAcyclicOption) {
  ClusterConfig config;
  config.control = ControlOption::kAcyclicReads;
  Cluster c(config, Topology::FullMesh(2, Millis(1)));
  FragmentId x = c.DefineFragment("X");
  FragmentId y = c.DefineFragment("Y");
  AgentId u = c.DefineUserAgent("u");
  AgentId v = c.DefineUserAgent("v");
  ASSERT_TRUE(c.AssignToken(x, u).ok());
  ASSERT_TRUE(c.AssignToken(y, v).ok());
  ASSERT_TRUE(c.SetAgentHome(u, 0).ok());
  ASSERT_TRUE(c.SetAgentHome(v, 1).ok());
  ASSERT_TRUE(c.DeclareRead(x, y).ok());
  ASSERT_TRUE(c.DeclareRead(y, x).ok());
  EXPECT_TRUE(c.Start().IsFailedPrecondition());
}

TEST_F(ClusterFixture, UpdateCommitsAndPropagatesToAllReplicas) {
  Build(ControlOption::kFragmentwise);
  TxnResult out;
  cluster->Submit(UpdateSpec(alice, f0, a, -40),
                  [&](const TxnResult& r) { out = r; });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.frag_seq, 1);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, a), 60) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(ClusterFixture, InitiationRequirementRejectsForeignToken) {
  Build(ControlOption::kFragmentwise);
  TxnResult out;
  cluster->Submit(UpdateSpec(alice, f1, b, 1),
                  [&](const TxnResult& r) { out = r; });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.IsPermissionDenied());
  EXPECT_EQ(cluster->ReadAt(1, b), 200);
}

TEST_F(ClusterFixture, SequentialUpdatesKeepOrderEverywhere) {
  Build(ControlOption::kFragmentwise);
  int committed = 0;
  for (int i = 0; i < 5; ++i) {
    cluster->Submit(UpdateSpec(alice, f0, a, 1), [&](const TxnResult& r) {
      if (r.status.ok()) ++committed;
    });
  }
  cluster->RunToQuiescence();
  EXPECT_EQ(committed, 5);
  for (NodeId n = 0; n < 3; ++n) EXPECT_EQ(cluster->ReadAt(n, a), 105);
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
}

TEST_F(ClusterFixture, UpdatesDuringPartitionPropagateAfterHeal) {
  Build(ControlOption::kFragmentwise);
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2}}).ok());
  TxnResult out;
  cluster->Submit(UpdateSpec(alice, f0, a, -40),
                  [&](const TxnResult& r) { out = r; });
  cluster->RunFor(Millis(100));
  EXPECT_TRUE(out.status.ok());          // committed locally at once
  EXPECT_EQ(cluster->ReadAt(0, a), 60);  // home updated
  EXPECT_EQ(cluster->ReadAt(1, a), 100);  // replica stale during partition
  cluster->HealAll();
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->ReadAt(1, a), 60);
  EXPECT_EQ(cluster->ReadAt(2, a), 60);
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(ClusterFixture, ReadOnlyAnywhereUnderFragmentwise) {
  Build(ControlOption::kFragmentwise);
  TxnSpec spec;
  spec.agent = kInvalidAgent;
  spec.read_set = {a, b};
  TxnResult out;
  cluster->SubmitReadOnlyAt(2, spec, [&](const TxnResult& r) { out = r; });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  ASSERT_EQ(out.reads.size(), 2u);
  EXPECT_EQ(out.reads[0], 100);
  EXPECT_EQ(out.reads[1], 200);
}

TEST_F(ClusterFixture, BodyDeclineReportsFailedPrecondition) {
  Build(ControlOption::kFragmentwise);
  TxnSpec spec;
  spec.agent = alice;
  spec.write_fragment = f0;
  spec.read_set = {a};
  spec.body = [](const std::vector<Value>&) -> Result<std::vector<WriteOp>> {
    return Status::FailedPrecondition("declined");
  };
  TxnResult out;
  cluster->Submit(spec, [&](const TxnResult& r) { out = r; });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.IsFailedPrecondition());
  EXPECT_EQ(cluster->ReadAt(0, a), 100);
}

TEST_F(ClusterFixture, AcyclicOptionRejectsUndeclaredRead) {
  Build(ControlOption::kAcyclicReads);
  // Alice reading F1 is declared; bob reading F0 is not.
  TxnSpec spec;
  spec.agent = bob;
  spec.write_fragment = f1;
  spec.read_set = {a};  // F0: undeclared for type F1
  spec.body = [this](const std::vector<Value>&)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{b, 1}};
  };
  TxnResult out;
  cluster->Submit(spec, [&](const TxnResult& r) { out = r; });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.IsPermissionDenied());
}

TEST_F(ClusterFixture, AcyclicOptionAllowsDeclaredRead) {
  Build(ControlOption::kAcyclicReads);
  TxnSpec spec;
  spec.agent = alice;
  spec.write_fragment = f0;
  spec.read_set = {b};  // declared: F0 reads F1
  spec.body = [this](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{a, reads[0] + 1}};
  };
  TxnResult out;
  cluster->Submit(spec, [&](const TxnResult& r) { out = r; });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(cluster->ReadAt(0, a), 201);
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
}

TEST_F(ClusterFixture, ReadLocksBlockDuringPartition) {
  Build(ControlOption::kReadLocks);
  ASSERT_TRUE(cluster->Partition({{0, 2}, {1}}).ok());
  // Alice needs a read lock from bob's home (node 1) — unreachable.
  TxnSpec spec;
  spec.agent = alice;
  spec.write_fragment = f0;
  spec.read_set = {b};
  spec.body = [this](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{a, reads[0]}};
  };
  TxnResult out;
  cluster->Submit(spec, [&](const TxnResult& r) { out = r; });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.IsUnavailable());
  EXPECT_EQ(cluster->ReadAt(0, a), 100);  // no effect
}

TEST_F(ClusterFixture, ReadLocksSucceedWhenConnected) {
  Build(ControlOption::kReadLocks);
  TxnSpec spec;
  spec.agent = alice;
  spec.write_fragment = f0;
  spec.read_set = {b};
  spec.body = [this](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{a, reads[0] + 5}};
  };
  TxnResult out;
  cluster->Submit(spec, [&](const TxnResult& r) { out = r; });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(cluster->ReadAt(0, a), 205);
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
  // The remote lock is released afterwards: bob can update F1.
  TxnResult out2;
  cluster->Submit(UpdateSpec(bob, f1, b, 1),
                  [&](const TxnResult& r) { out2 = r; });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out2.status.ok());
}

TEST_F(ClusterFixture, LocalUpdatesStayAvailableUnderReadLocksOption) {
  // §4.1 still allows updates that read only their own fragment.
  Build(ControlOption::kReadLocks);
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2}}).ok());
  TxnResult out;
  cluster->Submit(UpdateSpec(alice, f0, a, -1),
                  [&](const TxnResult& r) { out = r; });
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(cluster->ReadAt(0, a), 99);
}

TEST_F(ClusterFixture, MoveForbiddenByDefault) {
  Build(ControlOption::kFragmentwise);
  Status st = cluster->MoveAgent(alice, 2, nullptr);
  EXPECT_TRUE(st.IsPermissionDenied());
}

TEST_F(ClusterFixture, SubmitWithUnknownAgentFails) {
  Build(ControlOption::kFragmentwise);
  TxnSpec spec = UpdateSpec(42, f0, a, 1);
  TxnResult out;
  cluster->Submit(spec, [&](const TxnResult& r) { out = r; });
  cluster->RunToQuiescence();
  EXPECT_FALSE(out.status.ok());
}

TEST_F(ClusterFixture, HistoryRecordsCommitsAndInstalls) {
  Build(ControlOption::kFragmentwise);
  cluster->Submit(UpdateSpec(alice, f0, a, 1), [](const TxnResult&) {});
  cluster->RunToQuiescence();
  const History& h = cluster->history();
  ASSERT_EQ(h.txns().size(), 1u);
  EXPECT_TRUE(h.txns().begin()->second.committed);
  // Installed at the home plus two replicas.
  EXPECT_EQ(h.installs().size(), 3u);
}

TEST_F(ClusterFixture, NetStatsCountPropagation) {
  Build(ControlOption::kFragmentwise);
  cluster->Submit(UpdateSpec(alice, f0, a, 1), [](const TxnResult&) {});
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->net_stats().messages_sent, 2u);  // one quasi to each
}


TEST_F(ClusterFixture, NonconformingReadOnlyAllowedWithOptIn) {
  // Paper §4.2: read-only transactions violating the read-access graph
  // "can be allowed" when the application tolerates non-serializable
  // output. The opt-in flag enables exactly that.
  ClusterConfig config;
  config.control = ControlOption::kAcyclicReads;
  config.allow_nonconforming_readonly = true;
  Cluster c(config, Topology::FullMesh(2, Millis(1)));
  FragmentId x = c.DefineFragment("X");
  FragmentId y = c.DefineFragment("Y");
  ObjectId ox = *c.DefineObject(x, "ox", 1);
  ObjectId oy = *c.DefineObject(y, "oy", 2);
  AgentId u = c.DefineUserAgent("u");
  AgentId v = c.DefineUserAgent("v");
  ASSERT_TRUE(c.AssignToken(x, u).ok());
  ASSERT_TRUE(c.AssignToken(y, v).ok());
  ASSERT_TRUE(c.SetAgentHome(u, 0).ok());
  ASSERT_TRUE(c.SetAgentHome(v, 1).ok());
  // No DeclareRead at all: the RAG is empty (trivially acyclic).
  ASSERT_TRUE(c.Start().ok());
  TxnSpec probe;
  probe.agent = kInvalidAgent;
  probe.read_set = {ox, oy};  // spans two fragments, undeclared
  TxnResult out;
  c.SubmitReadOnlyAt(0, probe, [&](const TxnResult& r) { out = r; });
  c.RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  ASSERT_EQ(out.reads.size(), 2u);
  EXPECT_EQ(out.reads[0], 1);
  EXPECT_EQ(out.reads[1], 2);
  // An UPDATE with an undeclared read stays forbidden even with the flag.
  TxnSpec update;
  update.agent = u;
  update.write_fragment = x;
  update.read_set = {oy};
  update.body = [ox](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{ox, reads[0]}};
  };
  TxnResult out2;
  c.Submit(update, [&](const TxnResult& r) { out2 = r; });
  c.RunToQuiescence();
  EXPECT_TRUE(out2.status.IsPermissionDenied());
}

// Commits are recorded in the acting node's history shard and may land in
// another shard than their registration; the registered-before-committed
// check runs when the shards are folded together at the end of a run.
using ClusterHistoryDeathTest = ClusterFixture;

TEST_F(ClusterHistoryDeathTest, CommitJoinsRegistrationFromAnotherShard) {
  Build(ControlOption::kFragmentwise);
  TxnRecord rec;
  rec.id = 900001;
  rec.agent = alice;
  rec.type_fragment = f0;
  rec.home = 0;
  cluster->HistorySink(0).RegisterTxn(rec);
  cluster->MarkCommittedAt(2, rec.id, 7);
  cluster->RunToQuiescence();
  const TxnRecord* merged = cluster->history().FindTxn(rec.id);
  ASSERT_NE(merged, nullptr);
  EXPECT_TRUE(merged->committed);
  EXPECT_EQ(merged->frag_seq, 7);
  EXPECT_EQ(merged->home, 0);
}

TEST_F(ClusterHistoryDeathTest, UnregisteredCommitAbortsTheCollapse) {
  Build(ControlOption::kFragmentwise);
  cluster->Submit(UpdateSpec(alice, f0, a, 1), nullptr);
  cluster->RunToQuiescence();
  // A commit mark with no registration anywhere.
  cluster->MarkCommittedAt(1, 900002, 1);
  EXPECT_DEATH(cluster->RunToQuiescence(), "registered");
}

}  // namespace
}  // namespace fragdb

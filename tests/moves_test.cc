#include <gtest/gtest.h>

#include <memory>

#include "core/cluster.h"
#include "verify/checkers.h"
#include "workload/banking.h"

namespace fragdb {
namespace {

/// One user agent owning one fragment with two objects, on four nodes.
struct MoveFixture : ::testing::Test {
  void Build(MoveProtocol protocol) {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    config.move_protocol = protocol;
    config.agent_travel_time = Millis(20);
    cluster = std::make_unique<Cluster>(config,
                                        Topology::FullMesh(4, Millis(5)));
    frag = cluster->DefineFragment("F");
    x = *cluster->DefineObject(frag, "x", 0);
    y = *cluster->DefineObject(frag, "y", 0);
    agent = cluster->DefineUserAgent("mover");
    ASSERT_TRUE(cluster->AssignToken(frag, agent).ok());
    ASSERT_TRUE(cluster->SetAgentHome(agent, 0).ok());
    ASSERT_TRUE(cluster->Start().ok());
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

  std::unique_ptr<Cluster> cluster;
  FragmentId frag;
  ObjectId x, y;
  AgentId agent;
};

TEST_F(MoveFixture, MoveWithDataResumesImmediately) {
  Build(MoveProtocol::kMoveWithData);
  TxnResult before;
  Update(x, 10, &before);
  cluster->RunToQuiescence();
  ASSERT_TRUE(before.status.ok());

  Status move_status = Status::Internal("not called");
  ASSERT_TRUE(cluster
                  ->MoveAgent(agent, 2,
                              [&](Status st) { move_status = st; })
                  .ok());
  cluster->RunToQuiescence();
  EXPECT_TRUE(move_status.ok());
  EXPECT_EQ(*cluster->catalog().HomeOf(agent), 2);

  TxnResult after;
  Update(y, 20, &after);
  cluster->RunToQuiescence();
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(after.frag_seq, before.frag_seq + 1);  // contiguous stream
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 10);
    EXPECT_EQ(cluster->ReadAt(n, y), 20);
  }
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(MoveFixture, MoveWithDataCarriesUnpropagatedState) {
  Build(MoveProtocol::kMoveWithData);
  // Node 0 commits while partitioned from everyone: the quasi-transactions
  // are queued. The agent then carries the data to node 2 and updates
  // there — T2 must not be visible anywhere before T1 (paper §4.4.2A).
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3}}).ok());
  TxnResult t1;
  Update(x, 1, &t1);
  cluster->RunFor(Millis(10));
  ASSERT_TRUE(t1.status.ok());
  // The agent physically moves across the partition with the tape.
  ASSERT_TRUE(cluster->MoveAgent(agent, 2, nullptr).ok());
  cluster->RunFor(Millis(50));
  EXPECT_EQ(*cluster->catalog().HomeOf(agent), 2);
  // Node 2 already sees T1's effect — it came with the agent.
  EXPECT_EQ(cluster->ReadAt(2, x), 1);
  TxnResult t2;
  Update(y, 2, &t2);
  cluster->RunFor(Millis(50));
  EXPECT_TRUE(t2.status.ok());
  EXPECT_EQ(t2.frag_seq, t1.frag_seq + 1);
  // Node 3 received T2 only after T1 (T1 came via the carried snapshot's
  // origin broadcast being queued; T2 is held back until T1 arrives).
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 1) << "node " << n;
    EXPECT_EQ(cluster->ReadAt(n, y), 2) << "node " << n;
  }
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(MoveFixture, MoveWithDataCarriesTheCommitThatReleasedTheDrain) {
  Build(MoveProtocol::kMoveWithData);
  // The new home misses T1's broadcast until after the agent arrives, so
  // it knows T1 only through what the agent carries.
  ASSERT_TRUE(cluster->Partition({{0, 1, 3}, {2}}).ok());
  TxnResult t1;
  Update(x, 1, &t1);
  // T1 holds the fragment lock while it runs; the move's drain queues
  // behind it and is granted by T1's lock release.
  cluster->RunFor(Micros(50));
  ASSERT_TRUE(cluster->MoveAgent(agent, 2, nullptr).ok());
  cluster->RunFor(Millis(30));
  ASSERT_TRUE(t1.status.ok());
  EXPECT_EQ(*cluster->catalog().HomeOf(agent), 2);
  EXPECT_EQ(cluster->runtime(2).stream(frag).next_seq, t1.frag_seq + 1);
  cluster->HealAll();
  TxnResult t2;
  Update(y, 2, &t2);
  cluster->RunToQuiescence();
  ASSERT_TRUE(t2.status.ok());
  EXPECT_EQ(t2.frag_seq, t1.frag_seq + 1);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 1) << "node " << n;
    EXPECT_EQ(cluster->ReadAt(n, y), 2) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(MoveFixture, MoveWithSeqNumWaitsForCatchUp) {
  Build(MoveProtocol::kMoveWithSeqNum);
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3}}).ok());
  TxnResult t1;
  Update(x, 1, &t1);
  cluster->RunFor(Millis(10));
  ASSERT_TRUE(t1.status.ok());
  ASSERT_TRUE(cluster->MoveAgent(agent, 2, nullptr).ok());
  cluster->RunFor(Millis(100));
  // The agent has arrived but node 2 has not seen T1 (still partitioned
  // from node 0), so the agent is still waiting and updates are queued.
  bool t2_done = false;
  TxnResult t2;
  {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = frag;
    ObjectId obj = y;
    spec.body = [obj](const std::vector<Value>&)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{obj, 2}};
    };
    cluster->Submit(spec, [&](const TxnResult& r) {
      t2 = r;
      t2_done = true;
    });
  }
  cluster->RunFor(Millis(100));
  EXPECT_FALSE(t2_done);  // still queued behind the catch-up
  EXPECT_EQ(cluster->ReadAt(2, y), 0);
  // Heal: T1 propagates, catch-up completes, the queued update runs.
  cluster->HealAll();
  cluster->RunToQuiescence();
  ASSERT_TRUE(t2_done);
  EXPECT_TRUE(t2.status.ok());
  EXPECT_EQ(t2.frag_seq, t1.frag_seq + 1);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 1);
    EXPECT_EQ(cluster->ReadAt(n, y), 2);
  }
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(MoveFixture, MajorityCommitRequiresMajorityForUpdates) {
  Build(MoveProtocol::kMajorityCommit);
  // Majority side: commits succeed.
  ASSERT_TRUE(cluster->Partition({{0, 1, 2}, {3}}).ok());
  TxnResult ok_result;
  Update(x, 5, &ok_result);
  cluster->RunToQuiescence();
  EXPECT_TRUE(ok_result.status.ok());
  // Minority side: the agent's home ends up isolated; updates time out.
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3}}).ok());
  TxnResult blocked;
  Update(y, 6, &blocked);
  cluster->RunToQuiescence();
  EXPECT_TRUE(blocked.status.IsUnavailable());
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 5);
    EXPECT_EQ(cluster->ReadAt(n, y), 0);  // the blocked update aborted
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
}

TEST_F(MoveFixture, MajorityCommitMoveCatchesUpFromMajority) {
  Build(MoveProtocol::kMajorityCommit);
  TxnResult t1;
  Update(x, 7, &t1);
  cluster->RunToQuiescence();
  ASSERT_TRUE(t1.status.ok());
  // Partition the OLD home away; the move target plus the rest form a
  // majority that has seen T1 (it was majority-committed), so the new
  // home can reconstruct the stream without the old home.
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3}}).ok());
  Status move_status = Status::Internal("pending");
  ASSERT_TRUE(cluster
                  ->MoveAgent(agent, 2,
                              [&](Status st) { move_status = st; })
                  .ok());
  cluster->RunToQuiescence();
  EXPECT_TRUE(move_status.ok());
  TxnResult t2;
  Update(y, 8, &t2);
  cluster->RunToQuiescence();
  EXPECT_TRUE(t2.status.ok());
  EXPECT_EQ(t2.frag_seq, t1.frag_seq + 1);  // single uninterrupted sequence
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7);
    EXPECT_EQ(cluster->ReadAt(n, y), 8);
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(MoveFixture, OmitPrepMovesImmediatelyAndConverges) {
  Build(MoveProtocol::kOmitPrep);
  // T1 commits at node 0 while partitioned: nobody else sees it.
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3}}).ok());
  TxnResult t1;
  Update(x, 1, &t1);
  cluster->RunFor(Millis(10));
  ASSERT_TRUE(t1.status.ok());
  // The agent moves to node 2 and resumes IMMEDIATELY (no waiting).
  Status move_status = Status::Internal("pending");
  ASSERT_TRUE(cluster
                  ->MoveAgent(agent, 2,
                              [&](Status st) { move_status = st; })
                  .ok());
  cluster->RunFor(Millis(50));
  EXPECT_TRUE(move_status.ok());
  TxnResult t2;
  Update(y, 2, &t2);
  cluster->RunFor(Millis(50));
  EXPECT_TRUE(t2.status.ok());  // availability preserved: this is the point
  // T1 is a missing transaction. After healing, it reaches the new home,
  // which repackages it (x was never overwritten in the new epoch, so the
  // write survives), and all replicas converge.
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 1) << "node " << n;
    EXPECT_EQ(cluster->ReadAt(n, y), 2) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(MoveFixture, OmitPrepDropsOverwrittenMissingWrites) {
  Build(MoveProtocol::kOmitPrep);
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3}}).ok());
  TxnResult t1;
  Update(x, 111, &t1);  // will be missing
  cluster->RunFor(Millis(10));
  ASSERT_TRUE(t1.status.ok());
  ASSERT_TRUE(cluster->MoveAgent(agent, 2, nullptr).ok());
  cluster->RunFor(Millis(50));
  TxnResult t2;
  Update(x, 222, &t2);  // new epoch overwrites x
  cluster->RunFor(Millis(50));
  ASSERT_TRUE(t2.status.ok());
  cluster->HealAll();
  cluster->RunToQuiescence();
  // §4.4.3 A(2): T1's write to x was overwritten by a more recent
  // transaction, so the repackaged transaction drops it; the new value
  // wins everywhere. 111 must appear NOWHERE.
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 222) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(MoveFixture, AgentInTransitIsUnavailable) {
  Build(MoveProtocol::kMoveWithData);
  ASSERT_TRUE(cluster->MoveAgent(agent, 3, nullptr).ok());
  TxnResult during;
  Update(x, 1, &during);
  cluster->RunFor(Millis(5));  // still traveling (travel = 20ms)
  EXPECT_TRUE(during.status.IsUnavailable());
  cluster->RunToQuiescence();
}

TEST_F(MoveFixture, DoubleMoveRejectedWhileMoving) {
  Build(MoveProtocol::kMoveWithData);
  ASSERT_TRUE(cluster->MoveAgent(agent, 3, nullptr).ok());
  EXPECT_TRUE(cluster->MoveAgent(agent, 1, nullptr).IsFailedPrecondition());
  cluster->RunToQuiescence();
  EXPECT_EQ(*cluster->catalog().HomeOf(agent), 3);
  // Settled again: a second move is fine now.
  EXPECT_TRUE(cluster->MoveAgent(agent, 1, nullptr).ok());
  cluster->RunToQuiescence();
  EXPECT_EQ(*cluster->catalog().HomeOf(agent), 1);
}

TEST_F(MoveFixture, MoveToSameNodeIsNoOp) {
  Build(MoveProtocol::kMoveWithData);
  bool done = false;
  ASSERT_TRUE(cluster->MoveAgent(agent, 0, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  }).ok());
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// The paper's §2/§4.4.3 banking walk-through: the moving customer makes
// the second withdrawal on the far side of a partition; the lost record
// is repackaged, re-entered, and the central office fines the overdraft —
// exactly once, centrally.
// ---------------------------------------------------------------------------

TEST(BankingMoveTest, OverdraftViaOmitPrepMoveFinedOnceCentrally) {
  BankingWorkload::Options opt;
  opt.nodes = 3;
  opt.accounts = 1;
  opt.central_node = 0;
  opt.overdraft_fine = 50;
  opt.move_protocol = MoveProtocol::kOmitPrep;
  opt.customer_home = [](int) { return 1; };
  BankingWorkload bank(opt);
  ASSERT_TRUE(bank.Start().ok());
  Cluster& cluster = bank.cluster();

  // Partition node 1 (customer's home) away from {0, 2}.
  ASSERT_TRUE(cluster.Partition({{1}, {0, 2}}).ok());
  // Withdrawal 1 at node 1: local view 300, granted. Nobody else sees it.
  TxnResult w1;
  bank.Withdraw(0, 200, [&](const TxnResult& r) { w1 = r; });
  cluster.RunFor(Millis(10));
  ASSERT_TRUE(w1.status.ok());
  // The customer (with the token in their pocket) travels to node 2 and
  // withdraws again: node 2's view is still 300, so it is granted too.
  ASSERT_TRUE(bank.MoveCustomer(0, 2, nullptr).ok());
  cluster.RunFor(Millis(50));
  TxnResult w2;
  bank.Withdraw(0, 200, [&](const TxnResult& r) { w2 = r; });
  cluster.RunFor(Millis(50));
  ASSERT_TRUE(w2.status.ok());

  // Heal: the missing withdrawal surfaces at the new home, is re-entered
  // by the corrective action, and the central office folds everything in.
  cluster.HealAll();
  cluster.RunToQuiescence();
  bank.RunCentralScan(nullptr);
  cluster.RunToQuiescence();

  // 300 - 200 - 200 = -100, fined 50 => -150, assessed exactly once.
  EXPECT_EQ(bank.CentralBalance(0), -150);
  EXPECT_EQ(bank.fines_assessed(), 1);
  EXPECT_TRUE(bank.VerifyAccounting().ok());
  EXPECT_TRUE(CheckMutualConsistency(cluster.Replicas()).ok);
}

}  // namespace
}  // namespace fragdb

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

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
// §4.4.1 catch-up: an arriving home sends one RecoveryQuery to the union of
// its tokens' replica sets and reopens once a majority of each token's
// replicas has answered and it has applied the highest position reported.
// ---------------------------------------------------------------------------

/// Majority commit on five nodes (5 ms links); each agent owns one or more
/// fragments of one object each.
struct MajorityCatchUpFixture : ::testing::Test {
  void SetUp() override {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    config.move_protocol = MoveProtocol::kMajorityCommit;
    config.agent_travel_time = Millis(20);
    cluster = std::make_unique<Cluster>(config,
                                        Topology::FullMesh(5, Millis(5)));
  }

  /// Defines fragment `name` (replicated at `replicas`, or everywhere when
  /// empty) with one object, owned by `agent`.
  void AddToken(AgentId agent, const std::string& name,
                std::vector<NodeId> replicas = {}) {
    FragmentId f = cluster->DefineFragment(name);
    objects[f] = *cluster->DefineObject(f, name + ".x", 0);
    ASSERT_TRUE(cluster->AssignToken(f, agent).ok());
    if (!replicas.empty()) {
      ASSERT_TRUE(cluster->SetReplicaSet(f, std::move(replicas)).ok());
    }
  }

  AgentId AddAgent(const std::string& name, NodeId home) {
    AgentId a = cluster->DefineUserAgent(name);
    EXPECT_TRUE(cluster->SetAgentHome(a, home).ok());
    return a;
  }

  /// Adds `v` to fragment f's object through its agent.
  void Update(AgentId agent, FragmentId f, Value v, TxnResult* out) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = f;
    ObjectId obj = objects.at(f);
    spec.read_set = {obj};
    spec.body = [obj, v](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{obj, reads[0] + v}};
    };
    cluster->Submit(spec, [out](const TxnResult& r) {
      if (out) *out = r;
    });
  }

  /// Moves `agent` to `to` and records when (and how) the move finished.
  void Move(AgentId agent, NodeId to, Status* status, SimTime* reopened) {
    ASSERT_TRUE(cluster
                    ->MoveAgent(agent, to,
                                [this, status, reopened](Status st) {
                                  *status = st;
                                  *reopened = cluster->Now();
                                })
                    .ok());
  }

  /// Fragmentwise SR, and every fragment's replicas agree.
  void ExpectSound() {
    EXPECT_TRUE(CheckFragmentwiseSerializability(
                    cluster->history(), cluster->catalog().fragment_count())
                    .ok);
    EXPECT_TRUE(cluster->CheckReplicaSetConsistency().ok);
  }

  std::unique_ptr<Cluster> cluster;
  std::map<FragmentId, ObjectId> objects;
};

TEST_F(MajorityCatchUpFixture, TwoAgentsMovingToOneNodeBothReopen) {
  AgentId a = AddAgent("a", 0);
  AgentId b = AddAgent("b", 1);
  AddToken(a, "A");
  AddToken(b, "B");
  ASSERT_TRUE(cluster->Start().ok());
  const FragmentId fa = 0, fb = 1;
  Update(a, fa, 1, nullptr);
  Update(b, fb, 10, nullptr);
  cluster->RunToQuiescence();

  Status sa = Status::Internal("pending"), sb = Status::Internal("pending");
  SimTime ta = -1, tb = -1;
  Move(a, 2, &sa, &ta);
  Move(b, 2, &sb, &tb);
  cluster->RunToQuiescence();
  EXPECT_TRUE(sa.ok());
  EXPECT_TRUE(sb.ok());

  TxnResult ra, rb;
  Update(a, fa, 2, &ra);
  Update(b, fb, 20, &rb);
  cluster->RunToQuiescence();
  EXPECT_TRUE(ra.status.ok());
  EXPECT_TRUE(rb.status.ok());
  EXPECT_EQ(ra.frag_seq, 2);
  EXPECT_EQ(rb.frag_seq, 2);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, objects[fa]), 3) << "node " << n;
    EXPECT_EQ(cluster->ReadAt(n, objects[fb]), 30) << "node " << n;
  }
  ExpectSound();
}

TEST_F(MajorityCatchUpFixture, RecoverAgentOverlappingMoveToSameNode) {
  AgentId a = AddAgent("a", 0);
  AgentId b = AddAgent("b", 1);
  AddToken(a, "A");
  AddToken(b, "B");
  ASSERT_TRUE(cluster->Start().ok());
  const FragmentId fa = 0, fb = 1;
  Update(a, fa, 1, nullptr);
  Update(b, fb, 10, nullptr);
  cluster->RunToQuiescence();

  // a's home dies; its token is reconstituted at node 2 while b moves
  // there too.
  ASSERT_TRUE(cluster->SetNodeUp(0, false).ok());
  Status sa = Status::Internal("pending"), sb = Status::Internal("pending");
  SimTime tb = -1;
  ASSERT_TRUE(
      cluster->RecoverAgent(a, 2, [&](Status st) { sa = st; }).ok());
  Move(b, 2, &sb, &tb);
  cluster->RunToQuiescence();
  EXPECT_TRUE(sa.ok());
  EXPECT_TRUE(sb.ok());

  TxnResult ra, rb;
  Update(a, fa, 2, &ra);
  Update(b, fb, 20, &rb);
  cluster->RunToQuiescence();
  EXPECT_TRUE(ra.status.ok());
  EXPECT_TRUE(rb.status.ok());
  ASSERT_TRUE(cluster->SetNodeUp(0, true).ok());
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, objects[fa]), 3) << "node " << n;
    EXPECT_EQ(cluster->ReadAt(n, objects[fb]), 30) << "node " << n;
  }
  ExpectSound();
}

// One fault-free move, pinned: the new home reopens travel + one query
// round after the move starts when it is already current, and no later
// when it is behind, because the replies carry the missing suffix (a
// separate fetch round would make the second move 45 ms).
TEST_F(MajorityCatchUpFixture, ReopenTimeWhenCurrentAndWhenBehind) {
  AgentId a = AddAgent("a", 0);
  AddToken(a, "A");
  ASSERT_TRUE(cluster->Start().ok());
  const FragmentId fa = 0;
  Update(a, fa, 1, nullptr);
  cluster->RunToQuiescence();

  Status st = Status::Internal("pending");
  SimTime reopened = -1;
  SimTime start = cluster->Now();
  Move(a, 2, &st, &reopened);
  cluster->RunToQuiescence();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(reopened - start, Millis(35));

  // Node 3 hears the home (now node 2) 50 ms late, so it is one commit
  // behind when the agent arrives there.
  cluster->network().SetChannelExtraDelay(2, 3, Millis(50));
  TxnResult r;
  Update(a, fa, 1, &r);
  cluster->RunFor(Millis(15));
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(cluster->runtime(3).stream(fa).applied_seq, 1);
  st = Status::Internal("pending");
  start = cluster->Now();
  Move(a, 3, &st, &reopened);
  cluster->RunToQuiescence();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(reopened - start, Millis(35));
  ExpectSound();
}

// A commit is still in flight when the agent leaves: two replicas have it
// prepared only, one has installed it. The replies of the prepared-only
// replicas form the majority; the freshest arrives after them, while the
// new home is still installing, and raises the target. Its reply carries
// the missing commit, so the move completes with the old home cut off.
TEST_F(MajorityCatchUpFixture, FreshestReplicaAnsweringAfterTheMajority) {
  AgentId a = AddAgent("a", 0);
  AddToken(a, "A");
  ASSERT_TRUE(cluster->Start().ok());
  const FragmentId fa = 0;
  // Node 2, the new home, hears the old home 200 ms late throughout.
  cluster->network().SetChannelExtraDelay(0, 2, Millis(200));
  Update(a, fa, 1, nullptr);
  Update(a, fa, 1, nullptr);
  cluster->RunFor(Millis(50));
  ASSERT_EQ(cluster->runtime(1).stream(fa).applied_seq, 2);
  ASSERT_EQ(cluster->runtime(2).stream(fa).applied_seq, 0);

  // T3 commits on the acks of nodes 4 and 1 or 3; its commit reaches
  // node 4 at once and nodes 1 and 3 only 40 ms later.
  cluster->network().SetChannelExtraDelay(0, 1, Millis(40));
  cluster->network().SetChannelExtraDelay(0, 3, Millis(40));
  TxnResult t3;
  Update(a, fa, 1, &t3);
  cluster->RunFor(Millis(51));
  ASSERT_TRUE(t3.status.ok());
  ASSERT_EQ(t3.frag_seq, 3);

  Status st = Status::Internal("pending");
  SimTime reopened = -1;
  Move(a, 2, &st, &reopened);
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3, 4}}).ok());
  cluster->RunFor(Millis(25));
  EXPECT_EQ(cluster->runtime(1).stream(fa).applied_seq, 2);
  EXPECT_EQ(cluster->runtime(3).stream(fa).applied_seq, 2);
  EXPECT_EQ(cluster->runtime(4).stream(fa).applied_seq, 3);
  cluster->RunFor(Millis(100));
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(cluster->runtime(2).stream(fa).applied_seq, 3);

  TxnResult t4;
  Update(a, fa, 1, &t4);
  cluster->RunFor(Millis(100));
  EXPECT_TRUE(t4.status.ok());
  EXPECT_EQ(t4.frag_seq, 4);
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, objects[fa]), 4) << "node " << n;
  }
  ExpectSound();
}

// The agent's tokens have different replica sets, so each reply covers
// only some of them and each token counts its own majority.
TEST_F(MajorityCatchUpFixture, TwoTokenAgentWithDifferentReplicaSetsMoves) {
  AgentId a = AddAgent("a", 0);
  AddToken(a, "A", {0, 1, 2});
  AddToken(a, "B", {0, 2, 3, 4});
  ASSERT_TRUE(cluster->Start().ok());
  const FragmentId fa = 0, fb = 1;
  // The new home lags the old one, so both tokens need catching up.
  cluster->network().SetChannelExtraDelay(0, 2, Millis(200));
  Update(a, fa, 1, nullptr);
  Update(a, fb, 10, nullptr);
  cluster->RunFor(Millis(50));
  ASSERT_EQ(cluster->runtime(2).stream(fa).applied_seq, 0);
  ASSERT_EQ(cluster->runtime(2).stream(fb).applied_seq, 0);

  Status st = Status::Internal("pending");
  SimTime reopened = -1;
  Move(a, 2, &st, &reopened);
  cluster->RunFor(Millis(100));
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(cluster->runtime(2).stream(fa).applied_seq, 1);
  EXPECT_EQ(cluster->runtime(2).stream(fb).applied_seq, 1);

  TxnResult ra, rb;
  Update(a, fa, 2, &ra);
  Update(a, fb, 20, &rb);
  cluster->RunToQuiescence();
  EXPECT_TRUE(ra.status.ok());
  EXPECT_TRUE(rb.status.ok());
  EXPECT_EQ(ra.frag_seq, 2);
  EXPECT_EQ(rb.frag_seq, 2);
  for (NodeId n : {0, 1, 2}) {
    EXPECT_EQ(cluster->ReadAt(n, objects[fa]), 3) << "node " << n;
  }
  for (NodeId n : {0, 2, 3, 4}) {
    EXPECT_EQ(cluster->ReadAt(n, objects[fb]), 30) << "node " << n;
  }
  ExpectSound();
}

// An amnesia crash of the new home wipes its catch-up session. The move
// reports Unavailable and leaves the agent settled at the crashed node, so
// the token can be reconstituted elsewhere (before, the agent stayed
// "moving" forever and every later move or recovery was refused; seed 1 of
// a MajorityMoveAmnesiaFuzz sweep found it).
TEST(MajorityCatchUpCrashTest, AmnesiaCrashOfTheNewHomeFailsTheMove) {
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  config.move_protocol = MoveProtocol::kMajorityCommit;
  config.agent_travel_time = Millis(20);
  config.durability.enabled = true;
  Cluster cluster(config, Topology::FullMesh(5, Millis(5)));
  FragmentId f = cluster.DefineFragment("F");
  ObjectId x = *cluster.DefineObject(f, "x", 0);
  AgentId agent = cluster.DefineUserAgent("a");
  ASSERT_TRUE(cluster.AssignToken(f, agent).ok());
  ASSERT_TRUE(cluster.SetAgentHome(agent, 0).ok());
  ASSERT_TRUE(cluster.Start().ok());
  auto update = [&](Value v, TxnResult* out) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = f;
    spec.read_set = {x};
    spec.body = [x, v](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{x, reads[0] + v}};
    };
    cluster.Submit(spec, [out](const TxnResult& r) { *out = r; });
  };
  TxnResult t1;
  update(1, &t1);
  cluster.RunToQuiescence();
  ASSERT_TRUE(t1.status.ok());

  Status moved = Status::Internal("pending");
  ASSERT_TRUE(
      cluster.MoveAgent(agent, 2, [&](Status st) { moved = st; }).ok());
  // The agent has arrived; the replies are still on the wire.
  cluster.RunFor(Millis(25));
  ASSERT_EQ(*cluster.catalog().HomeOf(agent), 2);
  ASSERT_TRUE(moved.IsInternal());
  ASSERT_TRUE(cluster.CrashNode(2, CrashMode::kAmnesia).ok());
  EXPECT_TRUE(moved.IsUnavailable());

  Status recovered = Status::Internal("pending");
  ASSERT_TRUE(cluster
                  .RecoverAgent(agent, 3,
                                [&](Status st) { recovered = st; })
                  .ok());
  cluster.RunFor(Millis(100));
  EXPECT_TRUE(recovered.ok());
  TxnResult t2;
  update(2, &t2);
  cluster.RunFor(Millis(100));
  EXPECT_TRUE(t2.status.ok());
  ASSERT_TRUE(cluster.ReviveNode(2, nullptr).ok());
  cluster.RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster.ReadAt(n, x), 3) << "node " << n;
  }
  EXPECT_TRUE(CheckFragmentwiseSerializability(
                  cluster.history(), cluster.catalog().fragment_count())
                  .ok);
  EXPECT_TRUE(cluster.CheckReplicaSetConsistency().ok);
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

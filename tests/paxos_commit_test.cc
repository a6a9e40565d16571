// MoveProtocol::kPaxosCommit: every commit is decided by an acceptor
// majority (Gray & Lamport's Paxos Commit), so a coordinator crash between
// prepare and decision never strands a replica — the recovery rounds finish
// the commit that 2PC/kMajorityCommit would leave blocked.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cc/lock_manager.h"
#include "core/cluster.h"
#include "core/messages.h"
#include "recovery/checkpoint.h"
#include "recovery/node_durability.h"
#include "recovery/wal.h"
#include "sim/engine.h"
#include "verify/checkers.h"

namespace fragdb {
namespace {

EngineConfig Pdes(int threads) {
  EngineConfig e;
  e.threads = threads;
  return e;
}

QuasiTxn MakeQuasi(SeqNum seq, std::vector<WriteOp> writes) {
  QuasiTxn q;
  q.fragment = 3;
  q.origin_txn = 40 + seq;
  q.seq = seq;
  q.origin_node = 1;
  q.origin_time = Millis(seq);
  q.writes = std::move(writes);
  return q;
}

TEST(PaxosWalTest, PaxosSlotRecordRoundTrips) {
  // The coordinator's BeginCommit record: carries the full value, so a
  // revived home can drive the decision even when the crash beat the
  // accept broadcast.
  WalRecord slot;
  slot.type = WalRecord::Type::kPaxosSlot;
  slot.fragment = 3;
  slot.epoch = 2;
  slot.quasi = MakeQuasi(7, {{100, 41}, {101, 42}});
  WalRecord quasi;
  quasi.type = WalRecord::Type::kQuasi;
  quasi.fragment = 3;
  quasi.epoch = 2;
  quasi.quasi = MakeQuasi(7, {{100, 41}, {101, 42}});
  std::string bytes = EncodeWalRecord(slot) + EncodeWalRecord(quasi);
  WalScan scan = ScanWal(bytes);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].type, WalRecord::Type::kPaxosSlot);
  EXPECT_EQ(scan.records[1].type, WalRecord::Type::kQuasi);
  for (const WalRecord& r : scan.records) {
    EXPECT_EQ(r.fragment, 3);
    EXPECT_EQ(r.epoch, 2);
    EXPECT_EQ(r.quasi.seq, 7);
    EXPECT_EQ(r.quasi.origin_txn, 47);
    ASSERT_EQ(r.quasi.writes.size(), 2u);
    EXPECT_EQ(r.quasi.writes[1].object, 101);
    EXPECT_EQ(r.quasi.writes[1].value, 42);
  }
}

struct PaxosCommitFixture : ::testing::Test {
  void Build(MoveProtocol protocol, bool durable = false,
             EngineConfig engine = EngineConfig{}) {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    config.move_protocol = protocol;
    config.durability.enabled = durable;
    config.engine = engine;
    cluster =
        std::make_unique<Cluster>(config, Topology::FullMesh(5, Millis(5)));
    frag = cluster->DefineFragment("F");
    x = *cluster->DefineObject(frag, "x", 0);
    agent = cluster->DefineUserAgent("owner");
    ASSERT_TRUE(cluster->AssignToken(frag, agent).ok());
    ASSERT_TRUE(cluster->SetAgentHome(agent, 0).ok());
    ASSERT_TRUE(cluster->Start().ok());
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
    cluster->Submit(spec, [out](const TxnResult& r) {
      if (out) *out = r;
    });
  }
  std::unique_ptr<Cluster> cluster;
  FragmentId frag;
  ObjectId x;
  AgentId agent;
};

TEST_F(PaxosCommitFixture, AgentMovesAreRejected) {
  Build(MoveProtocol::kPaxosCommit);
  Status st = cluster->MoveAgent(agent, 3, [](Status) {});
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_NE(st.ToString().find("do not move agents"), std::string::npos)
      << st.ToString();
}

TEST_F(PaxosCommitFixture, CommitsWithAcceptorMajority) {
  Build(MoveProtocol::kPaxosCommit);
  // The home's side holds 3 of 5 nodes: enough acceptors.
  ASSERT_TRUE(cluster->Partition({{0, 1, 2}, {3, 4}}).ok());
  TxnResult out;
  Update(7, &out);
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(cluster->ReadAt(1, x), 7);
  cluster->HealAll();
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->ReadAt(4, x), 7);
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, MinoritySideTimesOutButCommitIsNeverAbandoned) {
  Build(MoveProtocol::kPaxosCommit);
  // Home side has 2 of 5: no majority, so the *client* times out — but the
  // value stays with the acceptors and the recovery rounds finish the
  // commit once connectivity returns.
  ASSERT_TRUE(cluster->Partition({{0, 1}, {2, 3, 4}}).ok());
  TxnResult out;
  Update(7, &out);
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
  EXPECT_NE(out.status.ToString().find("pending recovery"), std::string::npos);
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, CoordinatorCrashMidCommitDoesNotBlock) {
  Build(MoveProtocol::kPaxosCommit);
  Update(7);
  // One-way latency is 5ms: at t=7ms the accepts have landed at every
  // acceptor but the accepted-replies have not reached the home. Killing
  // the coordinator here is 2PC's classic blocking window.
  cluster->RunFor(Millis(7));
  ASSERT_TRUE(cluster->SetNodeUp(0, false).ok());
  cluster->RunToQuiescence();
  // The surviving acceptors' recovery rounds decide commit on their own.
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
  }
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok)
      << cluster->CheckCommitNonBlocking().detail;
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
}

TEST_F(PaxosCommitFixture, SameCrashBlocksMajorityCommit) {
  // Control experiment for the test above: identical crash under
  // kMajorityCommit leaves replicas holding a prepared update whose
  // outcome only the dead coordinator knew.
  Build(MoveProtocol::kMajorityCommit);
  Update(7);
  cluster->RunFor(Millis(7));
  ASSERT_TRUE(cluster->SetNodeUp(0, false).ok());
  cluster->RunToQuiescence();
  CheckReport blocked = cluster->CheckCommitNonBlocking();
  EXPECT_FALSE(blocked.ok);
  EXPECT_NE(blocked.detail.find("prepared"), std::string::npos)
      << blocked.detail;
}

TEST_F(PaxosCommitFixture, CoordinatorAmnesiaCrashConvergesAfterRevival) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/true);
  TxnResult out;
  Update(7, &out);
  // With durability on, the accept broadcast waits out the 500us fsync
  // window; accepts land at ~5.5ms. Crash at 7ms wipes the home's memory.
  cluster->RunFor(Millis(7));
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  cluster->RunFor(Millis(200));  // acceptors decide via recovery rounds
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
  }
  bool recovered = false;
  ASSERT_TRUE(
      cluster->ReviveNode(0, [&](const RecoveryStats&) { recovered = true; })
          .ok());
  cluster->RunToQuiescence();
  EXPECT_TRUE(recovered);
  EXPECT_EQ(cluster->ReadAt(0, x), 7);
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, AmnesiaInsideFsyncWindowForgetsCleanly) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/true);
  TxnResult out;
  Update(7, &out);
  // Crash before the 500us fsync: the staged BeginCommit record is lost,
  // and — critically — the accept broadcast was deferred past the fsync
  // window, so no acceptor ever saw the slot. The sequence number is
  // genuinely free for reuse; nothing can resurface.
  cluster->RunFor(Micros(200));
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 0) << "node " << n;
  }
  // The slot's seq is reused by fresh work without divergence.
  TxnResult again;
  Update(3, &again);
  cluster->RunToQuiescence();
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 3) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
}

TEST_F(PaxosCommitFixture, InDoubtSlotBlocksNewWorkUntilDecided) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/true);
  Update(7);
  cluster->RunFor(Millis(7));  // accepts delivered, outcome undecided
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  cluster->RunFor(Millis(1));
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  // Let local replay + peer catch-up finish, but stop short of the 100ms
  // paxos recovery tick: the replayed BeginCommit record marks the slot
  // in doubt, and its locks died with the crash, so new conflicting work
  // must be declined rather than risk reading past the pending write.
  cluster->RunFor(Millis(50));
  TxnResult blocked;
  Update(3, &blocked);
  cluster->RunFor(Millis(1));
  EXPECT_TRUE(blocked.status.IsUnavailable()) << blocked.status.ToString();
  EXPECT_NE(blocked.status.ToString().find("in doubt"), std::string::npos)
      << blocked.status.ToString();
  // Recovery rounds decide the slot; the fragment then accepts new work.
  cluster->RunToQuiescence();
  TxnResult after;
  Update(3, &after);
  cluster->RunToQuiescence();
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 10) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
}

TEST_F(PaxosCommitFixture, AmnesiaCancelsThePreCrashRecoveryTick) {
  // The schedule above: the home crashes with its slot's recovery tick
  // armed, and revival re-seats the slot from the WAL. Only the tick
  // revival arms may drive it: the pre-crash one must die with the wipe,
  // or the revived home runs two recovery rounds (two ballots) for it.
  Build(MoveProtocol::kPaxosCommit, /*durable=*/true);
  std::vector<uint64_t> home_ballots;
  cluster->network().SetSendObserver(
      [&home_ballots](const MessagePayload& p, size_t) {
        const auto* accept = dynamic_cast<const PaxosAccept*>(&p);
        if (accept == nullptr || accept->proposer != 0 ||
            accept->ballot == 0) {
          return;
        }
        if (home_ballots.empty() || home_ballots.back() != accept->ballot) {
          home_ballots.push_back(accept->ballot);
        }
      });
  Update(7);
  cluster->RunFor(Millis(7));
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  cluster->RunFor(Millis(1));
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  cluster->RunToQuiescence();
  EXPECT_EQ(home_ballots.size(), 1u);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
  }
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, BackToBackUpdatesEachAckAfterOneRoundTrip) {
  Build(MoveProtocol::kPaxosCommit);
  std::vector<SimTime> held;
  LockManager::Observer obs;
  obs.now = [this] { return cluster->Now(); };
  obs.on_release = [&held](ResourceId, SimTime h) { held.push_back(h); };
  cluster->runtime(0).locks().SetObserver(std::move(obs));
  TxnResult first, second;
  Update(7, &first);
  Update(5, &second);
  cluster->RunToQuiescence();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  // One round trip on the 5 ms mesh is 10 ms. The second update waits for
  // the fragment lock only while the first executes, not while it is
  // decided: both slots are in flight together.
  const SimTime exec = cluster->cfg().scheduler.exec_time;
  EXPECT_EQ(first.finished_at, Millis(10) + exec);
  EXPECT_EQ(second.finished_at, Millis(10) + 2 * exec);
  ASSERT_EQ(held.size(), 2u);
  for (SimTime h : held) EXPECT_EQ(h, exec);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 12) << "node " << n;
  }
  EXPECT_EQ(cluster->runtime(0).stream(frag).applied_seq, 2);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, AmnesiaWithTwoAppliedUndecidedSlotsDeclinesNewWork) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/true);
  Update(7);
  Update(5);
  // Each slot holds the lock for exec + the 500us kPaxosSlot fsync, so the
  // second proposes at 1.2ms. At 7ms both are applied at the home and
  // their accepts have landed, but neither has decided.
  cluster->RunFor(Millis(7));
  EXPECT_EQ(cluster->ReadAt(0, x), 12);
  EXPECT_EQ(cluster->runtime(0).stream(frag).applied_seq, 0);
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  cluster->RunFor(Millis(1));
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  // Replay marks both slots in doubt; the acceptors' recovery rounds (100ms
  // timeout) have not decided them yet, so new work is declined.
  cluster->RunFor(Millis(50));
  TxnResult blocked;
  Update(3, &blocked);
  cluster->RunFor(Millis(1));
  EXPECT_TRUE(blocked.status.IsUnavailable()) << blocked.status.ToString();
  EXPECT_NE(blocked.status.ToString().find("in doubt"), std::string::npos)
      << blocked.status.ToString();
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->runtime(0).stream(frag).applied_seq, 2);
  TxnResult after;
  Update(3, &after);
  cluster->RunToQuiescence();
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 15) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok)
      << cluster->CheckCommitNonBlocking().detail;
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok)
      << CheckCommitAtomicity(cluster->history()).detail;
}

TEST_F(PaxosCommitFixture, CheckpointOfAppliedUndecidedSlotSurvivesHomeCrash) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/true);
  Update(7);
  // Applied at the home at 0.6ms; the decide is due at 10.6ms. The forced
  // checkpoint captures the write now and publishes it 5ms later.
  cluster->RunFor(Millis(1));
  cluster->durability(0)->ForceCheckpoint();
  cluster->RunFor(Millis(6));
  CheckpointImage image;
  ASSERT_TRUE(CheckpointImage::Decode(
      cluster->stable_storage(0)->Read(kCheckpointFile), &image));
  EXPECT_EQ(image.versions[x].value, 7);
  EXPECT_EQ(image.StreamFor(frag).applied_seq, 0);
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  cluster->RunFor(Millis(1));
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
  }
  // The home installed the slot once per lifetime: at the propose, and
  // again once the recovered in-doubt slot decided.
  std::vector<int> home_installs;
  for (const InstallRecord& rec : cluster->history().installs()) {
    if (rec.node == 0 && rec.fragment == frag && rec.seq == 1) {
      home_installs.push_back(rec.incarnation);
    }
  }
  EXPECT_EQ(home_installs, (std::vector<int>{0, 1}));
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(CheckDecidedInstalls(cluster->history()).ok)
      << CheckDecidedInstalls(cluster->history()).detail;
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST(PaxosReadLocksTest, PlanLocksReleasedOnceAtProposeEvenOnClientTimeout) {
  // §4.1 read locks with Paxos Commit: alice updates F0 at node 0 under a
  // remote shared lock on F1 (homed at node 1). The home side {0, 1} holds
  // no acceptor majority, so the client times out after 200ms — but the
  // plan locks go as soon as the slot is proposed, and only once.
  ClusterConfig config;
  config.control = ControlOption::kReadLocks;
  config.move_protocol = MoveProtocol::kPaxosCommit;
  Cluster cluster(config, Topology::FullMesh(5, Millis(5)));
  FragmentId f0 = cluster.DefineFragment("F0");
  FragmentId f1 = cluster.DefineFragment("F1");
  ObjectId a = *cluster.DefineObject(f0, "a", 10);
  ObjectId b = *cluster.DefineObject(f1, "b", 20);
  AgentId alice = cluster.DefineUserAgent("alice");
  AgentId bob = cluster.DefineUserAgent("bob");
  ASSERT_TRUE(cluster.AssignToken(f0, alice).ok());
  ASSERT_TRUE(cluster.AssignToken(f1, bob).ok());
  ASSERT_TRUE(cluster.SetAgentHome(alice, 0).ok());
  ASSERT_TRUE(cluster.SetAgentHome(bob, 1).ok());
  ASSERT_TRUE(cluster.Start().ok());

  int lock_releases_sent = 0;
  cluster.network().SetSendObserver(
      [&lock_releases_sent](const MessagePayload& p, size_t) {
        if (dynamic_cast<const ReadLockRelease*>(&p) != nullptr) {
          ++lock_releases_sent;
        }
      });
  std::vector<SimTime> f1_released_at;
  LockManager::Observer obs;
  obs.now = [&cluster] { return cluster.Now(); };
  obs.on_release = [&](ResourceId r, SimTime) {
    if (r == FragmentResource(f1)) f1_released_at.push_back(cluster.Now());
  };
  cluster.runtime(1).locks().SetObserver(std::move(obs));

  ASSERT_TRUE(cluster.Partition({{0, 1}, {2, 3, 4}}).ok());
  TxnSpec spec;
  spec.agent = alice;
  spec.write_fragment = f0;
  spec.read_set = {a, b};
  spec.body = [a](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{a, reads[0] + reads[1]}};
  };
  TxnResult out;
  cluster.Submit(spec, [&out](const TxnResult& r) { out = r; });
  cluster.RunToQuiescence();
  EXPECT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
  EXPECT_EQ(lock_releases_sent, 1);
  // Granted at ~5ms, released by the propose at ~10ms, heard at ~15ms:
  // long before the 200ms client timeout.
  ASSERT_EQ(f1_released_at.size(), 1u);
  EXPECT_LT(f1_released_at[0], Millis(20));

  cluster.HealAll();
  cluster.RunToQuiescence();
  EXPECT_EQ(lock_releases_sent, 1);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster.ReadAt(n, a), 30) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster.Replicas()).ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster.history()).ok);
  EXPECT_TRUE(cluster.CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, FaultFreeRunHoldsNoDecidedSlot) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/false, Pdes(2));
  for (int i = 0; i < 10; ++i) {
    Update(1);
    cluster->RunFor(Millis(3));
  }
  // Mid-run only the slots of the last round trip are still in flight.
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_LE(cluster->PaxosSlotsHeld(n), 5u) << "node " << n;
  }
  for (int i = 0; i < 20; ++i) Update(1);
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 30) << "node " << n;
    EXPECT_EQ(cluster->PaxosSlotsHeld(n), 0u) << "node " << n;
    EXPECT_EQ(cluster->PaxosDecidedThrough(n, frag), 30) << "node " << n;
  }
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
}

TEST_F(PaxosCommitFixture, DecideCancelsTheRecoveryTimer) {
  Build(MoveProtocol::kPaxosCommit);
  TxnResult out;
  Update(7, &out);
  // Every acceptor armed a recovery tick at its accept. The decide cancels
  // it, so nothing is left to run once the slot has decided everywhere.
  cluster->RunToQuiescence();
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_LT(cluster->Now(), cluster->config().paxos_recovery_timeout);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
  }
}

TEST_F(PaxosCommitFixture, PrunedAcceptorsTeachStrandedProposerTheOutcome) {
  Build(MoveProtocol::kPaxosCommit);
  TxnResult out;
  Update(7, &out);
  // The accepts left at 0.1ms; isolate the home before any reply lands.
  cluster->RunFor(Millis(1));
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3, 4}}).ok());
  // The acceptors' recovery rounds decide the slot among themselves at
  // ~115ms, install it and drop it from their slot tables.
  cluster->RunFor(Millis(200));
  EXPECT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
    EXPECT_EQ(cluster->PaxosSlotsHeld(n), 0u) << "node " << n;
    EXPECT_EQ(cluster->PaxosDecidedThrough(n, frag), 1) << "node " << n;
  }
  EXPECT_EQ(cluster->PaxosSlotsHeld(0), 1u);
  EXPECT_EQ(cluster->runtime(0).stream(frag).applied_seq, 0);
  // Slow the acceptors' channels to the home, so the replies queued during
  // the split land only after the home's own recovery rounds reach the
  // acceptors — which must answer from the watermark with the outcome.
  for (NodeId n = 1; n < 5; ++n) {
    cluster->network().SetChannelExtraDelay(n, 0, Millis(300));
  }
  int outcomes_sent = 0;
  cluster->network().SetSendObserver(
      [&outcomes_sent](const MessagePayload& p, size_t) {
        if (dynamic_cast<const PaxosOutcome*>(&p) != nullptr) ++outcomes_sent;
      });
  cluster->HealAll();
  cluster->RunToQuiescence();
  // Only the pruned acceptors send outcomes after the heal: the home
  // learns from a delivered outcome and broadcasts none.
  EXPECT_GE(outcomes_sent, 4);
  EXPECT_EQ(cluster->runtime(0).stream(frag).applied_seq, 1);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
    // Neither the late accepts nor the late outcomes re-seat a slot.
    EXPECT_EQ(cluster->PaxosSlotsHeld(n), 0u) << "node " << n;
    EXPECT_EQ(cluster->PaxosDecidedThrough(n, frag), 1) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(CheckDecidedInstalls(cluster->history()).ok)
      << CheckDecidedInstalls(cluster->history()).detail;
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok)
      << cluster->CheckCommitNonBlocking().detail;
}

TEST_F(PaxosCommitFixture, AmnesiaWipesTheWatermarkAndPruningResumes) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/true);
  for (int i = 0; i < 3; ++i) Update(1);
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->PaxosDecidedThrough(4, frag), 3);
  ASSERT_TRUE(cluster->CrashNode(4, CrashMode::kAmnesia).ok());
  EXPECT_EQ(cluster->PaxosDecidedThrough(4, frag), 0);
  EXPECT_EQ(cluster->PaxosSlotsHeld(4), 0u);
  // Slots 4 and 5 commit without node 4. Their accepts and outcomes wait
  // in the senders' queues and reach the revived node, whose new watermark
  // starts at the first slot it holds: 1-3 are unseen, not pruned.
  for (int i = 0; i < 2; ++i) Update(1);
  cluster->RunToQuiescence();
  bool recovered = false;
  ASSERT_TRUE(
      cluster->ReviveNode(4, [&](const RecoveryStats&) { recovered = true; })
          .ok());
  cluster->RunToQuiescence();
  EXPECT_TRUE(recovered);
  EXPECT_EQ(cluster->ReadAt(4, x), 5);
  EXPECT_EQ(cluster->PaxosSlotsHeld(4), 0u);
  EXPECT_EQ(cluster->PaxosDecidedThrough(4, frag), 5);
  for (int i = 0; i < 2; ++i) Update(1);
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
    EXPECT_EQ(cluster->PaxosSlotsHeld(n), 0u) << "node " << n;
    EXPECT_EQ(cluster->PaxosDecidedThrough(n, frag), 7) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, PaxosCommitRunsOnParallelEngine) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/false, Pdes(2));
  ASSERT_TRUE(cluster->Partition({{0, 1, 2}, {3, 4}}).ok());
  for (int i = 0; i < 3; ++i) Update(1);
  cluster->RunToQuiescence();
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 3) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

}  // namespace
}  // namespace fragdb

// Randomized invariant tests ("fuzz lite"): drive components with seeded
// random operation streams and assert structural invariants after every
// step. Failures print the seed, so any counterexample is replayable.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "cc/lock_manager.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "workload/banking.h"

namespace fragdb {
namespace {

// ---------------------------------------------------------------------------
// Lock manager: random acquire/release streams never violate the
// single-writer / multi-reader invariant, and nothing is lost or leaked.
// ---------------------------------------------------------------------------

class LockManagerFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockManagerFuzz, ModesStayCompatibleUnderRandomChurn) {
  Rng rng(GetParam());
  LockManager lm;
  const int kTxns = 12;
  const int kResources = 4;
  // held[txn][resource] per the grant callbacks we observe.
  std::map<TxnId, std::map<ResourceId, LockMode>> held;
  int pending = 0;

  auto check_invariants = [&] {
    for (ResourceId r = 0; r < kResources; ++r) {
      int exclusive = 0, shared = 0;
      for (const auto& [txn, locks] : held) {
        auto it = locks.find(r);
        if (it == locks.end()) continue;
        if (it->second == LockMode::kExclusive) {
          ++exclusive;
        } else {
          ++shared;
        }
        EXPECT_TRUE(lm.Holds(txn, r, LockMode::kShared))
            << "seed " << GetParam();
      }
      EXPECT_LE(exclusive, 1) << "resource " << r << " seed " << GetParam();
      if (exclusive == 1) {
        EXPECT_EQ(shared, 0) << "resource " << r << " seed " << GetParam();
      }
    }
  };

  for (int step = 0; step < 400; ++step) {
    TxnId txn = static_cast<TxnId>(rng.NextBelow(kTxns));
    ResourceId resource = static_cast<ResourceId>(rng.NextBelow(kResources));
    if (rng.NextBool(0.6)) {
      LockMode mode = rng.NextBool(0.5) ? LockMode::kShared
                                        : LockMode::kExclusive;
      ++pending;
      lm.Acquire(txn, resource, mode,
                 [&held, &pending, txn, resource, mode](Status st) {
                   --pending;
                   if (!st.ok()) return;  // cancelled by a later ReleaseAll
                   LockMode& slot = held[txn][resource];
                   if (slot != LockMode::kExclusive) slot = mode;
                 });
    } else {
      lm.ReleaseAll(txn);
      held.erase(txn);
    }
    if (rng.NextBool(0.1)) {
      TxnId victim = lm.DetectAndResolveDeadlock();
      if (victim != kInvalidTxn) held.erase(victim);
    }
    check_invariants();
  }
  // Drain: release everyone; no waiters may remain.
  for (TxnId txn = 0; txn < kTxns; ++txn) lm.ReleaseAll(txn);
  EXPECT_EQ(lm.waiting_count(), 0u);
  EXPECT_EQ(lm.held_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockManagerFuzz,
                         ::testing::Values(1, 7, 42, 1337, 9001));

// ---------------------------------------------------------------------------
// Banking end-to-end stress: random deposits/withdrawals from several
// customers, periodic central scans, random partitions — the accounting
// invariant and fragmentwise serializability must survive everything.
// ---------------------------------------------------------------------------

class BankingStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BankingStress, AccountingSurvivesRandomTraffic) {
  Rng rng(GetParam());
  BankingWorkload::Options opt;
  opt.nodes = 4;
  opt.accounts = 3;
  opt.max_ops_per_account = 128;
  BankingWorkload bank(opt);
  ASSERT_TRUE(bank.Start().ok());
  Cluster& cluster = bank.cluster();
  bank.StartPeriodicScan(Millis(60), Seconds(2));

  for (int step = 0; step < 120; ++step) {
    SimTime when = Millis(15) * step;
    int account = static_cast<int>(rng.NextBelow(opt.accounts));
    bool deposit = rng.NextBool(0.6);
    Value amount = 10 + static_cast<Value>(rng.NextBelow(90));
    // Customers never move: each deposit/withdrawal is an event on the
    // customer's home node; faults are global events.
    NodeId home = *cluster.catalog().HomeOf(bank.customer_agent(account));
    cluster.engine()->AtNode(home, when, [&bank, account, deposit, amount] {
      if (deposit) {
        bank.Deposit(account, amount, nullptr);
      } else {
        bank.Withdraw(account, amount, nullptr);
      }
    });
    if (step % 20 == 10) {
      cluster.engine()->AtGlobal(when + 1, [&cluster, &rng] {
        std::vector<NodeId> left, right;
        for (NodeId n = 0; n < 4; ++n) {
          (rng.NextBool(0.5) ? left : right).push_back(n);
        }
        if (!left.empty() && !right.empty()) {
          (void)cluster.Partition({left, right});
        }
      });
      cluster.engine()->AtGlobal(when + Millis(80),
                                 [&cluster] { cluster.HealAll(); });
    }
  }
  cluster.RunUntil(Seconds(3));
  cluster.HealAll();
  cluster.RunToQuiescence();
  bank.RunCentralScan(nullptr);
  cluster.RunToQuiescence();

  EXPECT_TRUE(bank.VerifyAccounting().ok()) << "seed " << GetParam();
  EXPECT_TRUE(CheckMutualConsistency(cluster.Replicas()).ok)
      << "seed " << GetParam();
  EXPECT_TRUE(cluster.CheckConfiguredProperty().ok) << "seed " << GetParam();
  EXPECT_GT(bank.metrics().committed, 0u);
  EXPECT_EQ(bank.metrics().unavailable, 0u);  // §4.3: always available
}

INSTANTIATE_TEST_SUITE_P(Seeds, BankingStress,
                         ::testing::Values(2, 23, 77, 404));

// ---------------------------------------------------------------------------
// Amnesia crashes at random times: nodes repeatedly lose all volatile
// state mid-traffic and recover from checkpoint + WAL + peer catch-up;
// mutual consistency and the configured property must survive every
// schedule.
// ---------------------------------------------------------------------------

class AmnesiaCrashFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AmnesiaCrashFuzz, RandomCrashRecoveryCyclesStayConsistent) {
  Rng rng(GetParam());
  const int kNodes = 5;
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  config.durability.enabled = true;
  config.durability.checkpoint_interval = Millis(20);
  Cluster cluster(config, Topology::FullMesh(kNodes, Millis(4)));

  const int kFragments = 2;
  std::vector<FragmentId> frags;
  std::vector<ObjectId> objs;
  std::vector<AgentId> agents;
  for (int i = 0; i < kFragments; ++i) {
    FragmentId f = cluster.DefineFragment("F" + std::to_string(i));
    frags.push_back(f);
    objs.push_back(*cluster.DefineObject(f, "o" + std::to_string(i), 0));
    AgentId a = cluster.DefineUserAgent("a" + std::to_string(i));
    agents.push_back(a);
    ASSERT_TRUE(cluster.AssignToken(f, a).ok());
    ASSERT_TRUE(cluster.SetAgentHome(a, i).ok());
  }
  ASSERT_TRUE(cluster.Start().ok());

  // Random updates from both agents across the whole run. Submissions at
  // a crashed home fail Unavailable; that is part of the schedule.
  const SimTime kEnd = Millis(1500);
  for (SimTime t = 0; t < kEnd; t += Millis(10)) {
    int i = static_cast<int>(rng.NextBelow(kFragments));
    Value v = 1 + static_cast<Value>(rng.NextBelow(9));
    // Agent i is homed at node i for the whole run.
    cluster.engine()->AtNode(i, t, [&cluster, &agents, &frags, &objs, i, v] {
      TxnSpec spec;
      spec.agent = agents[i];
      spec.write_fragment = frags[i];
      ObjectId obj = objs[i];
      spec.read_set = {obj};
      spec.body = [obj, v](const std::vector<Value>& reads)
          -> Result<std::vector<WriteOp>> {
        return std::vector<WriteOp>{{obj, reads[0] + v}};
      };
      cluster.Submit(spec, nullptr);
    });
  }

  // Random amnesia episodes: any node (homes included) may lose power at
  // any instant and come back a random downtime later.
  int crashes_executed = 0;
  for (int episode = 0; episode < 8; ++episode) {
    NodeId victim = static_cast<NodeId>(rng.NextBelow(kNodes));
    SimTime at = static_cast<SimTime>(rng.NextBelow(kEnd - Millis(250)));
    SimTime downtime = Millis(10 + static_cast<SimTime>(rng.NextBelow(190)));
    cluster.engine()->AtGlobal(at, [&cluster, &crashes_executed, victim] {
      if (!cluster.topology().IsNodeUp(victim)) return;  // already down
      ASSERT_TRUE(cluster.CrashNode(victim, CrashMode::kAmnesia).ok());
      ++crashes_executed;
    });
    cluster.engine()->AtGlobal(at + downtime, [&cluster, victim] {
      if (!cluster.IsAmnesiaDown(victim)) return;
      ASSERT_TRUE(cluster.ReviveNode(victim, nullptr).ok());
    });
  }

  cluster.RunUntil(kEnd);
  cluster.RunToQuiescence();
  // Anyone still mid-outage (or crashed again during recovery) comes back.
  for (NodeId n = 0; n < kNodes; ++n) {
    if (cluster.IsAmnesiaDown(n)) {
      ASSERT_TRUE(cluster.ReviveNode(n, nullptr).ok());
    }
  }
  cluster.RunToQuiescence();

  EXPECT_GT(crashes_executed, 0) << "seed " << GetParam();
  for (NodeId n = 0; n < kNodes; ++n) {
    EXPECT_TRUE(cluster.topology().IsNodeUp(n))
        << "node " << n << " seed " << GetParam();
    EXPECT_FALSE(cluster.IsAmnesiaDown(n)) << "seed " << GetParam();
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster.Replicas()).ok)
      << "seed " << GetParam();
  EXPECT_TRUE(cluster.CheckConfiguredProperty().ok) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmnesiaCrashFuzz,
                         ::testing::Values(5, 31, 99, 512, 8080));

// ---------------------------------------------------------------------------
// Quorum control under random partitions and link flaps: every completed
// R-quorum read must observe every write whose W-quorum ack preceded it
// (R + W > N guarantees the quorums intersect), and replicas converge.
// ---------------------------------------------------------------------------

class QuorumFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QuorumFuzz, FreshnessSurvivesPartitionsAndFlaps) {
  Rng rng(GetParam());
  const int kNodes = 5;
  ClusterConfig config;
  config.control = ControlOption::kQuorum;
  config.read_quorum = 2;
  config.write_quorum = 4;
  Cluster cluster(config, Topology::FullMesh(kNodes, Millis(4)));
  FragmentId frag = cluster.DefineFragment("F");
  ObjectId x = *cluster.DefineObject(frag, "x", 0);
  AgentId agent = cluster.DefineUserAgent("owner");
  ASSERT_TRUE(cluster.AssignToken(frag, agent).ok());
  ASSERT_TRUE(cluster.SetAgentHome(agent, 0).ok());
  ASSERT_TRUE(cluster.Start().ok());

  const SimTime kEnd = Millis(1200);
  for (SimTime t = 0; t < kEnd; t += Millis(10)) {
    if (rng.NextBool(0.5)) {
      Value v = 1 + static_cast<Value>(rng.NextBelow(9));
      cluster.engine()->AtNode(0, t, [&cluster, agent, frag, x, v] {
        TxnSpec spec;
        spec.agent = agent;
        spec.write_fragment = frag;
        spec.read_set = {x};
        spec.body = [x, v](const std::vector<Value>& reads)
            -> Result<std::vector<WriteOp>> {
          return std::vector<WriteOp>{{x, reads[0] + v}};
        };
        cluster.Submit(spec, nullptr);
      });
    } else {
      NodeId reader = static_cast<NodeId>(rng.NextBelow(kNodes));
      cluster.engine()->AtNode(reader, t, [&cluster, reader, x] {
        TxnSpec probe;
        probe.agent = kInvalidAgent;
        probe.read_set = {x};
        cluster.SubmitReadOnlyAt(reader, probe, nullptr);
      });
    }
    if (rng.NextBool(0.15)) {
      NodeId a = static_cast<NodeId>(rng.NextBelow(kNodes));
      NodeId b = static_cast<NodeId>(rng.NextBelow(kNodes));
      bool up = rng.NextBool(0.5);
      cluster.engine()->AtGlobal(t + 1, [&cluster, a, b, up] {
        if (a != b) (void)cluster.SetLinkUp(a, b, up);
      });
    }
    if (t % Millis(200) == Millis(100)) {
      cluster.engine()->AtGlobal(t + 2, [&cluster, &rng] {
        std::vector<NodeId> left, right;
        for (NodeId n = 0; n < kNodes; ++n) {
          (rng.NextBool(0.5) ? left : right).push_back(n);
        }
        if (!left.empty() && !right.empty()) {
          (void)cluster.Partition({left, right});
        }
      });
      cluster.engine()->AtGlobal(t + Millis(80),
                                 [&cluster] { cluster.HealAll(); });
    }
  }
  cluster.RunUntil(kEnd);
  cluster.HealAll();
  cluster.RunToQuiescence();

  EXPECT_GT(cluster.history().quorum_reads().size(), 0u)
      << "seed " << GetParam();
  EXPECT_TRUE(CheckQuorumFreshness(cluster.history()).ok)
      << "seed " << GetParam() << ": "
      << CheckQuorumFreshness(cluster.history()).detail;
  EXPECT_TRUE(CheckMutualConsistency(cluster.Replicas()).ok)
      << "seed " << GetParam();
  EXPECT_TRUE(cluster.CheckConfiguredProperty().ok) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuorumFuzz,
                         ::testing::Values(11, 47, 123, 777, 6502));

// ---------------------------------------------------------------------------
// Paxos Commit under random amnesia crashes and partitions: every
// (fragment, seq) slot must decide one outcome everywhere, no replica may
// end prepared-but-undecided, and replicas converge.
// ---------------------------------------------------------------------------

// Offered load and network weather for one Paxos fuzz run.
struct PaxosFuzzLoad {
  SimTime arrival_every = Millis(10);
  // Message-loss probability inside [loss_from, loss_to); 0 = lossless.
  double loss = 0;
  SimTime loss_from = 0;
  SimTime loss_to = 0;
};

void RunPaxosCrashFuzz(uint64_t seed, const PaxosFuzzLoad& load) {
  Rng rng(seed);
  const int kNodes = 5;
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  config.move_protocol = MoveProtocol::kPaxosCommit;
  config.durability.enabled = true;
  config.durability.checkpoint_interval = Millis(20);
  Cluster cluster(config, Topology::FullMesh(kNodes, Millis(4)));
  FragmentId frag = cluster.DefineFragment("F");
  ObjectId x = *cluster.DefineObject(frag, "x", 0);
  AgentId agent = cluster.DefineUserAgent("owner");
  ASSERT_TRUE(cluster.AssignToken(frag, agent).ok());
  ASSERT_TRUE(cluster.SetAgentHome(agent, 0).ok());
  ASSERT_TRUE(cluster.Start().ok());

  const SimTime kEnd = Millis(1500);
  for (SimTime t = 0; t < kEnd; t += load.arrival_every) {
    Value v = 1 + static_cast<Value>(rng.NextBelow(9));
    cluster.engine()->AtNode(0, t, [&cluster, agent, frag, x, v] {
      TxnSpec spec;
      spec.agent = agent;
      spec.write_fragment = frag;
      spec.read_set = {x};
      spec.body = [x, v](const std::vector<Value>& reads)
          -> Result<std::vector<WriteOp>> {
        return std::vector<WriteOp>{{x, reads[0] + v}};
      };
      cluster.Submit(spec, nullptr);
    });
  }

  // The home (the Paxos coordinator) crashes more often than anyone else:
  // that is the window Paxos Commit exists to survive.
  int crashes_executed = 0;
  for (int episode = 0; episode < 8; ++episode) {
    NodeId victim = rng.NextBool(0.5)
                        ? 0
                        : static_cast<NodeId>(rng.NextBelow(kNodes));
    SimTime at = static_cast<SimTime>(rng.NextBelow(kEnd - Millis(250)));
    SimTime downtime = Millis(10 + static_cast<SimTime>(rng.NextBelow(190)));
    cluster.engine()->AtGlobal(at, [&cluster, &crashes_executed, victim] {
      if (!cluster.topology().IsNodeUp(victim)) return;
      ASSERT_TRUE(cluster.CrashNode(victim, CrashMode::kAmnesia).ok());
      ++crashes_executed;
    });
    cluster.engine()->AtGlobal(at + downtime, [&cluster, victim] {
      if (!cluster.IsAmnesiaDown(victim)) return;
      // Two episodes may pick the same victim: the later revive then finds
      // the earlier one's recovery still replaying ("recovery already in
      // progress", FailedPrecondition), which is a no-op.
      Status st = cluster.ReviveNode(victim, nullptr);
      ASSERT_TRUE(st.ok() || st.IsFailedPrecondition()) << st.ToString();
    });
  }
  if (load.loss > 0) {
    cluster.engine()->AtGlobal(load.loss_from, [&cluster, &load, seed] {
      cluster.network().SetLossProbability(load.loss, seed);
    });
    cluster.engine()->AtGlobal(load.loss_to, [&cluster, seed] {
      cluster.network().SetLossProbability(0.0, seed);
    });
  }
  for (int episode = 0; episode < 4; ++episode) {
    SimTime at = static_cast<SimTime>(rng.NextBelow(kEnd - Millis(150)));
    cluster.engine()->AtGlobal(at, [&cluster, &rng] {
      std::vector<NodeId> left, right;
      for (NodeId n = 0; n < kNodes; ++n) {
        (rng.NextBool(0.5) ? left : right).push_back(n);
      }
      if (!left.empty() && !right.empty()) {
        (void)cluster.Partition({left, right});
      }
    });
    cluster.engine()->AtGlobal(at + Millis(100),
                               [&cluster] { cluster.HealAll(); });
  }

  cluster.RunUntil(kEnd);
  cluster.HealAll();
  cluster.RunToQuiescence();
  for (NodeId n = 0; n < kNodes; ++n) {
    if (cluster.IsAmnesiaDown(n)) {
      ASSERT_TRUE(cluster.ReviveNode(n, nullptr).ok());
    }
  }
  cluster.RunToQuiescence();
  // An amnesia crash is message loss in disguise: a quasi consumed just
  // before the crash is gone, and if it was the stream's tail there is no
  // successor to leave gap evidence. Same anti-entropy as lossy scenarios.
  cluster.StartGapRepairSweep();
  cluster.RunToQuiescence();

  EXPECT_GT(crashes_executed, 0) << "seed " << seed;
  EXPECT_GT(cluster.history().decisions().size(), 0u)
      << "seed " << seed;
  EXPECT_TRUE(CheckCommitAtomicity(cluster.history()).ok)
      << "seed " << seed << ": "
      << CheckCommitAtomicity(cluster.history()).detail;
  EXPECT_TRUE(cluster.CheckCommitNonBlocking().ok)
      << "seed " << seed << ": "
      << cluster.CheckCommitNonBlocking().detail;
  std::string dump;
  for (NodeId n = 0; n < kNodes; ++n) {
    const FragmentStream& s = cluster.runtime(n).stream(frag);
    dump += " N" + std::to_string(n) + " x=" +
            std::to_string(cluster.ReadAt(n, x)) +
            " applied=" + std::to_string(s.applied_seq) +
            " next=" + std::to_string(s.next_seq) +
            " prepared=" + std::to_string(s.prepared.size());
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster.Replicas()).ok)
      << "seed " << seed << dump;
  EXPECT_TRUE(cluster.CheckConfiguredProperty().ok) << "seed " << seed;
}

class PaxosCrashFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PaxosCrashFuzz, AtomicityAndNonBlockingSurviveCrashes) {
  RunPaxosCrashFuzz(GetParam(), PaxosFuzzLoad{});
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosCrashFuzz,
                         ::testing::Values(13, 59, 321, 911, 2718));

// The same crashes with several slots per fragment in flight: one update
// every 2 ms on the 4 ms mesh is above the one-slot-per-RTT rate, and 5%
// loss from 300 ms to 900 ms lets a later slot decide before an earlier
// one at the home. Seeds 13, 20, 28, 30, 32 and 40 diverge when the home
// records its commits in decide order rather than seq order: applied_seq
// skips the undecided slot, so the home's log never holds it and gap
// repair cannot serve it to the replicas.
class PaxosPipelineCrashFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PaxosPipelineCrashFuzz, InFlightSlotsSurviveCrashesAndLoss) {
  PaxosFuzzLoad load;
  load.arrival_every = Millis(2);
  load.loss = 0.05;
  load.loss_from = Millis(300);
  load.loss_to = Millis(900);
  RunPaxosCrashFuzz(GetParam(), load);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosPipelineCrashFuzz,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace fragdb

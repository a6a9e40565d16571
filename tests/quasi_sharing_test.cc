// One quasi-transaction record per commit: the home builds it once, and
// every replica's stream log, every message and every Paxos slot shares
// that record by pointer. After an amnesia crash the revived node rebuilds
// its log from its checkpoint, its WAL and its peers; it must equal the
// peers' logs by value.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "cc/scheduler.h"
#include "core/cluster.h"
#include "core/messages.h"
#include "core/node.h"
#include "recovery/checkpoint.h"
#include "verify/checkers.h"

namespace fragdb {
namespace {

using ConstQuasiPtr = std::shared_ptr<const QuasiTxn>;

// Every stream, message, checkpoint and install container holds pointers
// to the one immutable record, never a QuasiTxn by value.
static_assert(std::is_same_v<QuasiRef, ConstQuasiPtr>);
static_assert(
    std::is_same_v<QuasiSeqMap::const_iterator::value_type, ConstQuasiPtr>);
static_assert(std::is_same_v<decltype(FragmentStream::holdback), QuasiSeqMap>);
static_assert(std::is_same_v<decltype(FragmentStream::log), QuasiSeqMap>);
static_assert(std::is_same_v<decltype(FragmentStream::prepared), QuasiSeqMap>);
static_assert(std::is_same_v<decltype(FragmentStream::future)::mapped_type,
                             std::vector<ConstQuasiPtr>>);
static_assert(std::is_same_v<decltype(QuasiTxnMsg::quasi), ConstQuasiPtr>);
static_assert(std::is_same_v<decltype(QuasiPrepare::quasi), ConstQuasiPtr>);
static_assert(std::is_same_v<decltype(PaxosAccept::quasi), ConstQuasiPtr>);
static_assert(std::is_same_v<decltype(ForwardMissing::quasi), ConstQuasiPtr>);
static_assert(std::is_same_v<decltype(M0Msg::old_stream),
                             std::vector<ConstQuasiPtr>>);
static_assert(std::is_same_v<decltype(RecoveryFragmentState::quasis),
                             std::vector<ConstQuasiPtr>>);
static_assert(std::is_same_v<decltype(StreamCheckpoint::log),
                             std::vector<ConstQuasiPtr>>);
static_assert(std::is_same_v<Scheduler::InstallDone,
                             std::function<void(ConstQuasiPtr)>>);

constexpr int kNodes = 5;

struct SharingCase {
  std::string name;
  MoveProtocol protocol = MoveProtocol::kForbidden;
  int sim_threads = 1;

  friend void PrintTo(const SharingCase& c, std::ostream* os) {
    *os << c.name;
  }
};

class QuasiSharingTest : public ::testing::Test {
 protected:
  /// Two fragments homed at nodes 0 and 2, replicated everywhere.
  void Build(MoveProtocol protocol, int sim_threads, bool durable) {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    config.move_protocol = protocol;
    config.engine.threads = sim_threads;
    config.durability.enabled = durable;
    config.durability.checkpoint_interval = durable ? Millis(20) : 0;
    cluster_ = std::make_unique<Cluster>(
        config, Topology::FullMesh(kNodes, Millis(5)));
    for (int i = 0; i < 2; ++i) {
      FragmentId f = cluster_->DefineFragment("F" + std::to_string(i));
      ObjectId a = *cluster_->DefineObject(f, "a" + std::to_string(i), 0);
      ObjectId b = *cluster_->DefineObject(f, "b" + std::to_string(i), 0);
      AgentId agent = cluster_->DefineUserAgent("owner" + std::to_string(i));
      ASSERT_TRUE(cluster_->AssignToken(f, agent).ok());
      ASSERT_TRUE(cluster_->SetAgentHome(agent, 2 * i).ok());
      frags_.push_back({f, agent, 2 * i, a, b});
    }
    ASSERT_TRUE(cluster_->Start().ok());
  }

  /// `n` updates per fragment, each writing both of its objects.
  void Submit(int n) {
    for (int i = 0; i < n; ++i) {
      for (const Frag& fr : frags_) {
        TxnSpec spec;
        spec.agent = fr.agent;
        spec.write_fragment = fr.fragment;
        spec.read_set = {fr.a};
        spec.body = [a = fr.a, b = fr.b, i](const std::vector<Value>& reads)
            -> Result<std::vector<WriteOp>> {
          return std::vector<WriteOp>{{a, reads[0] + 1}, {b, i}};
        };
        cluster_->Submit(spec, [this](const TxnResult& r) {
          if (r.status.ok()) ++committed_;
        });
      }
    }
  }

  const QuasiSeqMap& Log(NodeId node, FragmentId f) {
    return cluster_->runtime(node).stream(f).log;
  }

  struct Frag {
    FragmentId fragment;
    AgentId agent;
    NodeId home;
    ObjectId a;
    ObjectId b;
  };
  std::unique_ptr<Cluster> cluster_;
  std::vector<Frag> frags_;
  /// Client callbacks run on the home's PDES worker.
  std::atomic<int> committed_{0};
};

class QuasiSharingProtocolTest
    : public QuasiSharingTest,
      public ::testing::WithParamInterface<SharingCase> {};

TEST_P(QuasiSharingProtocolTest, EveryReplicaLogsTheHomesRecord) {
  constexpr int kUpdates = 40;
  Build(GetParam().protocol, GetParam().sim_threads, /*durable=*/false);
  Submit(kUpdates);
  cluster_->RunToQuiescence();
  ASSERT_EQ(committed_.load(), kUpdates * static_cast<int>(frags_.size()));
  for (const Frag& fr : frags_) {
    const QuasiSeqMap& home = Log(fr.home, fr.fragment);
    ASSERT_EQ(home.size(), static_cast<size_t>(kUpdates));
    for (NodeId n = 0; n < kNodes; ++n) {
      const QuasiSeqMap& log = Log(n, fr.fragment);
      ASSERT_EQ(log.size(), home.size()) << "node " << n;
      for (const QuasiRef& q : log) {
        // The same object, not an equal copy.
        EXPECT_EQ(q.get(), home.Find(q->seq))
            << "node " << n << " F" << fr.fragment << " seq " << q->seq;
      }
    }
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster_->Replicas()).ok);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, QuasiSharingProtocolTest,
    ::testing::Values(SharingCase{"Fragmentwise", MoveProtocol::kForbidden, 1},
                      SharingCase{"PaxosCommit", MoveProtocol::kPaxosCommit,
                                  1},
                      SharingCase{"PaxosCommit4Workers",
                                  MoveProtocol::kPaxosCommit, 4}),
    [](const ::testing::TestParamInfo<SharingCase>& info) {
      return info.param.name;
    });

TEST_F(QuasiSharingTest, RevivedLogEqualsPeersByValue) {
  Build(MoveProtocol::kForbidden, 1, /*durable=*/true);
  // Three sources for the revived log: 20 updates a checkpoint covers,
  // 10 installed after it (WAL only), and 10 committed while the node is
  // down, which only its peers can supply.
  Submit(20);
  cluster_->RunFor(Millis(60));
  Submit(10);
  cluster_->RunFor(Millis(10));
  ASSERT_TRUE(cluster_->CrashNode(3, CrashMode::kAmnesia).ok());
  Submit(10);
  cluster_->RunFor(Millis(40));
  bool recovered = false;
  RecoveryStats stats;
  ASSERT_TRUE(cluster_
                  ->ReviveNode(3,
                               [&](const RecoveryStats& s) {
                                 recovered = true;
                                 stats = s;
                               })
                  .ok());
  cluster_->RunToQuiescence();
  ASSERT_TRUE(recovered);
  EXPECT_TRUE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.wal_records_replayed, 20u);
  EXPECT_GE(stats.peer_quasis_fetched, 20u);  // every live peer sends them
  for (const Frag& fr : frags_) {
    const QuasiSeqMap& revived = Log(3, fr.fragment);
    for (NodeId peer : {0, 1, 2, 4}) {
      const QuasiSeqMap& log = Log(peer, fr.fragment);
      ASSERT_EQ(revived.size(), log.size()) << "peer " << peer;
      auto it = log.begin();
      for (const QuasiRef& q : revived) {
        EXPECT_EQ(*q, **it) << "peer " << peer << " F" << fr.fragment
                            << " seq " << q->seq;
        ++it;
      }
    }
    EXPECT_EQ(revived.size(), 40u);
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster_->Replicas()).ok);
}

}  // namespace
}  // namespace fragdb

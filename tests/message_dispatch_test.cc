// Payload type tags and NodeRuntime::HandleMessage dispatch: every node
// protocol payload carries a distinct tag fixed at construction, its
// TypeName() (the net.sent.* traffic label) comes from the tag table, and
// VisitCorePayload routes it to the handler for its own type.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/cluster.h"
#include "core/messages.h"

namespace fragdb {
namespace {

using CorePayloads =
    std::tuple<QuasiTxnMsg, ReadLockRequest, ReadLockGrant, ReadLockRelease,
               QuasiPrepare, QuasiAck, QuasiCommit, M0Msg, ForwardMissing,
               RecoveryQuery, RecoveryReply, QuorumReadRequest,
               QuorumReadReply, QuorumAppliedAck, PaxosAccept, PaxosAccepted,
               PaxosOutcome>;

/// The labels the payloads reported before they carried tags, in the
/// order of CorePayloads; fragbench and the metrics key traffic by them.
const char* const kLabels[] = {
    "quasi",          "lock-request",      "lock-grant",
    "lock-release",   "prepare",           "ack",
    "commit",         "m0",                "forward-missing",
    "recovery-query", "recovery-reply",    "quorum-read",
    "quorum-read-reply", "quorum-applied-ack", "paxos-accept",
    "paxos-accepted", "paxos-outcome"};

static_assert(std::tuple_size_v<CorePayloads> == 17);
static_assert(kMsgTypeCount == 18);  // the 17 payloads plus kUntagged

/// Records the static type each visit arrives as.
struct RecordingVisitor {
  MsgType seen = MsgType::kUntagged;
  int calls = 0;
  template <typename T>
  void operator()(const T&) {
    seen = T::kType;
    ++calls;
  }
};

template <size_t I = 0>
void CheckEachPayload(std::set<int>* tags, std::set<std::string>* names) {
  if constexpr (I < std::tuple_size_v<CorePayloads>) {
    using T = std::tuple_element_t<I, CorePayloads>;
    auto payload = std::make_shared<T>();
    const MessagePayload& base = *payload;
    SCOPED_TRACE(kLabels[I]);
    EXPECT_EQ(base.tag(), static_cast<uint8_t>(T::kType));
    EXPECT_NE(base.tag(), 0);
    EXPECT_STREQ(base.TypeName(), kLabels[I]);
    EXPECT_EQ(base.TypeName(), MsgTypeName(T::kType));  // same pointer
    tags->insert(base.tag());
    names->insert(base.TypeName());

    RecordingVisitor visit;
    EXPECT_TRUE(VisitCorePayload(base, visit));
    EXPECT_EQ(visit.calls, 1);
    EXPECT_EQ(visit.seen, T::kType);

    // A copy (ForwardMissing is re-sent that way) keeps its tag.
    T copy(*payload);
    EXPECT_EQ(copy.tag(), base.tag());
    CheckEachPayload<I + 1>(tags, names);
  }
}

TEST(MessageDispatchTest, EveryPayloadHasItsOwnTagNameAndHandler) {
  std::set<int> tags;
  std::set<std::string> names;
  CheckEachPayload(&tags, &names);
  EXPECT_EQ(tags.size(), 17u);
  EXPECT_EQ(names.size(), 17u);
}

TEST(MessageDispatchTest, UntaggedPayloadsReachNoHandler) {
  struct Foreign : MessagePayload {};
  Foreign foreign;
  EXPECT_EQ(foreign.tag(), 0);
  EXPECT_STREQ(foreign.TypeName(), "other");
  RecordingVisitor visit;
  EXPECT_FALSE(VisitCorePayload(foreign, visit));
  EXPECT_EQ(visit.calls, 0);
}

/// HandleMessage end to end: requests sent through the network reach the
/// receiving node's handler, which answers with its own reply type.
struct HandleMessageFixture : ::testing::Test {
  void SetUp() override {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    cluster = std::make_unique<Cluster>(config,
                                        Topology::FullMesh(3, Millis(1)));
    frag = cluster->DefineFragment("F");
    x = *cluster->DefineObject(frag, "x", 0);
    AgentId agent = cluster->DefineUserAgent("owner");
    ASSERT_TRUE(cluster->AssignToken(frag, agent).ok());
    ASSERT_TRUE(cluster->SetAgentHome(agent, 0).ok());
    ASSERT_TRUE(cluster->Start().ok());
    cluster->network().SetSendObserver(
        [this](const MessagePayload& p, size_t) { ++sent[p.TypeName()]; });
  }

  /// Sends `payload` from node 0 to node 1, drains, and returns the sends
  /// it caused (the request itself excluded).
  std::map<std::string, int> Exchange(
      std::shared_ptr<const MessagePayload> payload) {
    sent.clear();
    const std::string request = payload->TypeName();
    EXPECT_TRUE(cluster->network().Send(0, 1, std::move(payload)).ok());
    cluster->RunToQuiescence();
    std::map<std::string, int> replies = sent;
    if (--replies[request] == 0) replies.erase(request);
    return replies;
  }

  std::unique_ptr<Cluster> cluster;
  FragmentId frag;
  ObjectId x;
  std::map<std::string, int> sent;
};

TEST_F(HandleMessageFixture, RequestsReachTheirHandlers) {
  using Replies = std::map<std::string, int>;
  auto lock = std::make_shared<ReadLockRequest>();
  lock->txn = 900;
  lock->fragment = frag;
  lock->requester = 0;
  // Node 1 grants; node 0 has no wait for the grant, so its handler sends
  // the lock straight back, and node 1's release handler frees it.
  EXPECT_EQ(Exchange(lock), (Replies{{"lock-grant", 1}, {"lock-release", 1}}));
  EXPECT_EQ(cluster->runtime(1).locks().held_count(), 0u);

  auto recovery = std::make_shared<RecoveryQuery>();
  recovery->requester = 0;
  recovery->recovery_id = -1;  // gap-repair traffic: no session needed
  recovery->have = {RecoveryPosition{frag, 0, 0}};
  EXPECT_EQ(Exchange(recovery), (Replies{{"recovery-reply", 1}}));

  auto read = std::make_shared<QuorumReadRequest>();
  read->txn = 901;
  read->fragment = frag;
  read->requester = 0;
  read->objects = {x};
  EXPECT_EQ(Exchange(read), (Replies{{"quorum-read-reply", 1}}));

  auto quasi = std::make_shared<QuasiTxn>();
  quasi->origin_txn = 902;
  quasi->fragment = frag;
  quasi->seq = 1;
  quasi->origin_node = 0;
  quasi->writes = {{x, 41}};
  auto prepare = std::make_shared<QuasiPrepare>();
  prepare->quasi = quasi;
  EXPECT_EQ(Exchange(prepare), (Replies{{"ack", 1}}));

  auto msg = std::make_shared<QuasiTxnMsg>();
  msg->quasi = quasi;
  EXPECT_EQ(Exchange(msg), Replies{});
  EXPECT_EQ(cluster->ReadAt(1, x), 41);  // installed through OnQuasi
  EXPECT_EQ(cluster->runtime(1).stream(frag).applied_seq, 1);
}

}  // namespace
}  // namespace fragdb

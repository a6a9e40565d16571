#include "net/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace fragdb {
namespace {

struct TestPayload : MessagePayload {
  explicit TestPayload(int v) : value(v) {}
  int value;
  size_t ByteSize() const override { return 100; }
};

struct NetFixture : ::testing::Test {
  NetFixture()
      : topology(Topology::FullMesh(4, Millis(5))), net(&engine, &topology) {
    received.resize(4);
    for (NodeId n = 0; n < 4; ++n) {
      net.SetHandler(n, [this, n](const Message& m) {
        auto p = std::dynamic_pointer_cast<const TestPayload>(m.payload);
        ASSERT_NE(p, nullptr);
        received[n].push_back({p->value, engine.Now(), m.from});
      });
    }
  }

  Status Send(NodeId from, NodeId to, int v) {
    return net.Send(from, to, std::make_shared<TestPayload>(v));
  }

  struct Recv {
    int value;
    SimTime at;
    NodeId from;
  };
  SimEngine engine{4};
  Topology topology;
  Network net;
  std::vector<std::vector<Recv>> received;
};

TEST_F(NetFixture, DeliversAfterLinkLatency) {
  ASSERT_TRUE(Send(0, 1, 7).ok());
  engine.RunToQuiescence();
  ASSERT_EQ(received[1].size(), 1u);
  EXPECT_EQ(received[1][0].value, 7);
  EXPECT_EQ(received[1][0].at, Millis(5));
  EXPECT_EQ(received[1][0].from, 0);
}

TEST_F(NetFixture, SelfSendDeliversAtSameTimeViaQueue) {
  ASSERT_TRUE(Send(2, 2, 9).ok());
  EXPECT_TRUE(received[2].empty());  // not reentrant
  engine.RunToQuiescence();
  ASSERT_EQ(received[2].size(), 1u);
  EXPECT_EQ(received[2][0].at, 0);
}

TEST_F(NetFixture, InvalidEndpointRejected) {
  EXPECT_TRUE(Send(0, 9, 1).IsInvalidArgument());
  EXPECT_TRUE(Send(-1, 0, 1).IsInvalidArgument());
}

TEST_F(NetFixture, QueuedWhileUnreachableAndFlushedOnHeal) {
  ASSERT_TRUE(topology.Partition({{0}, {1, 2, 3}}).ok());
  ASSERT_TRUE(Send(0, 1, 42).ok());
  engine.RunUntil(Millis(100));
  EXPECT_TRUE(received[1].empty());
  EXPECT_EQ(net.pending_count(), 1u);
  topology.HealAll();
  engine.RunToQuiescence();
  ASSERT_EQ(received[1].size(), 1u);
  EXPECT_EQ(received[1][0].value, 42);
  EXPECT_EQ(received[1][0].at, Millis(105));
  EXPECT_EQ(net.pending_count(), 0u);
}

TEST_F(NetFixture, FifoPerChannelEvenWhenPathChanges) {
  // Send one message on the direct (5ms) path, then break the direct link
  // so the second message takes a slower path... routing picks min-latency
  // dynamically, but FIFO floors must prevent overtaking in the opposite
  // scenario: first slow, then fast.
  ASSERT_TRUE(topology.SetLinkUp(0, 1, false).ok());  // 0->1 via 2 hops: 10ms
  ASSERT_TRUE(Send(0, 1, 1).ok());
  topology.HealAll();  // direct path (5ms) available again
  ASSERT_TRUE(Send(0, 1, 2).ok());
  engine.RunToQuiescence();
  ASSERT_EQ(received[1].size(), 2u);
  EXPECT_EQ(received[1][0].value, 1);
  EXPECT_EQ(received[1][1].value, 2);
  // The second message was floored to not overtake the first.
  EXPECT_GE(received[1][1].at, received[1][0].at);
}

TEST_F(NetFixture, SendToAllReachesEveryoneElse) {
  ASSERT_TRUE(net.SendToAll(1, std::make_shared<TestPayload>(3)).ok());
  engine.RunToQuiescence();
  EXPECT_TRUE(received[1].empty());
  for (NodeId n : {0, 2, 3}) {
    ASSERT_EQ(received[n].size(), 1u) << "node " << n;
    EXPECT_EQ(received[n][0].value, 3);
  }
}

TEST_F(NetFixture, StatsCountTraffic) {
  ASSERT_TRUE(Send(0, 1, 1).ok());
  ASSERT_TRUE(Send(0, 2, 2).ok());
  engine.RunToQuiescence();
  EXPECT_EQ(net.stats().messages_sent, 2u);
  EXPECT_EQ(net.stats().messages_delivered, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 200u);
}

TEST_F(NetFixture, QueuedCounterTracksDeferrals) {
  ASSERT_TRUE(topology.Partition({{0}, {1, 2, 3}}).ok());
  ASSERT_TRUE(Send(0, 1, 1).ok());
  EXPECT_EQ(net.stats().messages_queued, 1u);
}

TEST_F(NetFixture, MultiHopLatencyAccumulates) {
  Topology line = Topology::Line(3, Millis(7));
  Network lnet(&engine, &line);
  std::vector<SimTime> at;
  lnet.SetHandler(2, [&](const Message&) { at.push_back(engine.Now()); });
  ASSERT_TRUE(lnet.Send(0, 2, std::make_shared<TestPayload>(1)).ok());
  engine.RunToQuiescence();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], Millis(14));
}

TEST_F(NetFixture, RepartitionDoesNotDeliverAcrossNewCut) {
  ASSERT_TRUE(topology.Partition({{0}, {1, 2, 3}}).ok());
  ASSERT_TRUE(Send(0, 1, 1).ok());
  // Heal into a different partition that still separates 0 and 1.
  ASSERT_TRUE(topology.Partition({{0, 2}, {1, 3}}).ok());
  engine.RunToQuiescence();
  EXPECT_TRUE(received[1].empty());
  EXPECT_EQ(net.pending_count(), 1u);
}


TEST_F(NetFixture, LossDropsRoutedMessagesOnly) {
  net.SetLossProbability(1.0, 42);  // drop everything routed
  ASSERT_TRUE(Send(0, 1, 5).ok());
  engine.RunToQuiescence();
  EXPECT_TRUE(received[1].empty());
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  // Self-sends are never dropped.
  ASSERT_TRUE(Send(2, 2, 6).ok());
  engine.RunToQuiescence();
  EXPECT_EQ(received[2].size(), 1u);
  // Queued messages (no route at send time) are not subject to loss and
  // are transmitted on heal.
  ASSERT_TRUE(topology.Partition({{0}, {1, 2, 3}}).ok());
  ASSERT_TRUE(Send(0, 1, 7).ok());
  net.SetLossProbability(0.0, 0);
  topology.HealAll();
  engine.RunToQuiescence();
  ASSERT_EQ(received[1].size(), 1u);
  EXPECT_EQ(received[1][0].value, 7);
}

TEST_F(NetFixture, PartialLossIsDeterministicFromSeed) {
  net.SetLossProbability(0.5, 99);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(Send(0, 1, i).ok());
  engine.RunToQuiescence();
  size_t first_run = received[1].size();
  EXPECT_GT(first_run, 5u);
  EXPECT_LT(first_run, 45u);
  EXPECT_EQ(first_run + net.stats().messages_dropped, 50u);
}

}  // namespace
}  // namespace fragdb

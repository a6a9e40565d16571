// Randomized topology-churn fuzz for the Network's per-channel FIFO
// invariant (satellite of the flat-array refactor): under arbitrary link
// flips, partitions, heals, latency diversity, and queued-message
// flushes, each ordered (from, to) channel must deliver in send order,
// and every sent message must eventually arrive once the network heals.
//
// The seed is settable from the CLI (--fuzz_seed=N, or a bare number) so
// a failing run can be replayed exactly; by default a small fixed set of
// seeds runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "net/network.h"

namespace fragdb {
namespace {

std::vector<uint64_t> g_fuzz_seeds = {1, 2, 3, 4, 5};

struct SeqPayload : MessagePayload {
  SeqPayload(NodeId f, NodeId t, uint64_t s) : from(f), to(t), seq(s) {}
  NodeId from;
  NodeId to;
  uint64_t seq;
  size_t ByteSize() const override { return 64; }
};

/// One fuzz episode: random churn interleaved with sends, then heal and
/// drain. Checks per-channel FIFO order and completeness.
void RunEpisode(uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "fuzz seed " << seed);
  Rng rng(seed);
  const int n = 3 + static_cast<int>(rng.NextBelow(5));  // 3..7 nodes

  // Random connected-ish topology: a ring (so healing restores full
  // reachability) plus random chords with diverse latencies.
  Topology topo = Topology::Ring(n, Millis(1 + rng.NextBelow(9)));
  for (int extra = static_cast<int>(rng.NextBelow(4)); extra > 0; --extra) {
    NodeId a = static_cast<NodeId>(rng.NextBelow(n));
    NodeId b = static_cast<NodeId>(rng.NextBelow(n));
    if (a != b && !topo.HasLink(a, b)) {
      ASSERT_TRUE(topo.AddLink(a, b, Millis(1 + rng.NextBelow(19))).ok());
    }
  }

  SimEngine engine(topo.node_count());
  Network net(&engine, &topo);

  // received[to][from] = sequence numbers in delivery order.
  std::vector<std::map<NodeId, std::vector<uint64_t>>> received(n);
  for (NodeId node = 0; node < n; ++node) {
    net.SetHandler(node, [&received, node](const Message& m) {
      auto p = std::dynamic_pointer_cast<const SeqPayload>(m.payload);
      ASSERT_NE(p, nullptr);
      ASSERT_EQ(p->to, node);
      received[node][m.from].push_back(p->seq);
    });
  }

  // sent[from][to] = next sequence number, i.e. messages sent so far.
  std::vector<std::vector<uint64_t>> sent(n, std::vector<uint64_t>(n, 0));

  const int kSteps = 400;
  for (int step = 0; step < kSteps; ++step) {
    switch (rng.NextBelow(10)) {
      case 0: {  // flip a random existing link
        NodeId a = static_cast<NodeId>(rng.NextBelow(n));
        NodeId b = static_cast<NodeId>(rng.NextBelow(n));
        if (topo.HasLink(a, b)) {
          (void)topo.SetLinkUp(a, b, rng.NextBool(0.5));
        }
        break;
      }
      case 1: {  // random two-group partition
        std::vector<NodeId> left, right;
        for (NodeId node = 0; node < n; ++node) {
          (rng.NextBool(0.5) ? left : right).push_back(node);
        }
        if (!left.empty() && !right.empty()) {
          ASSERT_TRUE(topo.Partition({left, right}).ok());
        }
        break;
      }
      case 2:
        topo.HealAll();
        break;
      default: {  // burst of sends on random channels
        int burst = 1 + static_cast<int>(rng.NextBelow(4));
        for (int k = 0; k < burst; ++k) {
          NodeId from = static_cast<NodeId>(rng.NextBelow(n));
          NodeId to = static_cast<NodeId>(rng.NextBelow(n));
          if (from == to) continue;
          uint64_t seq = sent[from][to]++;
          ASSERT_TRUE(
              net.Send(from, to, std::make_shared<SeqPayload>(from, to, seq))
                  .ok());
        }
        break;
      }
    }
    engine.RunUntil(engine.Now() + Millis(rng.NextBelow(8)));
  }

  // Heal and drain: every queued message must now be deliverable.
  topo.HealAll();
  engine.RunToQuiescence();
  EXPECT_EQ(net.pending_count(), 0u);

  // Completeness + FIFO per channel: exactly the sent sequence, in order.
  for (NodeId from = 0; from < n; ++from) {
    for (NodeId to = 0; to < n; ++to) {
      if (from == to) continue;
      const std::vector<uint64_t>& got = received[to][from];
      ASSERT_EQ(got.size(), sent[from][to])
          << "channel " << from << "->" << to;
      for (uint64_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], i) << "channel " << from << "->" << to
                             << " out of order at position " << i;
      }
    }
  }
  // Stats must balance: nothing dropped (no loss configured), everything
  // sent was eventually delivered.
  EXPECT_EQ(net.stats().messages_dropped, 0u);
  EXPECT_EQ(net.stats().messages_delivered, net.stats().messages_sent);
}

TEST(NetworkFuzzTest, FifoOrderAndCompletenessUnderChurn) {
  for (uint64_t seed : g_fuzz_seeds) RunEpisode(seed);
}

TEST(NetworkFuzzTest, LossWindowOpeningMidFlightDoesNotReorderOrDrop) {
  // Regression for the loss/FIFO interaction: a loss window that opens
  // while messages are in flight must not touch them (loss applies at
  // Send time only), and a message dropped inside the window still
  // advances the channel floor, so survivors keep the schedule they
  // would have had without loss — no reordering either side of the
  // window.
  Topology topo(3);
  ASSERT_TRUE(topo.AddLink(0, 1, Millis(50)).ok());
  SimEngine engine(topo.node_count());
  Network net(&engine, &topo);
  std::vector<std::pair<uint64_t, SimTime>> got;
  net.SetHandler(1, [&got, &engine](const Message& m) {
    got.emplace_back(
        std::dynamic_pointer_cast<const SeqPayload>(m.payload)->seq,
        engine.Now());
  });

  // t=0: message 0 routed, due at 50ms.
  ASSERT_TRUE(net.Send(0, 1, std::make_shared<SeqPayload>(0, 1, 0)).ok());
  // t=10ms: a certain-loss window opens mid-flight; message 1 is dropped
  // at Send but still claims its delivery slot (due 60ms) on the floor.
  engine.RunUntil(Millis(10));
  net.SetLossProbability(1.0, /*seed=*/7);
  ASSERT_TRUE(net.Send(0, 1, std::make_shared<SeqPayload>(0, 1, 1)).ok());
  // t=20ms: window closes and a 10ms route via node 2 appears. Message 2
  // would arrive at 30ms, ahead of both its predecessors, without the
  // floor; it must instead queue behind the dropped message's slot,
  // exactly as if message 1 had been delivered.
  engine.RunUntil(Millis(20));
  net.SetLossProbability(0.0, /*seed=*/7);
  ASSERT_TRUE(topo.AddLink(0, 2, Millis(5)).ok());
  ASSERT_TRUE(topo.AddLink(2, 1, Millis(5)).ok());
  ASSERT_TRUE(net.Send(0, 1, std::make_shared<SeqPayload>(0, 1, 2)).ok());
  engine.RunToQuiescence();

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, 0u);         // in-flight survivor untouched
  EXPECT_EQ(got[0].second, Millis(50));
  EXPECT_EQ(got[1].first, 2u);
  EXPECT_EQ(got[1].second, Millis(60));  // held to the dropped slot's floor
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 2u);
}

TEST(NetworkFuzzTest, SameSeedReopenContinuesDropStream) {
  // Closing a loss window (p=0) draws nothing from the loss RNG, and
  // reopening it with the same seed continues the stream instead of
  // restarting it: a run with a mid-stream close/reopen drops exactly
  // the same messages as an uninterrupted window.
  auto run = [](bool interrupt) {
    Topology topo(2);
    EXPECT_TRUE(topo.AddLink(0, 1, Millis(5)).ok());
    SimEngine engine(topo.node_count());
    Network net(&engine, &topo);
    std::vector<uint64_t> delivered;
    net.SetHandler(1, [&delivered](const Message& m) {
      delivered.push_back(
          std::dynamic_pointer_cast<const SeqPayload>(m.payload)->seq);
    });
    net.SetHandler(0, [](const Message&) {});
    net.SetLossProbability(0.5, /*seed=*/99);
    for (uint64_t i = 0; i < 20; ++i) {
      if (interrupt && i == 10) {
        // Close and reopen the window mid-stream, same seed.
        net.SetLossProbability(0.0, /*seed=*/99);
        net.SetLossProbability(0.5, /*seed=*/99);
      }
      EXPECT_TRUE(net.Send(0, 1, std::make_shared<SeqPayload>(0, 1, i)).ok());
    }
    engine.RunToQuiescence();
    return delivered;
  };
  std::vector<uint64_t> uninterrupted = run(false);
  std::vector<uint64_t> reopened = run(true);
  EXPECT_EQ(uninterrupted, reopened);
  // A different seed restarts the stream: expect a different pattern for
  // this seed pair (both streams are fixed by construction).
  auto run_seed = [](uint64_t seed) {
    Topology topo(2);
    EXPECT_TRUE(topo.AddLink(0, 1, Millis(5)).ok());
    SimEngine engine(topo.node_count());
    Network net(&engine, &topo);
    std::vector<uint64_t> delivered;
    net.SetHandler(1, [&delivered](const Message& m) {
      delivered.push_back(
          std::dynamic_pointer_cast<const SeqPayload>(m.payload)->seq);
    });
    net.SetHandler(0, [](const Message&) {});
    net.SetLossProbability(0.5, seed);
    for (uint64_t i = 0; i < 20; ++i) {
      EXPECT_TRUE(net.Send(0, 1, std::make_shared<SeqPayload>(0, 1, i)).ok());
    }
    engine.RunToQuiescence();
    return delivered;
  };
  EXPECT_NE(run_seed(99), run_seed(100));
}

TEST(NetworkFuzzTest, LatencyDropDoesNotReorderChannel) {
  // Deterministic regression: the path latency dropping mid-stream (a
  // faster route appears) must not let a later message overtake an
  // earlier one. (The flat channel_floor_ array is what enforces this.)
  Topology topo(3);
  ASSERT_TRUE(topo.AddLink(0, 1, Millis(50)).ok());
  SimEngine engine(topo.node_count());
  Network net(&engine, &topo);
  std::vector<std::pair<uint64_t, SimTime>> got;
  net.SetHandler(1, [&got, &engine](const Message& m) {
    got.emplace_back(
        std::dynamic_pointer_cast<const SeqPayload>(m.payload)->seq,
        engine.Now());
  });
  ASSERT_TRUE(net.Send(0, 1, std::make_shared<SeqPayload>(0, 1, 0)).ok());
  // A 10ms route via node 2 appears; message 1 would arrive at 10ms and
  // overtake message 0 (due at 50ms) without the channel floor.
  ASSERT_TRUE(topo.AddLink(0, 2, Millis(5)).ok());
  ASSERT_TRUE(topo.AddLink(2, 1, Millis(5)).ok());
  ASSERT_TRUE(net.Send(0, 1, std::make_shared<SeqPayload>(0, 1, 1)).ok());
  engine.RunToQuiescence();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, 0u);
  EXPECT_EQ(got[0].second, Millis(50));
  EXPECT_EQ(got[1].first, 1u);
  EXPECT_EQ(got[1].second, Millis(50));  // held to the channel floor
}

}  // namespace
}  // namespace fragdb

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  // Remaining args select fuzz seeds: --fuzz_seed=N (comma lists work
  // too) or bare numbers, via the shared CLI helpers.
  std::vector<uint64_t> seeds;
  for (int i = 1; i < argc; ++i) {
    const char* value = argv[i];
    (void)fragdb::cli::FlagValue(argv[i], "--fuzz_seed", &value);
    std::vector<uint64_t> parsed;
    if (fragdb::cli::ParseUint64List(value, &parsed)) {
      seeds.insert(seeds.end(), parsed.begin(), parsed.end());
    }
  }
  if (!seeds.empty()) fragdb::g_fuzz_seeds = seeds;
  return RUN_ALL_TESTS();
}

#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace fragdb {
namespace {

TEST(TopologyTest, FullMeshConnectsEveryPair) {
  Topology t = Topology::FullMesh(4, Millis(1));
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      EXPECT_TRUE(t.Reachable(a, b));
    }
  }
}

TEST(TopologyTest, AddLinkValidation) {
  Topology t(3);
  EXPECT_TRUE(t.AddLink(0, 1, 10).ok());
  EXPECT_TRUE(t.AddLink(0, 1, 10).IsAlreadyExists());
  EXPECT_TRUE(t.AddLink(1, 0, 10).IsAlreadyExists());  // undirected
  EXPECT_TRUE(t.AddLink(0, 0, 10).IsInvalidArgument());
  EXPECT_TRUE(t.AddLink(0, 5, 10).IsInvalidArgument());
  EXPECT_TRUE(t.AddLink(0, 2, -1).IsInvalidArgument());
}

TEST(TopologyTest, SelfIsAlwaysReachable) {
  Topology t(2);
  EXPECT_TRUE(t.Reachable(0, 0));
  EXPECT_FALSE(t.Reachable(0, 1));  // no links yet
}

TEST(TopologyTest, LinkDownBreaksPath) {
  Topology t = Topology::Line(3, Millis(1));
  EXPECT_TRUE(t.Reachable(0, 2));
  EXPECT_TRUE(t.SetLinkUp(0, 1, false).ok());
  EXPECT_FALSE(t.Reachable(0, 1));
  EXPECT_FALSE(t.Reachable(0, 2));
  EXPECT_TRUE(t.Reachable(1, 2));
}

TEST(TopologyTest, SetLinkUpUnknownLinkFails) {
  Topology t(3);
  EXPECT_TRUE(t.SetLinkUp(0, 2, false).IsNotFound());
}

TEST(TopologyTest, PathLatencyPicksShortestPath) {
  Topology t(3);
  ASSERT_TRUE(t.AddLink(0, 1, 10).ok());
  ASSERT_TRUE(t.AddLink(1, 2, 10).ok());
  ASSERT_TRUE(t.AddLink(0, 2, 50).ok());
  Result<SimTime> lat = t.PathLatency(0, 2);
  ASSERT_TRUE(lat.ok());
  EXPECT_EQ(*lat, 20);  // two hops beat the direct slow link
}

TEST(TopologyTest, PathLatencyUnreachable) {
  Topology t(2);
  EXPECT_TRUE(t.PathLatency(0, 1).status().IsUnavailable());
}

TEST(TopologyTest, PathLatencyZeroForSelf) {
  Topology t(2);
  ASSERT_TRUE(t.PathLatency(0, 0).ok());
  EXPECT_EQ(*t.PathLatency(0, 0), 0);
}

TEST(TopologyTest, PartitionCutsCrossGroupLinks) {
  Topology t = Topology::FullMesh(5, Millis(1));
  ASSERT_TRUE(t.Partition({{0, 1}, {2, 3, 4}}).ok());
  EXPECT_TRUE(t.Reachable(0, 1));
  EXPECT_TRUE(t.Reachable(2, 4));
  EXPECT_FALSE(t.Reachable(0, 2));
  EXPECT_FALSE(t.Reachable(1, 4));
}

TEST(TopologyTest, PartitionRequiresEveryNode) {
  Topology t = Topology::FullMesh(3, Millis(1));
  EXPECT_TRUE(t.Partition({{0, 1}}).IsInvalidArgument());
  EXPECT_TRUE(t.Partition({{0, 1}, {1, 2}}).IsInvalidArgument());
}

TEST(TopologyTest, HealAllRestoresEverything) {
  Topology t = Topology::FullMesh(4, Millis(1));
  ASSERT_TRUE(t.Partition({{0}, {1, 2, 3}}).ok());
  t.HealAll();
  EXPECT_TRUE(t.Reachable(0, 3));
}

TEST(TopologyTest, RepartitionBringsIntraGroupLinksUp) {
  Topology t = Topology::FullMesh(4, Millis(1));
  ASSERT_TRUE(t.Partition({{0}, {1, 2, 3}}).ok());
  ASSERT_TRUE(t.Partition({{0, 1}, {2, 3}}).ok());
  EXPECT_TRUE(t.Reachable(0, 1));
  EXPECT_FALSE(t.Reachable(1, 2));
}

TEST(TopologyTest, ComponentsReflectPartition) {
  Topology t = Topology::FullMesh(5, Millis(1));
  ASSERT_TRUE(t.Partition({{0, 4}, {1, 2}, {3}}).ok());
  auto comps = t.Components();
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<NodeId>{0, 4}));
  EXPECT_EQ(comps[1], (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(comps[2], (std::vector<NodeId>{3}));
}

TEST(TopologyTest, ChangeListenerFires) {
  Topology t = Topology::FullMesh(3, Millis(1));
  int changes = 0;
  t.OnChange([&] { ++changes; });
  ASSERT_TRUE(t.SetLinkUp(0, 1, false).ok());
  EXPECT_EQ(changes, 1);
  // No-op state change does not notify.
  ASSERT_TRUE(t.SetLinkUp(0, 1, false).ok());
  EXPECT_EQ(changes, 1);
  t.HealAll();
  EXPECT_EQ(changes, 2);
  t.HealAll();  // already healed
  EXPECT_EQ(changes, 2);
}

TEST(TopologyTest, LineTopologyIsAChain) {
  Topology t = Topology::Line(4, Millis(2));
  EXPECT_TRUE(t.HasLink(0, 1));
  EXPECT_TRUE(t.HasLink(2, 3));
  EXPECT_FALSE(t.HasLink(0, 2));
  ASSERT_TRUE(t.PathLatency(0, 3).ok());
  EXPECT_EQ(*t.PathLatency(0, 3), Millis(6));
}


TEST(TopologyTest, RingSurvivesOneCutNotTwo) {
  Topology t = Topology::Ring(5, Millis(1));
  ASSERT_TRUE(t.SetLinkUp(0, 1, false).ok());
  EXPECT_TRUE(t.Reachable(0, 1));  // the long way around
  EXPECT_EQ(*t.PathLatency(0, 1), Millis(4));
  ASSERT_TRUE(t.SetLinkUp(2, 3, false).ok());
  EXPECT_FALSE(t.Reachable(1, 3));
  EXPECT_TRUE(t.Reachable(1, 2));
}

TEST(TopologyTest, StarSpokeLossIsolatesOneNode) {
  Topology t = Topology::Star(4, Millis(2));
  EXPECT_TRUE(t.Reachable(1, 3));  // via the hub
  EXPECT_EQ(*t.PathLatency(1, 3), Millis(4));
  ASSERT_TRUE(t.SetLinkUp(0, 2, false).ok());
  EXPECT_FALSE(t.Reachable(2, 1));
  EXPECT_TRUE(t.Reachable(1, 3));
}

TEST(TopologyTest, TwoNodeRingIsJustALine) {
  Topology t = Topology::Ring(2, Millis(1));
  EXPECT_TRUE(t.HasLink(0, 1));
  EXPECT_TRUE(t.Reachable(0, 1));
}

// --- Shortest paths against a brute-force reference ----------------------

struct RandomTopology {
  Topology topo{0};
  std::vector<std::tuple<NodeId, NodeId, SimTime>> links;
};

/// Seeded mesh, line, ring, star or random graph. Latencies come from a
/// small set that includes 0, so ties and zero-cost hops are common.
RandomTopology MakeRandomTopology(Rng& rng, int shape, int n) {
  RandomTopology r;
  r.topo = Topology(n);
  const bool uniform = rng.NextBool(0.3);
  const SimTime uniform_latency = Millis(5);
  auto add = [&](NodeId a, NodeId b) {
    SimTime latency = uniform ? uniform_latency
                              : static_cast<SimTime>(rng.NextBelow(4)) * 1000;
    ASSERT_TRUE(r.topo.AddLink(a, b, latency).ok());
    r.links.emplace_back(a, b, latency);
  };
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      bool link = false;
      switch (shape) {
        case 0: link = true; break;                              // mesh
        case 1: link = b == a + 1; break;                        // line
        case 2: link = b == a + 1 || (a == 0 && b == n - 1); break;  // ring
        case 3: link = a == 0; break;                            // star
        default: link = rng.NextBool(0.35); break;               // random
      }
      if (link) add(a, b);
    }
  }
  return r;
}

/// Floyd–Warshall over the links that are up between nodes that are up.
std::vector<SimTime> ReferenceDistances(const RandomTopology& r) {
  const int n = r.topo.node_count();
  std::vector<SimTime> d(static_cast<size_t>(n) * n, kSimTimeMax);
  for (NodeId a = 0; a < n; ++a) {
    if (r.topo.IsNodeUp(a)) d[static_cast<size_t>(a) * n + a] = 0;
  }
  for (const auto& [a, b, latency] : r.links) {
    if (!r.topo.IsLinkUp(a, b) || !r.topo.IsNodeUp(a) ||
        !r.topo.IsNodeUp(b)) {
      continue;
    }
    d[static_cast<size_t>(a) * n + b] = latency;
    d[static_cast<size_t>(b) * n + a] = latency;
  }
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      SimTime ik = d[static_cast<size_t>(i) * n + k];
      if (ik == kSimTimeMax) continue;
      for (NodeId j = 0; j < n; ++j) {
        SimTime kj = d[static_cast<size_t>(k) * n + j];
        if (kj == kSimTimeMax) continue;
        SimTime& ij = d[static_cast<size_t>(i) * n + j];
        ij = std::min(ij, ik + kj);
      }
    }
  }
  return d;
}

void ExpectMatchesReference(const RandomTopology& r, const std::string& where) {
  const int n = r.topo.node_count();
  std::vector<SimTime> want = ReferenceDistances(r);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      SimTime w = want[static_cast<size_t>(a) * n + b];
      Result<SimTime> got = r.topo.PathLatency(a, b);
      EXPECT_EQ(r.topo.Reachable(a, b), w != kSimTimeMax)
          << where << " " << a << "->" << b;
      if (w == kSimTimeMax) {
        EXPECT_FALSE(got.ok()) << where << " " << a << "->" << b;
      } else {
        ASSERT_TRUE(got.ok()) << where << " " << a << "->" << b;
        EXPECT_EQ(*got, w) << where << " " << a << "->" << b;
      }
    }
  }
}

TEST(TopologyTest, ShortestPathsMatchFloydWarshallReference) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const int shape = static_cast<int>(seed % 5);
    const int n = 2 + static_cast<int>(rng.NextBelow(11));
    RandomTopology r = MakeRandomTopology(rng, shape, n);
    const std::string tag = "seed=" + std::to_string(seed);
    ExpectMatchesReference(r, tag + " initial");
    // Churn: crash or revive nodes, cut links, partition, heal. Rows are
    // re-derived after every change, as the cluster does.
    for (int step = 0; step < 8; ++step) {
      switch (rng.NextBelow(4)) {
        case 0: {
          NodeId node = static_cast<NodeId>(rng.NextBelow(n));
          ASSERT_TRUE(r.topo.SetNodeUp(node, !r.topo.IsNodeUp(node)).ok());
          break;
        }
        case 1:
          if (!r.links.empty()) {
            const auto& link = r.links[rng.NextBelow(r.links.size())];
            ASSERT_TRUE(r.topo
                            .SetLinkUp(std::get<0>(link), std::get<1>(link),
                                       rng.NextBool(0.3))
                            .ok());
          }
          break;
        case 2: {
          const int group_count = 1 + static_cast<int>(rng.NextBelow(3));
          std::vector<std::vector<NodeId>> groups(group_count);
          for (NodeId node = 0; node < n; ++node) {
            groups[rng.NextBelow(group_count)].push_back(node);
          }
          ASSERT_TRUE(r.topo.Partition(groups).ok());
          break;
        }
        default:
          r.topo.HealAll();
          break;
      }
      if (rng.NextBool(0.5)) r.topo.PrecomputeAllRows();
      ExpectMatchesReference(r, tag + " step=" + std::to_string(step));
    }
  }
}

}  // namespace
}  // namespace fragdb

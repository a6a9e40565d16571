#ifndef FRAGDB_NET_TOPOLOGY_H_
#define FRAGDB_NET_TOPOLOGY_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace fragdb {

/// Point-to-point communication network of arbitrary topology (paper §3.1):
/// undirected links with individual latencies and up/down state. The
/// topology answers reachability and shortest-latency-path queries over the
/// links that are currently up, and notifies listeners when connectivity
/// changes (so queued messages can be flushed).
///
/// Storage is dense (the simulation fast path): links live in a flat array
/// with an N×N index table and per-node adjacency lists, and shortest-path
/// results are cached per source row between connectivity changes — the
/// network's per-message PathLatency query is an O(1) table read in the
/// steady state instead of a Dijkstra run over a std::map of links.
class Topology {
 public:
  /// Creates a topology over `node_count` nodes and no links.
  explicit Topology(int node_count);

  /// Full mesh with identical per-link latency — the common test fixture.
  static Topology FullMesh(int node_count, SimTime link_latency);

  /// A line (chain) topology: 0-1-2-...-n-1. Useful for multi-hop tests.
  static Topology Line(int node_count, SimTime link_latency);

  /// A ring: 0-1-...-n-1-0. A single link failure leaves everything
  /// reachable (the other way around); two failures partition.
  static Topology Ring(int node_count, SimTime link_latency);

  /// A star centered on node 0. Losing a spoke isolates exactly one node
  /// — the classic central-office WAN of the paper's era.
  static Topology Star(int node_count, SimTime link_latency);

  int node_count() const { return node_count_; }

  /// Adds an undirected link; fails if it exists or endpoints are invalid.
  Status AddLink(NodeId a, NodeId b, SimTime latency);

  /// Brings a link up/down. Fails if the link does not exist.
  Status SetLinkUp(NodeId a, NodeId b, bool up);

  /// Marks a whole node down (crash-stop) or back up. A down node cannot
  /// send, receive, or relay: every incident link behaves as down, and
  /// paths may not route through it. Orthogonal to link state — HealAll()
  /// does NOT revive downed nodes.
  Status SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const;

  bool HasLink(NodeId a, NodeId b) const;
  bool IsLinkUp(NodeId a, NodeId b) const;

  /// Severs every link that crosses between two different groups and brings
  /// links inside a group up. Every node must appear in exactly one group;
  /// returns InvalidArgument otherwise.
  Status Partition(const std::vector<std::vector<NodeId>>& groups);

  /// Brings every link back up.
  void HealAll();

  /// True if a path of up links connects a and b (a == b is reachable).
  bool Reachable(NodeId a, NodeId b) const;

  /// Latency of the minimum-latency path over up links, or error if
  /// unreachable. Zero for a == b.
  Result<SimTime> PathLatency(NodeId a, NodeId b) const;

  /// Connected components over up links, each sorted; components sorted by
  /// smallest member. Used by quorum logic and by tests.
  std::vector<std::vector<NodeId>> Components() const;

  /// Smallest latency of any usable link crossing partitions, where
  /// `owner[node]` names the partition owning `node` (one entry per
  /// node). kSimTimeMax if no usable link crosses. This is a valid — if
  /// loose — conservative-PDES lookahead: any path between nodes in
  /// different partitions traverses at least one crossing link, so no
  /// cross-partition message can arrive sooner than this. O(links); the
  /// scheduler re-extracts it only when the plan changes.
  SimTime MinCrossPartitionLatency(const std::vector<int>& owner) const;

  /// Registers a callback invoked after any connectivity change (link state
  /// flip, partition, heal). Listeners are invoked in registration order.
  void OnChange(std::function<void()> fn);

  /// Fills every shortest-path row now. The cluster calls this
  /// after each connectivity change (a global event) so per-message
  /// PathLatency queries from concurrent node events are pure reads —
  /// the lazy cache fill never races.
  void PrecomputeAllRows() const;

 private:
  struct Link {
    NodeId a;  // a < b
    NodeId b;
    SimTime latency;
    bool up;
  };

  bool ValidNode(NodeId n) const { return n >= 0 && n < node_count_; }
  void NotifyChange();
  void InvalidateCache();

  /// Effective link state: configured up AND both endpoints up.
  bool LinkUsable(const Link& link) const {
    return link.up && node_up_[link.a] && node_up_[link.b];
  }

  int32_t LinkIndex(NodeId a, NodeId b) const {
    if (!ValidNode(a) || !ValidNode(b)) return -1;
    return link_index_[static_cast<size_t>(a) * node_count_ + b];
  }

  /// Fills the shortest-path row for source `a` (Dijkstra over up links,
  /// stopped as soon as no remaining relaxation can shorten an entry).
  void ComputeRow(NodeId a) const;
  /// Sizes connected components and finds the cheapest usable link: the
  /// two facts ComputeRow's early stop needs, fixed per invalidation.
  void RefreshRowBounds() const;

  int node_count_;
  std::vector<Link> links_;                // in AddLink order
  std::vector<int32_t> link_index_;        // N×N: (a,b) -> index, -1 = none
  std::vector<std::vector<int32_t>> adj_;  // per node: incident link indices
  std::vector<bool> node_up_;
  std::vector<std::function<void()>> listeners_;

  // Shortest-path cache, invalidated on every connectivity change. Row r
  // of dist_ is valid iff row_valid_[r]; kSimTimeMax means unreachable.
  mutable std::vector<SimTime> dist_;  // N×N
  mutable std::vector<bool> row_valid_;
  // ComputeRow's stopping bounds, valid iff bounds_valid_.
  mutable bool bounds_valid_ = false;
  mutable std::vector<int> component_size_;  // node -> its component's size
  mutable SimTime min_usable_latency_ = kSimTimeMax;
};

}  // namespace fragdb

#endif  // FRAGDB_NET_TOPOLOGY_H_

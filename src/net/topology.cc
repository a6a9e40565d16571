#include "net/topology.h"

#include <algorithm>
#include <queue>

namespace fragdb {

Topology::Topology(int node_count)
    : node_count_(node_count),
      link_index_(static_cast<size_t>(node_count) * node_count, -1),
      adj_(node_count),
      node_up_(node_count, true),
      dist_(static_cast<size_t>(node_count) * node_count, kSimTimeMax),
      row_valid_(node_count, false) {}

Status Topology::SetNodeUp(NodeId node, bool up) {
  if (!ValidNode(node)) return Status::InvalidArgument("no such node");
  if (node_up_[node] != up) {
    node_up_[node] = up;
    NotifyChange();
  }
  return Status::Ok();
}

bool Topology::IsNodeUp(NodeId node) const {
  return ValidNode(node) && node_up_[node];
}

Topology Topology::FullMesh(int node_count, SimTime link_latency) {
  Topology t(node_count);
  for (NodeId a = 0; a < node_count; ++a) {
    for (NodeId b = a + 1; b < node_count; ++b) {
      t.AddLink(a, b, link_latency);
    }
  }
  return t;
}

Topology Topology::Line(int node_count, SimTime link_latency) {
  Topology t(node_count);
  for (NodeId a = 0; a + 1 < node_count; ++a) {
    t.AddLink(a, a + 1, link_latency);
  }
  return t;
}

Topology Topology::Ring(int node_count, SimTime link_latency) {
  Topology t = Line(node_count, link_latency);
  if (node_count > 2) t.AddLink(node_count - 1, 0, link_latency);
  return t;
}

Topology Topology::Star(int node_count, SimTime link_latency) {
  Topology t(node_count);
  for (NodeId a = 1; a < node_count; ++a) {
    t.AddLink(0, a, link_latency);
  }
  return t;
}

Status Topology::AddLink(NodeId a, NodeId b, SimTime latency) {
  if (!ValidNode(a) || !ValidNode(b) || a == b) {
    return Status::InvalidArgument("bad link endpoints");
  }
  if (latency < 0) return Status::InvalidArgument("negative latency");
  if (a > b) std::swap(a, b);
  if (LinkIndex(a, b) != -1) return Status::AlreadyExists("link exists");
  int32_t index = static_cast<int32_t>(links_.size());
  links_.push_back(Link{a, b, latency, true});
  link_index_[static_cast<size_t>(a) * node_count_ + b] = index;
  link_index_[static_cast<size_t>(b) * node_count_ + a] = index;
  adj_[a].push_back(index);
  adj_[b].push_back(index);
  NotifyChange();
  return Status::Ok();
}

Status Topology::SetLinkUp(NodeId a, NodeId b, bool up) {
  int32_t index = LinkIndex(a, b);
  if (index == -1) return Status::NotFound("no such link");
  if (links_[index].up != up) {
    links_[index].up = up;
    NotifyChange();
  }
  return Status::Ok();
}

bool Topology::HasLink(NodeId a, NodeId b) const {
  return LinkIndex(a, b) != -1;
}

bool Topology::IsLinkUp(NodeId a, NodeId b) const {
  int32_t index = LinkIndex(a, b);
  return index != -1 && links_[index].up;
}

Status Topology::Partition(const std::vector<std::vector<NodeId>>& groups) {
  std::vector<int> group_of(node_count_, -1);
  int g = 0;
  for (const auto& group : groups) {
    for (NodeId n : group) {
      if (!ValidNode(n)) return Status::InvalidArgument("bad node in group");
      if (group_of[n] != -1) {
        return Status::InvalidArgument("node in two groups");
      }
      group_of[n] = g;
    }
    ++g;
  }
  for (NodeId n = 0; n < node_count_; ++n) {
    if (group_of[n] == -1) {
      return Status::InvalidArgument("node missing from groups");
    }
  }
  bool changed = false;
  for (Link& link : links_) {
    bool want_up = group_of[link.a] == group_of[link.b];
    if (link.up != want_up) {
      link.up = want_up;
      changed = true;
    }
  }
  if (changed) NotifyChange();
  return Status::Ok();
}

void Topology::HealAll() {
  bool changed = false;
  for (Link& link : links_) {
    if (!link.up) {
      link.up = true;
      changed = true;
    }
  }
  if (changed) NotifyChange();
}

void Topology::RefreshRowBounds() const {
  component_size_.assign(node_count_, 0);
  for (const std::vector<NodeId>& component : Components()) {
    for (NodeId n : component) {
      component_size_[n] = static_cast<int>(component.size());
    }
  }
  min_usable_latency_ = kSimTimeMax;
  for (const Link& link : links_) {
    if (LinkUsable(link)) {
      min_usable_latency_ = std::min(min_usable_latency_, link.latency);
    }
  }
  bounds_valid_ = true;
}

void Topology::ComputeRow(NodeId a) const {
  if (!bounds_valid_) RefreshRowBounds();
  SimTime* dist = &dist_[static_cast<size_t>(a) * node_count_];
  std::fill(dist, dist + node_count_, kSimTimeMax);
  dist[a] = 0;
  int unreached = component_size_[a] - 1;
  SimTime max_tentative = 0;  // never decreases: a safe upper bound
  using Item = std::pair<SimTime, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  pq.emplace(0, a);
  while (!pq.empty()) {
    auto [d, n] = pq.top();
    pq.pop();
    if (d > dist[n]) continue;
    // Once every node of the component has a tentative distance, a path
    // through any node still to pop costs at least d plus the cheapest
    // usable link, so no entry can shrink any more: on a full mesh the
    // row is final after one pop instead of n.
    if (unreached == 0 && d >= max_tentative - min_usable_latency_) break;
    for (int32_t index : adj_[n]) {
      const Link& link = links_[index];
      if (!LinkUsable(link)) continue;
      NodeId other = link.a == n ? link.b : link.a;
      SimTime nd = d + link.latency;
      if (nd < dist[other]) {
        if (dist[other] == kSimTimeMax) --unreached;
        dist[other] = nd;
        max_tentative = std::max(max_tentative, nd);
        pq.emplace(nd, other);
      }
    }
  }
  row_valid_[a] = true;
}

bool Topology::Reachable(NodeId a, NodeId b) const {
  if (!ValidNode(a) || !ValidNode(b)) return false;
  if (!node_up_[a] || !node_up_[b]) return false;
  if (a == b) return true;
  return PathLatency(a, b).ok();
}

Result<SimTime> Topology::PathLatency(NodeId a, NodeId b) const {
  if (!ValidNode(a) || !ValidNode(b)) {
    return Status::InvalidArgument("bad node");
  }
  if (!node_up_[a] || !node_up_[b]) {
    return Status::Unavailable("endpoint node is down");
  }
  if (a == b) return SimTime{0};
  if (!row_valid_[a]) ComputeRow(a);
  SimTime d = dist_[static_cast<size_t>(a) * node_count_ + b];
  if (d == kSimTimeMax) return Status::Unavailable("unreachable");
  return d;
}

std::vector<std::vector<NodeId>> Topology::Components() const {
  std::vector<int> comp(node_count_, -1);
  std::vector<std::vector<NodeId>> out;
  std::vector<NodeId> bfs;
  for (NodeId start = 0; start < node_count_; ++start) {
    if (comp[start] != -1) continue;
    int c = static_cast<int>(out.size());
    out.emplace_back();
    bfs.clear();
    bfs.push_back(start);
    comp[start] = c;
    for (size_t head = 0; head < bfs.size(); ++head) {
      NodeId n = bfs[head];
      out[c].push_back(n);
      for (int32_t index : adj_[n]) {
        const Link& link = links_[index];
        if (!LinkUsable(link)) continue;
        NodeId other = link.a == n ? link.b : link.a;
        if (comp[other] == -1) {
          comp[other] = c;
          bfs.push_back(other);
        }
      }
    }
    std::sort(out[c].begin(), out[c].end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

SimTime Topology::MinCrossPartitionLatency(
    const std::vector<int>& owner) const {
  SimTime best = kSimTimeMax;
  for (const Link& link : links_) {
    if (!LinkUsable(link)) continue;
    if (owner[link.a] == owner[link.b]) continue;
    best = std::min(best, link.latency);
  }
  return best;
}

void Topology::OnChange(std::function<void()> fn) {
  listeners_.push_back(std::move(fn));
}

void Topology::PrecomputeAllRows() const {
  for (NodeId n = 0; n < node_count_; ++n) {
    if (!row_valid_[n]) ComputeRow(n);
  }
}

void Topology::InvalidateCache() {
  std::fill(row_valid_.begin(), row_valid_.end(), false);
  bounds_valid_ = false;
}

void Topology::NotifyChange() {
  // Listeners may immediately re-query paths (e.g. Network::FlushPending),
  // so the cache must be stale-free before the first callback runs.
  InvalidateCache();
  for (auto& fn : listeners_) fn();
}

}  // namespace fragdb

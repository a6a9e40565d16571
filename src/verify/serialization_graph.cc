#include "verify/serialization_graph.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

#include "common/logging.h"

namespace fragdb {

namespace {

/// Whether ascending `ids` holds `id`.
bool Contains(const std::vector<TxnId>& ids, TxnId id) {
  return std::binary_search(ids.begin(), ids.end(), id);
}

}  // namespace

void TxnGraph::AddVertex(TxnId v) {
  vertices_.push_back(v);
  sealed_ = false;
}

void TxnGraph::AddEdge(TxnId from, TxnId to) {
  if (from == to) return;
  edges_.emplace_back(from, to);
  sealed_ = false;
}

void TxnGraph::Seal() const {
  if (sealed_) return;
  sealed_ = true;
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  // Maps the edges onto dense indices. An endpoint that is not a vertex
  // yet becomes one, and the mapping runs again.
  for (;;) {
    std::sort(vertices_.begin(), vertices_.end());
    vertices_.erase(std::unique(vertices_.begin(), vertices_.end()),
                    vertices_.end());
    FRAGDB_CHECK(vertices_.size() < std::numeric_limits<uint32_t>::max());
    starts_.assign(vertices_.size() + 1, 0);
    targets_.clear();
    std::vector<TxnId> implied;
    auto from = vertices_.begin();
    for (const auto& [source, target] : edges_) {
      while (from != vertices_.end() && *from < source) ++from;
      if (from == vertices_.end() || *from != source) {
        implied.push_back(source);
      } else {
        ++starts_[static_cast<size_t>(from - vertices_.begin()) + 1];
      }
      auto to = std::lower_bound(vertices_.begin(), vertices_.end(), target);
      if (to == vertices_.end() || *to != target) {
        implied.push_back(target);
      } else {
        targets_.push_back(static_cast<uint32_t>(to - vertices_.begin()));
      }
    }
    if (implied.empty()) break;
    vertices_.insert(vertices_.end(), implied.begin(), implied.end());
  }
  FRAGDB_CHECK(targets_.size() <= std::numeric_limits<uint32_t>::max());
  for (size_t v = 0; v < vertices_.size(); ++v) starts_[v + 1] += starts_[v];
}

bool TxnGraph::HasVertex(TxnId v) const {
  Seal();
  return Contains(vertices_, v);
}

bool TxnGraph::HasEdge(TxnId from, TxnId to) const {
  Seal();
  return std::binary_search(edges_.begin(), edges_.end(),
                            std::pair<TxnId, TxnId>{from, to});
}

size_t TxnGraph::vertex_count() const {
  Seal();
  return vertices_.size();
}

size_t TxnGraph::edge_count() const {
  Seal();
  return edges_.size();
}

std::vector<TxnId> TxnGraph::FindCycle() const {
  Seal();
  enum : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(vertices_.size(), kWhite);
  // The DFS path, and for each vertex on it the next out-edge to try.
  std::vector<uint32_t> path;
  std::vector<uint32_t> next_edge;
  for (uint32_t root = 0; root < vertices_.size(); ++root) {
    if (color[root] != kWhite) continue;
    color[root] = kGray;
    path.push_back(root);
    next_edge.push_back(starts_[root]);
    while (!path.empty()) {
      const uint32_t v = path.back();
      if (next_edge.back() == starts_[v + 1]) {
        color[v] = kBlack;
        path.pop_back();
        next_edge.pop_back();
        continue;
      }
      const uint32_t next = targets_[next_edge.back()++];
      if (color[next] == kGray) {
        std::vector<TxnId> cycle;
        for (auto it = std::find(path.begin(), path.end(), next);
             it != path.end(); ++it) {
          cycle.push_back(vertices_[*it]);
        }
        return cycle;
      }
      if (color[next] == kWhite) {
        color[next] = kGray;
        path.push_back(next);
        next_edge.push_back(starts_[next]);
      }
    }
  }
  return {};
}

std::string TxnGraph::ToDot(const History* history) const {
  std::vector<TxnId> cycle = FindCycle();
  std::vector<bool> hot(vertices_.size(), false);
  for (TxnId v : cycle) {
    hot[std::lower_bound(vertices_.begin(), vertices_.end(), v) -
        vertices_.begin()] = true;
  }
  std::string out = "digraph gsg {\n";
  for (uint32_t i = 0; i < vertices_.size(); ++i) {
    const TxnId v = vertices_[i];
    out += "  T" + std::to_string(v);
    std::string label = "T" + std::to_string(v);
    if (history != nullptr) {
      const TxnRecord* rec = history->FindTxn(v);
      if (rec != nullptr) {
        if (!rec->label.empty()) label += "\\n" + rec->label;
        if (rec->type_fragment != kInvalidFragment) {
          label += "\\ntp=F" + std::to_string(rec->type_fragment);
        }
      }
    }
    out += " [label=\"" + label + "\"";
    if (hot[i]) out += ", color=red, penwidth=2";
    out += "];\n";
    for (uint32_t to : Out(i)) {
      out += "  T" + std::to_string(v) + " -> T" +
             std::to_string(vertices_[to]);
      if (hot[i] && hot[to]) out += " [color=red]";
      out += ";\n";
    }
  }
  out += "}\n";
  return out;
}

namespace {

/// Shared conflict-edge machinery: adds ww/wr/rw edges derived from the
/// multiversion history, restricted to vertex pairs accepted by `keep`.
/// With a valid `fragment`, only that fragment's version chains and read
/// observations are visited — sound whenever `keep` accepts only pairs
/// of that fragment's updaters, because every such conflict is anchored
/// on an object the fragment wrote.
template <typename Keep>
void AddConflictEdges(const History& history, TxnGraph& g, const Keep& keep,
                      FragmentId fragment = kInvalidFragment) {
  // ww edges: consecutive versions of each object.
  auto chain_edges = [&](std::span<const std::pair<TxnId, SeqNum>> chain) {
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
      if (keep(chain[i].first, chain[i + 1].first)) {
        g.AddEdge(chain[i].first, chain[i + 1].first);
      }
    }
  };

  // wr and rw edges from one read observation.
  auto read_edges = [&](const ReadRecord& r) {
    if (history.FindTxn(r.reader) == nullptr) return;
    if (r.version_writer != kInvalidTxn && r.version_writer != r.reader &&
        keep(r.version_writer, r.reader)) {
      g.AddEdge(r.version_writer, r.reader);  // wr
    }
    // rw: the first version after the one observed.
    const auto chain = history.VersionsOf(r.object);
    auto next = std::upper_bound(
        chain.begin(), chain.end(), r.version_seq,
        [](SeqNum seq, const std::pair<TxnId, SeqNum>& v) {
          return seq < v.second;
        });
    if (next != chain.end() && next->first != r.reader &&
        keep(r.reader, next->first)) {
      g.AddEdge(r.reader, next->first);  // rw
    }
  };

  if (fragment == kInvalidFragment) {
    const VersionChainTable& chains = history.VersionChains();
    for (size_t i = 0; i < chains.size(); ++i) chain_edges(chains.chain(i));
    for (const ReadRecord& r : history.reads()) read_edges(r);
  } else {
    for (ObjectId o : history.ObjectsOf(fragment)) {
      chain_edges(history.VersionsOf(o));
    }
    for (const ReadRecord* r : history.ReadsOn(fragment)) read_edges(*r);
  }
}

/// A graph over `members` (ascending ids) with the conflict edges between
/// them.
TxnGraph MemberGraph(const History& history,
                     const std::vector<TxnId>& members,
                     FragmentId fragment = kInvalidFragment) {
  TxnGraph g;
  for (TxnId id : members) g.AddVertex(id);
  auto keep = [&](TxnId a, TxnId b) {
    return Contains(members, a) && Contains(members, b);
  };
  AddConflictEdges(history, g, keep, fragment);
  return g;
}

}  // namespace

TxnGraph BuildGlobalSerializationGraph(const History& history) {
  std::vector<TxnId> committed;
  for (const auto& [id, rec] : history.txns()) {
    if (rec.committed) committed.push_back(id);
  }
  return MemberGraph(history, committed);
}

TxnGraph BuildUpdaterGraph(const History& history, FragmentId fragment) {
  return MemberGraph(history, history.UpdatersOf(fragment), fragment);
}

TxnGraph BuildLocalSerializationGraph(const History& history,
                                      FragmentId fragment,
                                      const ReadAccessGraph& rag,
                                      NodeId home_node) {
  // Vertex set per Definition 8.3: transactions of type `fragment`, plus
  // transactions of every type F_s that A(fragment)'s transactions read.
  auto in_scope = [&](const TxnRecord& rec) {
    if (!rec.committed) return false;
    if (rec.type_fragment == fragment) return true;
    return rec.type_fragment != kInvalidFragment &&
           rag.HasEdge(fragment, rec.type_fragment) &&
           !rec.read_only;  // remote readers never materialize here
  };
  std::vector<TxnId> members;
  for (const auto& [id, rec] : history.txns()) {
    if (in_scope(rec)) members.push_back(id);
  }
  TxnGraph g;
  for (TxnId id : members) g.AddVertex(id);
  auto type_of = [&](TxnId id) -> FragmentId {
    const TxnRecord* rec = history.FindTxn(id);
    return rec ? rec->type_fragment : kInvalidFragment;
  };

  // (i) + (ii): conflict edges where at least one endpoint is local (type
  // == fragment). Reads by local transactions happen at home_node, which
  // is what clause (ii) requires; conflicts between two local transactions
  // are clause (i).
  auto keep = [&](TxnId a, TxnId b) {
    if (!Contains(members, a) || !Contains(members, b)) return false;
    FragmentId ta = type_of(a), tb = type_of(b);
    if (ta == fragment || tb == fragment) return true;
    return false;  // clauses (iii)/(iv) are handled below
  };
  AddConflictEdges(history, g, keep);

  // (iii): pairs of non-local transactions of the same type, ordered by
  // installation order at home_node. (iv): different types — no edge.
  std::vector<std::tuple<FragmentId, int64_t, TxnId>> by_type;
  for (const InstallRecord& rec : history.installs()) {
    if (rec.node != home_node) continue;
    const TxnRecord* t = history.FindTxn(rec.writer);
    if (t == nullptr || !Contains(members, rec.writer)) continue;
    if (t->type_fragment == fragment) continue;  // local, covered above
    by_type.emplace_back(t->type_fragment, rec.node_order, rec.writer);
  }
  std::sort(by_type.begin(), by_type.end());
  for (size_t i = 0; i + 1 < by_type.size(); ++i) {
    if (std::get<0>(by_type[i]) == std::get<0>(by_type[i + 1])) {
      g.AddEdge(std::get<2>(by_type[i]), std::get<2>(by_type[i + 1]));
    }
  }
  return g;
}

}  // namespace fragdb

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
  // Maps the edges onto dense indices. An endpoint that is not a vertex
  // yet becomes one, and the mapping runs again.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (;;) {
    std::sort(vertices_.begin(), vertices_.end());
    vertices_.erase(std::unique(vertices_.begin(), vertices_.end()),
                    vertices_.end());
    FRAGDB_CHECK(vertices_.size() < std::numeric_limits<uint32_t>::max());
    std::vector<TxnId> implied;
    auto index = [&](TxnId id) {
      auto it = std::lower_bound(vertices_.begin(), vertices_.end(), id);
      if (it == vertices_.end() || *it != id) implied.push_back(id);
      return static_cast<uint32_t>(it - vertices_.begin());
    };
    edges.clear();
    edges.reserve(edges_.size());
    for (const auto& [from, to] : edges_) {
      edges.emplace_back(index(from), index(to));
    }
    if (implied.empty()) break;
    vertices_.insert(vertices_.end(), implied.begin(), implied.end());
  }
  Pack({&edges, 1});
}

TxnGraph TxnGraph::FromIndexEdges(
    std::vector<TxnId> vertices,
    std::span<const std::vector<std::pair<uint32_t, uint32_t>>> edges) {
  TxnGraph g;
  g.vertices_ = std::move(vertices);
  g.Pack(edges);
  return g;
}

void TxnGraph::Pack(
    std::span<const std::vector<std::pair<uint32_t, uint32_t>>> edges) const {
  const size_t n = vertices_.size();
  FRAGDB_CHECK(n < std::numeric_limits<uint32_t>::max());
  // Counting sort by source, then each adjacency list sorted and
  // deduplicated in place; edges_ follows in (from, to) order.
  starts_.assign(n + 1, 0);
  for (const auto& list : edges) {
    for (const auto& [from, to] : list) {
      if (from != to) ++starts_[from + 1];
    }
  }
  for (size_t v = 0; v < n; ++v) starts_[v + 1] += starts_[v];
  FRAGDB_CHECK(starts_[n] <= std::numeric_limits<uint32_t>::max());
  targets_.resize(starts_[n]);
  std::vector<uint32_t> fill(starts_.begin(), starts_.end() - 1);
  for (const auto& list : edges) {
    for (const auto& [from, to] : list) {
      if (from != to) targets_[fill[from]++] = to;
    }
  }
  edges_.clear();
  size_t kept = 0;
  for (size_t v = 0, begin = 0; v < n; ++v) {
    const size_t end = starts_[v + 1];
    std::sort(targets_.begin() + static_cast<ptrdiff_t>(begin),
              targets_.begin() + static_cast<ptrdiff_t>(end));
    starts_[v] = kept;
    for (size_t k = begin; k < end; ++k) {
      const uint32_t to = targets_[k];
      if (kept > starts_[v] && targets_[kept - 1] == to) continue;
      targets_[kept++] = to;
      edges_.emplace_back(vertices_[v], vertices_[to]);
    }
    begin = end;
  }
  starts_[n] = kept;
  targets_.resize(kept);
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

/// ww edges: consecutive versions of one object, passed to `emit`.
template <typename Emit>
void ChainEdges(std::span<const std::pair<TxnId, SeqNum>> chain,
                const Emit& emit) {
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    emit(chain[i].first, chain[i + 1].first);
  }
}

/// wr and rw edges from one read observation, passed to `emit`.
template <typename Emit>
void ReadEdges(const History& history, const ReadRecord& r,
               const Emit& emit) {
  if (history.FindTxn(r.reader) == nullptr) return;
  if (r.version_writer != kInvalidTxn && r.version_writer != r.reader) {
    emit(r.version_writer, r.reader);  // wr
  }
  // rw: the first version after the one observed.
  const auto chain = history.VersionsOf(r.object);
  auto next = std::upper_bound(
      chain.begin(), chain.end(), r.version_seq,
      [](SeqNum seq, const std::pair<TxnId, SeqNum>& v) {
        return seq < v.second;
      });
  if (next != chain.end() && next->first != r.reader) {
    emit(r.reader, next->first);  // rw
  }
}

/// Shared conflict-edge machinery: adds ww/wr/rw edges derived from the
/// multiversion history, restricted to vertex pairs accepted by `keep`.
/// With a valid `fragment`, only that fragment's version chains and read
/// observations are visited — sound whenever `keep` accepts only pairs
/// of that fragment's updaters, because every such conflict is anchored
/// on an object the fragment wrote.
template <typename Keep>
void AddConflictEdges(const History& history, TxnGraph& g, const Keep& keep,
                      FragmentId fragment = kInvalidFragment) {
  auto emit = [&](TxnId from, TxnId to) {
    if (keep(from, to)) g.AddEdge(from, to);
  };
  if (fragment == kInvalidFragment) {
    const VersionChainTable& chains = history.VersionChains();
    for (size_t i = 0; i < chains.size(); ++i) {
      ChainEdges(chains.chain(i), emit);
    }
    for (const ReadRecord& r : history.reads()) ReadEdges(history, r, emit);
  } else {
    for (ObjectId o : history.ObjectsOf(fragment)) {
      ChainEdges(history.VersionsOf(o), emit);
    }
    for (const ReadRecord* r : history.ReadsOn(fragment)) {
      ReadEdges(history, *r, emit);
    }
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

/// Versions or reads per GlobalGraphTasks task: enough work to amortize
/// a task, small enough to spread a dense history over the workers.
constexpr size_t kEdgeChunk = 2048;

}  // namespace

GlobalGraphTasks::GlobalGraphTasks(const History& history)
    : history_(history) {
  const History::TxnTable& txns = history.txns();
  rank_.assign(txns.size(), kNotVertex);
  for (size_t i = 0; i < txns.size(); ++i) {
    if (!txns[i].second.committed) continue;
    rank_[i] = static_cast<uint32_t>(committed_.size());
    committed_.push_back(txns[i].first);
  }
  const VersionChainTable& chains = history.VersionChains();
  chain_bounds_.push_back(0);
  for (size_t i = 0; i < chains.size(); ++i) {
    if (chains.starts[i + 1] - chains.starts[chain_bounds_.back()] >=
        kEdgeChunk) {
      chain_bounds_.push_back(i + 1);
    }
  }
  if (chain_bounds_.back() != chains.size()) {
    chain_bounds_.push_back(chains.size());
  }
  const size_t reads = history.reads().size();
  edges_.resize(chain_bounds_.size() - 1 +
                (reads + kEdgeChunk - 1) / kEdgeChunk);
}

uint32_t GlobalGraphTasks::Rank(TxnId id) const {
  const size_t i = history_.TxnIndex(id);
  return i == History::kNoTxn ? kNotVertex : rank_[i];
}

void GlobalGraphTasks::Run(size_t task) {
  std::vector<std::pair<uint32_t, uint32_t>>& out = edges_[task];
  auto emit = [&](TxnId from, TxnId to) {
    const uint32_t a = Rank(from);
    const uint32_t b = Rank(to);
    if (a != kNotVertex && b != kNotVertex) out.emplace_back(a, b);
  };
  const size_t chain_tasks = chain_bounds_.size() - 1;
  if (task < chain_tasks) {
    const VersionChainTable& chains = history_.VersionChains();
    for (size_t i = chain_bounds_[task]; i < chain_bounds_[task + 1]; ++i) {
      ChainEdges(chains.chain(i), emit);
    }
    return;
  }
  const std::span<const ReadRecord> reads = history_.reads();
  const size_t first = (task - chain_tasks) * kEdgeChunk;
  const size_t last = std::min(reads.size(), first + kEdgeChunk);
  for (size_t i = first; i < last; ++i) ReadEdges(history_, reads[i], emit);
}

TxnGraph GlobalGraphTasks::Graph() {
  TxnGraph g = TxnGraph::FromIndexEdges(std::move(committed_), edges_);
  edges_.clear();
  return g;
}

TxnGraph BuildGlobalSerializationGraph(const History& history) {
  GlobalGraphTasks graph(history);
  for (size_t i = 0; i < graph.tasks(); ++i) graph.Run(i);
  return graph.Graph();
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

#include "verify/serialization_graph.h"

#include <algorithm>
#include <functional>
#include <string>

#include "common/logging.h"

namespace fragdb {

void TxnGraph::AddVertex(TxnId v) { adj_[v]; }

void TxnGraph::AddEdge(TxnId from, TxnId to) {
  if (from == to) return;
  adj_[from].insert(to);
  adj_[to];
}

bool TxnGraph::HasEdge(TxnId from, TxnId to) const {
  auto it = adj_.find(from);
  return it != adj_.end() && it->second.count(to) > 0;
}

size_t TxnGraph::edge_count() const {
  size_t n = 0;
  for (const auto& [v, out] : adj_) {
    (void)v;
    n += out.size();
  }
  return n;
}

std::vector<TxnId> TxnGraph::FindCycle() const {
  std::map<TxnId, int> color;  // 0 white, 1 gray, 2 black
  std::vector<TxnId> stack;
  std::vector<TxnId> cycle;

  std::function<bool(TxnId)> dfs = [&](TxnId v) -> bool {
    color[v] = 1;
    stack.push_back(v);
    auto it = adj_.find(v);
    if (it != adj_.end()) {
      for (TxnId next : it->second) {
        if (color[next] == 1) {
          auto pos = std::find(stack.begin(), stack.end(), next);
          cycle.assign(pos, stack.end());
          return true;
        }
        if (color[next] == 0 && dfs(next)) return true;
      }
    }
    stack.pop_back();
    color[v] = 2;
    return false;
  };
  for (const auto& [v, out] : adj_) {
    (void)out;
    if (color[v] == 0 && dfs(v)) break;
  }
  return cycle;
}

std::string TxnGraph::ToDot(const History* history) const {
  std::vector<TxnId> cycle = FindCycle();
  std::set<TxnId> hot(cycle.begin(), cycle.end());
  std::string out = "digraph gsg {\n";
  for (const auto& [v, edges] : adj_) {
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
    if (hot.count(v) > 0) out += ", color=red, penwidth=2";
    out += "];\n";
    for (TxnId to : edges) {
      out += "  T" + std::to_string(v) + " -> T" + std::to_string(to);
      if (hot.count(v) > 0 && hot.count(to) > 0) out += " [color=red]";
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
void AddConflictEdges(const History& history, TxnGraph& g,
                      const std::function<bool(TxnId, TxnId)>& keep,
                      FragmentId fragment = kInvalidFragment) {
  // ww edges: consecutive versions of each object.
  auto chain_edges = [&](const std::vector<std::pair<TxnId, SeqNum>>& chain) {
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
    const auto& chain = history.VersionsOf(r.object);
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
    for (const auto& [object, chain] : history.VersionChains()) {
      (void)object;
      chain_edges(chain);
    }
    for (const ReadRecord& r : history.reads()) read_edges(r);
  } else {
    for (ObjectId o : history.ObjectsOf(fragment)) {
      chain_edges(history.VersionsOf(o));
    }
    for (const ReadRecord* r : history.ReadsOn(fragment)) read_edges(*r);
  }
}

}  // namespace

TxnGraph BuildGlobalSerializationGraph(const History& history) {
  TxnGraph g;
  for (const auto& [id, rec] : history.txns()) {
    if (rec.committed) g.AddVertex(id);
  }
  auto keep = [&](TxnId a, TxnId b) {
    return g.HasVertex(a) && g.HasVertex(b);
  };
  AddConflictEdges(history, g, keep);
  return g;
}

TxnGraph BuildUpdaterGraph(const History& history, FragmentId fragment) {
  TxnGraph g;
  for (TxnId id : history.UpdatersOf(fragment)) g.AddVertex(id);
  auto keep = [&](TxnId a, TxnId b) {
    return g.HasVertex(a) && g.HasVertex(b);
  };
  AddConflictEdges(history, g, keep, fragment);
  return g;
}

TxnGraph BuildLocalSerializationGraph(const History& history,
                                      FragmentId fragment,
                                      const ReadAccessGraph& rag,
                                      NodeId home_node) {
  TxnGraph g;
  // Vertex set per Definition 8.3: transactions of type `fragment`, plus
  // transactions of every type F_s that A(fragment)'s transactions read.
  auto in_scope = [&](const TxnRecord& rec) {
    if (!rec.committed) return false;
    if (rec.type_fragment == fragment) return true;
    return rec.type_fragment != kInvalidFragment &&
           rag.HasEdge(fragment, rec.type_fragment) &&
           !rec.read_only;  // remote readers never materialize here
  };
  for (const auto& [id, rec] : history.txns()) {
    if (in_scope(rec)) g.AddVertex(id);
  }
  auto type_of = [&](TxnId id) -> FragmentId {
    const TxnRecord* rec = history.FindTxn(id);
    return rec ? rec->type_fragment : kInvalidFragment;
  };

  // (i) + (ii): conflict edges where at least one endpoint is local (type
  // == fragment). Reads by local transactions happen at home_node, which
  // is what clause (ii) requires; conflicts between two local transactions
  // are clause (i).
  auto keep = [&](TxnId a, TxnId b) {
    if (!g.HasVertex(a) || !g.HasVertex(b)) return false;
    FragmentId ta = type_of(a), tb = type_of(b);
    if (ta == fragment || tb == fragment) return true;
    return false;  // clauses (iii)/(iv) are handled below
  };
  AddConflictEdges(history, g, keep);

  // (iii): pairs of non-local transactions of the same type, ordered by
  // installation order at home_node. (iv): different types — no edge.
  std::map<FragmentId, std::vector<std::pair<int64_t, TxnId>>> by_type;
  for (const InstallRecord& rec : history.installs()) {
    if (rec.node != home_node) continue;
    const TxnRecord* t = history.FindTxn(rec.writer);
    if (t == nullptr || !g.HasVertex(rec.writer)) continue;
    if (t->type_fragment == fragment) continue;  // local, covered above
    by_type[t->type_fragment].emplace_back(rec.node_order, rec.writer);
  }
  for (auto& [type, seq] : by_type) {
    (void)type;
    std::sort(seq.begin(), seq.end());
    for (size_t i = 0; i + 1 < seq.size(); ++i) {
      g.AddEdge(seq[i].second, seq[i + 1].second);
    }
  }
  return g;
}

}  // namespace fragdb

#ifndef FRAGDB_VERIFY_SERIALIZATION_GRAPH_H_
#define FRAGDB_VERIFY_SERIALIZATION_GRAPH_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "storage/read_access_graph.h"
#include "verify/history.h"

namespace fragdb {

/// Directed graph over transaction ids with cycle detection. Used for both
/// the global serialization graph (paper Definition 8.2) and the local
/// serialization graphs (Definition 8.3).
///
/// AddVertex and AddEdge append; the first query after them sorts the
/// vertices (a vertex's dense index is its rank by id) and packs the
/// edges into sorted adjacency vectors. Queries visit vertices and
/// neighbours in ascending id order. Concurrent first queries are not
/// supported.
class TxnGraph {
 public:
  TxnGraph() = default;

  void AddVertex(TxnId v);
  void AddEdge(TxnId from, TxnId to);

  bool HasVertex(TxnId v) const;
  bool HasEdge(TxnId from, TxnId to) const;

  size_t vertex_count() const;
  size_t edge_count() const;

  bool Acyclic() const { return FindCycle().empty(); }

  /// Returns the vertices of some cycle (in order), or empty if acyclic.
  /// Iterative, so path length is bounded by memory, not the stack.
  std::vector<TxnId> FindCycle() const;

  /// Graphviz DOT rendering, for debugging failed checks. `history` is
  /// optional: when provided, vertices are labeled with transaction labels
  /// and types, and cycle members are highlighted.
  std::string ToDot(const History* history = nullptr) const;

  /// The sealed graph over `vertices` (ascending, distinct) with the
  /// edges listed as (from, to) positions in `vertices`, in any order,
  /// repeated or not, spread over any number of lists; self-loops are
  /// dropped. The same graph as AddVertex and AddEdge would build, in
  /// time linear in the edges.
  static TxnGraph FromIndexEdges(
      std::vector<TxnId> vertices,
      std::span<const std::vector<std::pair<uint32_t, uint32_t>>> edges);

 private:
  /// Sorts what was appended since the last query and rebuilds the
  /// adjacency.
  void Seal() const;
  /// Builds starts_, targets_ and edges_ from `edges`, (from, to)
  /// positions in vertices_ as FromIndexEdges takes them.
  void Pack(
      std::span<const std::vector<std::pair<uint32_t, uint32_t>>> edges) const;
  std::span<const uint32_t> Out(uint32_t v) const {
    return {targets_.data() + starts_[v], targets_.data() + starts_[v + 1]};
  }

  /// Ascending and distinct once sealed; index = dense vertex id.
  mutable std::vector<TxnId> vertices_;
  /// (from, to) by id; ascending and distinct once sealed.
  mutable std::vector<std::pair<TxnId, TxnId>> edges_;
  mutable bool sealed_ = true;
  /// Vertex v's out-neighbours are targets_[starts_[v], starts_[v + 1]).
  mutable std::vector<uint32_t> starts_{0};
  mutable std::vector<uint32_t> targets_;
};

/// Builds the global serialization graph of Definition 8.2 from a recorded
/// history. Edges are conflict edges over the multiversion history, with
/// the version order of each object given by its fragment's commit
/// sequence:
///  * ww: consecutive versions of an object;
///  * wr: reader observed the writer's version;
///  * rw: reader observed a version that the (next) writer overwrote —
///    i.e., the writer's update was installed at the reader's node after
///    the read, which is exactly clause (ii) of Definition 8.2.
/// Acyclicity of this graph is equivalent to global serializability.
TxnGraph BuildGlobalSerializationGraph(const History& history);

/// The global serialization graph's construction split into independent
/// tasks: Run(i), for each i below tasks(), generates the conflict edges
/// of one chunk of version chains or read observations, and may run
/// concurrently with the others; Graph() then merges the chunks' edges.
/// The history's lookup tables must be built (History::PrepareLookups)
/// before tasks run concurrently.
class GlobalGraphTasks {
 public:
  explicit GlobalGraphTasks(const History& history);
  size_t tasks() const { return edges_.size(); }
  void Run(size_t task);
  TxnGraph Graph();

 private:
  static constexpr uint32_t kNotVertex = static_cast<uint32_t>(-1);
  /// The vertex of `id`, or kNotVertex.
  uint32_t Rank(TxnId id) const;

  const History& history_;
  /// The vertices: committed transactions, ascending.
  std::vector<TxnId> committed_;
  /// By txns() position: the transaction's vertex, or kNotVertex.
  std::vector<uint32_t> rank_;
  /// Chain task i covers version chains [chain_bounds_[i],
  /// chain_bounds_[i + 1]); the tasks after them cover reads.
  std::vector<size_t> chain_bounds_;
  /// Each task's edges, as vertex pairs.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> edges_;
};

/// Builds the local serialization graph for `fragment` per Definition 8.3.
/// `home_node` is the home node of the fragment's agent; `rag` supplies the
/// set of fragment types whose transactions appear as non-local vertices.
TxnGraph BuildLocalSerializationGraph(const History& history,
                                      FragmentId fragment,
                                      const ReadAccessGraph& rag,
                                      NodeId home_node);

/// Builds the serialization graph restricted to the committed transactions
/// in U(`fragment`) — the schedule the paper's Property 1 requires to be
/// serializable. Both endpoints of every U(F_i) conflict edge touch F_i's
/// own objects, so only `fragment`'s version chains and reads are
/// visited: a per-fragment sweep over all fragments is linear in the
/// history, not quadratic.
TxnGraph BuildUpdaterGraph(const History& history, FragmentId fragment);

}  // namespace fragdb

#endif  // FRAGDB_VERIFY_SERIALIZATION_GRAPH_H_

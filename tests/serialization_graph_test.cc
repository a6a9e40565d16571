#include "verify/serialization_graph.h"

#include <gtest/gtest.h>

namespace fragdb {
namespace {

// ---------------------------------------------------------------------------
// TxnGraph basics
// ---------------------------------------------------------------------------

TEST(TxnGraphTest, EmptyIsAcyclic) {
  TxnGraph g;
  EXPECT_TRUE(g.Acyclic());
  EXPECT_EQ(g.vertex_count(), 0u);
}

TEST(TxnGraphTest, SelfEdgeIgnored) {
  TxnGraph g;
  g.AddEdge(1, 1);
  EXPECT_TRUE(g.Acyclic());
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(TxnGraphTest, ChainIsAcyclic) {
  TxnGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  EXPECT_TRUE(g.Acyclic());
  EXPECT_TRUE(g.FindCycle().empty());
}

TEST(TxnGraphTest, TriangleCycleFound) {
  TxnGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 1);
  EXPECT_FALSE(g.Acyclic());
  auto cycle = g.FindCycle();
  EXPECT_EQ(cycle.size(), 3u);
}

TEST(TxnGraphTest, TwoCycleFound) {
  TxnGraph g;
  g.AddEdge(5, 6);
  g.AddEdge(6, 5);
  auto cycle = g.FindCycle();
  EXPECT_EQ(cycle.size(), 2u);
}

TEST(TxnGraphTest, DisconnectedComponents) {
  TxnGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(10, 11);
  g.AddEdge(11, 10);
  EXPECT_FALSE(g.Acyclic());
}

TEST(TxnGraphTest, HasEdgeAndVertexQueries) {
  TxnGraph g;
  g.AddVertex(7);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.HasVertex(7));
  EXPECT_TRUE(g.HasVertex(1));
  EXPECT_TRUE(g.HasVertex(2));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(2, 1));
}

TEST(TxnGraphTest, LongChainHasNoCycle) {
  // Deeper than a recursive search survives on a default 8 MB stack.
  TxnGraph g;
  const TxnId n = 200000;
  for (TxnId v = 1; v < n; ++v) g.AddEdge(v, v + 1);
  EXPECT_TRUE(g.FindCycle().empty());
  EXPECT_EQ(g.vertex_count(), static_cast<size_t>(n));
}

TEST(TxnGraphTest, LongChainWithBackEdgeReturnsTheWholeCycle) {
  TxnGraph g;
  const TxnId n = 200000;
  for (TxnId v = 1; v < n; ++v) g.AddEdge(v, v + 1);
  g.AddEdge(n, 1);
  std::vector<TxnId> cycle = g.FindCycle();
  ASSERT_EQ(cycle.size(), static_cast<size_t>(n));
  for (TxnId v = 1; v <= n; ++v) EXPECT_EQ(cycle[v - 1], v);
}

TEST(TxnGraphTest, CycleWitnessFollowsAscendingIds) {
  // Two cycles through T1; edges are added in descending order, and the
  // search must still take T1's lowest neighbour first.
  TxnGraph g;
  g.AddEdge(30, 1);
  g.AddEdge(1, 30);
  g.AddEdge(20, 1);
  g.AddEdge(1, 20);
  EXPECT_EQ(g.FindCycle(), (std::vector<TxnId>{1, 20}));
}

// ---------------------------------------------------------------------------
// Global serialization graph from histories
// ---------------------------------------------------------------------------

struct HistoryBuilder {
  History h;
  void Txn(TxnId id, FragmentId type, NodeId home, bool read_only = false) {
    TxnRecord rec;
    rec.id = id;
    rec.type_fragment = type;
    rec.home = home;
    rec.read_only = read_only;
    h.RegisterTxn(rec);
  }
  void Commit(TxnId id, SeqNum seq) { h.MarkCommitted(id, seq); }
  void Write(TxnId id, FragmentId f, SeqNum seq,
             std::vector<WriteOp> writes) {
    QuasiTxn q;
    q.origin_txn = id;
    q.fragment = f;
    q.seq = seq;
    q.writes = std::move(writes);
    h.RecordInstall(0, q, 0);
  }
  void Read(TxnId reader, ObjectId object, TxnId vwriter, SeqNum vseq,
            NodeId node = 0) {
    ReadRecord r;
    r.reader = reader;
    r.node = node;
    r.object = object;
    r.version_writer = vwriter;
    r.version_seq = vseq;
    h.RecordRead(r);
  }
};

TEST(GlobalGraphTest, WrEdgeFromObservedVersion) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Txn(2, 1, 1);
  b.Commit(1, 1);
  b.Commit(2, 1);
  b.Write(1, 0, 1, {{0, 5}});
  b.Read(2, 0, /*vwriter=*/1, /*vseq=*/1);
  TxnGraph g = BuildGlobalSerializationGraph(b.h);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.Acyclic());
}

TEST(GlobalGraphTest, RwEdgeFromStaleRead) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Txn(2, 1, 1);
  b.Commit(1, 1);
  b.Commit(2, 1);
  b.Write(1, 0, 1, {{0, 5}});
  // Txn 2 read the initial version, so it precedes writer 1.
  b.Read(2, 0, kInvalidTxn, 0);
  TxnGraph g = BuildGlobalSerializationGraph(b.h);
  EXPECT_TRUE(g.HasEdge(2, 1));
}

TEST(GlobalGraphTest, WwEdgesFollowVersionOrder) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Txn(2, 0, 0);
  b.Commit(1, 1);
  b.Commit(2, 2);
  b.Write(1, 0, 1, {{0, 5}});
  b.Write(2, 0, 2, {{0, 6}});
  TxnGraph g = BuildGlobalSerializationGraph(b.h);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(2, 1));
}

TEST(GlobalGraphTest, UncommittedTxnsExcluded) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Txn(2, 1, 1);
  b.Commit(1, 1);
  // txn 2 never commits
  b.Write(1, 0, 1, {{0, 5}});
  b.Read(2, 0, 1, 1);
  TxnGraph g = BuildGlobalSerializationGraph(b.h);
  EXPECT_FALSE(g.HasVertex(2));
  EXPECT_EQ(g.vertex_count(), 1u);
}

// The paper's Fig. 4.3.1/4.3.2 anti-example: an acyclic but not
// elementarily acyclic read-access graph yields the GSG cycle
// T1 -> T3 -> T2 -> T1.
TEST(GlobalGraphTest, PaperFig431CycleReproduced) {
  // Objects: a(=0) in F1, b(=1) in F2, c(=2) in F3.
  HistoryBuilder b;
  b.Txn(1, 0, 0);  // T1 by A(F1): r c, r b, w a
  b.Txn(2, 1, 1);  // T2 by A(F2): r c, w b
  b.Txn(3, 2, 2);  // T3 by A(F3): r c, w c
  b.Commit(1, 1);
  b.Commit(2, 1);
  b.Commit(3, 1);
  b.Write(1, 0, 1, {{0, 1}});
  b.Write(2, 1, 1, {{1, 1}});
  b.Write(3, 2, 1, {{2, 1}});
  // (T2,w,b) installed at home of A(F1) before (T1,r,b): T2 -> T1.
  b.Read(1, 1, 2, 1, /*node=*/0);
  // (T1,r,c) before (T3,w,c) installed there: T1 -> T3.
  b.Read(1, 2, kInvalidTxn, 0, /*node=*/0);
  // (T3,w,c) installed at home of A(F2) before (T2,r,c): T3 -> T2.
  b.Read(2, 2, 3, 1, /*node=*/1);
  TxnGraph g = BuildGlobalSerializationGraph(b.h);
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_TRUE(g.HasEdge(3, 2));
  EXPECT_FALSE(g.Acyclic());
  EXPECT_EQ(g.FindCycle().size(), 3u);
}

TEST(UpdaterGraphTest, RestrictsToOneFragment) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Txn(2, 0, 0);
  b.Txn(3, 1, 1);
  b.Commit(1, 1);
  b.Commit(2, 2);
  b.Commit(3, 1);
  b.Write(1, 0, 1, {{0, 1}});
  b.Write(2, 0, 2, {{0, 2}});
  b.Write(3, 1, 1, {{1, 1}});
  TxnGraph g = BuildUpdaterGraph(b.h, 0);
  EXPECT_EQ(g.vertex_count(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasVertex(3));
  EXPECT_TRUE(g.Acyclic());
}

TEST(LocalGraphTest, ContainsLocalAndReadFragmentTypes) {
  // F0 reads F1 (RAG edge). LSG(F0) holds F0's txns and F1's updaters.
  ReadAccessGraph rag(3);
  ASSERT_TRUE(rag.AddEdge(0, 1).ok());
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Txn(2, 1, 1);
  b.Txn(3, 2, 2);
  b.Commit(1, 1);
  b.Commit(2, 1);
  b.Commit(3, 1);
  b.Write(1, 0, 1, {{0, 1}});
  b.Write(2, 1, 1, {{1, 1}});
  b.Write(3, 2, 1, {{2, 1}});
  TxnGraph g = BuildLocalSerializationGraph(b.h, 0, rag, /*home=*/0);
  EXPECT_TRUE(g.HasVertex(1));
  EXPECT_TRUE(g.HasVertex(2));
  EXPECT_FALSE(g.HasVertex(3));  // F2 not read by F0
}

TEST(LocalGraphTest, NonLocalSameTypeOrderedByInstallOrder) {
  ReadAccessGraph rag(2);
  ASSERT_TRUE(rag.AddEdge(0, 1).ok());
  HistoryBuilder b;
  b.Txn(10, 1, 1);
  b.Txn(11, 1, 1);
  b.Commit(10, 1);
  b.Commit(11, 2);
  // Installs at node 0 (home of A(F0)), in order 10 then 11.
  QuasiTxn q1;
  q1.origin_txn = 10;
  q1.fragment = 1;
  q1.seq = 1;
  q1.writes = {{1, 1}};
  QuasiTxn q2 = q1;
  q2.origin_txn = 11;
  q2.seq = 2;
  q2.writes = {{2, 5}};
  b.h.RecordInstall(0, q1, 10);
  b.h.RecordInstall(0, q2, 20);
  TxnGraph g = BuildLocalSerializationGraph(b.h, 0, rag, /*home=*/0);
  EXPECT_TRUE(g.HasEdge(10, 11));
  EXPECT_FALSE(g.HasEdge(11, 10));
}


TEST(GlobalGraphTest, ReadOnlyReaderParticipatesInRwEdges) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);                      // writer
  b.Txn(2, kInvalidFragment, 1, true); // anonymous committed reader
  b.Commit(1, 1);
  b.Commit(2, 0);
  b.Write(1, 0, 1, {{0, 5}});
  b.Read(2, 0, kInvalidTxn, 0);        // read before the write installed
  TxnGraph g = BuildGlobalSerializationGraph(b.h);
  EXPECT_TRUE(g.HasVertex(2));
  EXPECT_TRUE(g.HasEdge(2, 1));        // rw: reader precedes writer
}

TEST(UpdaterGraphTest, ExcludesReadOnlyTransactions) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Txn(2, 0, 0, /*read_only=*/true);
  b.Commit(1, 1);
  b.Commit(2, 0);
  b.Write(1, 0, 1, {{0, 1}});
  b.Read(2, 0, 1, 1);
  TxnGraph g = BuildUpdaterGraph(b.h, 0);
  EXPECT_TRUE(g.HasVertex(1));
  EXPECT_FALSE(g.HasVertex(2));
}

TEST(LocalGraphTest, NoEdgesBetweenDifferentForeignTypes) {
  // Definition 8.3 clause (iv): two non-local transactions of different
  // types get no edge in LSG(F0), even if they conflict on data.
  ReadAccessGraph rag(3);
  ASSERT_TRUE(rag.AddEdge(0, 1).ok());
  ASSERT_TRUE(rag.AddEdge(0, 2).ok());
  HistoryBuilder b;
  b.Txn(10, 1, 1);
  b.Txn(20, 2, 2);
  b.Commit(10, 1);
  b.Commit(20, 1);
  b.Write(10, 1, 1, {{5, 1}});
  b.Write(20, 2, 1, {{6, 1}});
  // T20 reads T10's object (a conflict that WOULD make a GSG edge).
  b.Read(20, 5, 10, 1, /*node=*/2);
  TxnGraph lsg = BuildLocalSerializationGraph(b.h, 0, rag, /*home=*/0);
  EXPECT_TRUE(lsg.HasVertex(10));
  EXPECT_TRUE(lsg.HasVertex(20));
  EXPECT_FALSE(lsg.HasEdge(10, 20));
  EXPECT_FALSE(lsg.HasEdge(20, 10));
  // ...while the GSG does have the wr edge.
  TxnGraph gsg = BuildGlobalSerializationGraph(b.h);
  EXPECT_TRUE(gsg.HasEdge(10, 20));
}

TEST(GlobalGraphTest, RepackagedLineageStaysTotallyOrdered) {
  // §4.4.3 repackaging gives the surviving writes a NEW transaction id
  // and a fresh sequence number; the version chain must remain totally
  // ordered by sequence.
  HistoryBuilder b;
  b.Txn(1, 0, 0);  // original epoch-0 write, seq 1
  b.Txn(2, 0, 2);  // new-epoch write, seq 2 (new home)
  b.Txn(3, 0, 2);  // repackaged missing txn, seq 3
  b.Commit(1, 1);
  b.Commit(2, 2);
  b.Commit(3, 3);
  b.Write(1, 0, 1, {{0, 10}});
  b.Write(2, 0, 2, {{0, 20}});
  b.Write(3, 0, 3, {{1, 30}});
  auto versions = b.h.VersionsOf(0);
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].first, 1);
  EXPECT_EQ(versions[1].first, 2);
  TxnGraph g = BuildGlobalSerializationGraph(b.h);
  EXPECT_TRUE(g.HasEdge(1, 2));  // ww on object 0
  EXPECT_TRUE(g.Acyclic());
}

}  // namespace
}  // namespace fragdb

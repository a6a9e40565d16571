#include "verify/history.h"

#include <gtest/gtest.h>

#include <utility>

#include "verify/checkers.h"

namespace fragdb {
namespace {

QuasiTxn MakeQuasi(TxnId txn, FragmentId f, SeqNum seq,
                   std::vector<WriteOp> writes) {
  QuasiTxn q;
  q.origin_txn = txn;
  q.fragment = f;
  q.seq = seq;
  q.origin_node = 0;
  q.writes = std::move(writes);
  return q;
}

TEST(HistoryTest, RegisterAndCommit) {
  History h;
  TxnRecord rec;
  rec.id = 1;
  rec.agent = 0;
  rec.type_fragment = 0;
  rec.home = 0;
  h.RegisterTxn(rec);
  EXPECT_FALSE(h.FindTxn(1)->committed);
  h.MarkCommitted(1, 5);
  EXPECT_TRUE(h.FindTxn(1)->committed);
  EXPECT_EQ(h.FindTxn(1)->frag_seq, 5);
  EXPECT_EQ(h.FindTxn(99), nullptr);
}

TEST(HistoryTest, InstallOrderPerNode) {
  History h;
  h.RecordInstall(0, MakeQuasi(1, 0, 1, {{0, 1}}), 10);
  h.RecordInstall(1, MakeQuasi(1, 0, 1, {{0, 1}}), 20);
  h.RecordInstall(0, MakeQuasi(2, 0, 2, {{0, 2}}), 30);
  ASSERT_EQ(h.installs().size(), 3u);
  EXPECT_EQ(h.installs()[0].node_order, 0);
  EXPECT_EQ(h.installs()[1].node_order, 0);  // separate counter per node
  EXPECT_EQ(h.installs()[2].node_order, 1);
}

TEST(HistoryTest, UpdatersOfFiltersByFragmentAndCommit) {
  History h;
  for (TxnId id = 1; id <= 3; ++id) {
    TxnRecord rec;
    rec.id = id;
    rec.type_fragment = (id == 3) ? 1 : 0;
    h.RegisterTxn(rec);
  }
  h.MarkCommitted(1, 1);
  h.MarkCommitted(3, 1);
  // txn 2 uncommitted, txn 3 wrong fragment
  EXPECT_EQ(h.UpdatersOf(0), (std::vector<TxnId>{1}));
  EXPECT_EQ(h.UpdatersOf(1), (std::vector<TxnId>{3}));
}

TEST(HistoryTest, UpdatersExcludeReadOnly) {
  History h;
  TxnRecord rec;
  rec.id = 1;
  rec.type_fragment = 0;
  rec.read_only = true;
  h.RegisterTxn(rec);
  h.MarkCommitted(1, 0);
  EXPECT_TRUE(h.UpdatersOf(0).empty());
}

TEST(HistoryTest, WritesOfReturnsFirstInstallWriteSet) {
  History h;
  h.RecordInstall(0, MakeQuasi(1, 0, 1, {{0, 5}, {1, 6}}), 10);
  h.RecordInstall(2, MakeQuasi(1, 0, 1, {{0, 5}, {1, 6}}), 20);
  auto writes = h.WritesOf(1);
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_EQ(writes[0].object, 0);
  EXPECT_TRUE(h.WritesOf(42).empty());
}

TEST(HistoryTest, VersionsOfOrdersBySeqAndDedups) {
  History h;
  // Install the same versions at two nodes; chain must appear once.
  for (NodeId n = 0; n < 2; ++n) {
    h.RecordInstall(n, MakeQuasi(10, 0, 2, {{7, 20}}), 10);
    h.RecordInstall(n, MakeQuasi(9, 0, 1, {{7, 10}}), 5);
  }
  auto versions = h.VersionsOf(7);
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].first, 9);
  EXPECT_EQ(versions[0].second, 1);
  EXPECT_EQ(versions[1].first, 10);
  EXPECT_EQ(versions[1].second, 2);
}

TEST(HistoryTest, ReadsAccumulate) {
  History h;
  ReadRecord r;
  r.reader = 1;
  r.object = 3;
  r.version_writer = kInvalidTxn;
  r.version_seq = 0;
  h.RecordRead(r);
  EXPECT_EQ(h.reads().size(), 1u);
}

TEST(HistoryTest, LookupAfterMutationSeesTheMutation) {
  History h;
  TxnRecord w;
  w.id = 1;
  w.type_fragment = 0;
  h.RegisterTxn(w);
  h.MarkCommitted(1, 1);
  h.RecordInstall(0, MakeQuasi(1, 0, 1, {{10, 5}, {11, 6}}), 100);
  TxnRecord r;
  r.id = 2;
  r.read_only = true;
  h.RegisterTxn(r);
  h.MarkCommitted(2, 0);
  h.RecordRead({2, 1, 10, 1, 1, 200});
  EXPECT_TRUE(CheckProperty2(h, 0).ok);
  EXPECT_EQ(h.ReadsOn(0).size(), 1u);
  // T2 now misses T1's other write: a partial effect the next lookup
  // must see.
  h.RecordRead({2, 1, 11, kInvalidTxn, 0, 200});
  EXPECT_EQ(h.ReadsOn(0).size(), 2u);
  EXPECT_FALSE(CheckProperty2(h, 0).ok);
}

TEST(HistoryTest, CopiesAndMovesAnswerFromTheirOwnRecords) {
  History h;
  h.RecordInstall(0, MakeQuasi(1, 0, 1, {{10, 5}}), 100);
  h.RecordRead({2, 1, 10, 1, 1, 200});
  ASSERT_EQ(h.ReadsOn(0).size(), 1u);
  History copy = h;
  ASSERT_EQ(copy.ReadsOn(0).size(), 1u);
  EXPECT_EQ(copy.ReadsOn(0)[0], &copy.reads()[0]);
  EXPECT_EQ(&copy.WritesOf(1), &copy.installs()[0].writes);
  History moved = std::move(copy);
  ASSERT_EQ(moved.ReadsOn(0).size(), 1u);
  EXPECT_EQ(moved.ReadsOn(0)[0], &moved.reads()[0]);
  copy = h;
  copy.RecordRead({3, 1, 10, kInvalidTxn, 0, 300});
  EXPECT_EQ(copy.ReadsOn(0).size(), 2u);
  EXPECT_EQ(h.ReadsOn(0).size(), 1u);
}

}  // namespace
}  // namespace fragdb

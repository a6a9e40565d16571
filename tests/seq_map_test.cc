#include "core/seq_map.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace fragdb {
namespace {

/// A record at `seq` whose one write carries `v`, so tests can tell two
/// records at one seq apart.
QuasiRef Q(SeqNum seq, Value v) {
  auto q = std::make_shared<QuasiTxn>();
  q->seq = seq;
  q->writes = {{0, v}};
  return q;
}

Value ValueOf(const QuasiTxn* q) { return q->writes[0].value; }

std::vector<SeqNum> Keys(const QuasiSeqMap& m) {
  std::vector<SeqNum> keys;
  for (const QuasiRef& q : m) keys.push_back(q->seq);
  return keys;
}

QuasiSeqMap OneToFive() {
  QuasiSeqMap m;
  for (SeqNum s = 1; s <= 5; ++s) m.Put(Q(s, s * 10));
  return m;
}

TEST(SeqMapTest, EmptyMapFindsNothing) {
  QuasiSeqMap m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.Contains(1));
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_FALSE(m.Erase(1));
  EXPECT_EQ(m.Take(1), nullptr);
  EXPECT_EQ(m.UpperBound(0), m.end());
}

TEST(SeqMapTest, LookupPastTheBackMisses) {
  QuasiSeqMap m = OneToFive();
  EXPECT_FALSE(m.Contains(6));
  EXPECT_EQ(m.Find(6), nullptr);
  EXPECT_EQ(m.Find(1000), nullptr);
  EXPECT_EQ(m.Take(6), nullptr);
  EXPECT_EQ(m.size(), 5u);
}

TEST(SeqMapTest, HitsAndMissesInTheMiddle) {
  QuasiSeqMap m;
  for (SeqNum s : {2, 4, 6, 8}) m.Put(Q(s, s * 10));
  ASSERT_NE(m.Find(2), nullptr);
  EXPECT_EQ(ValueOf(m.Find(2)), 20);
  ASSERT_NE(m.Find(6), nullptr);
  EXPECT_EQ(ValueOf(m.Find(6)), 60);
  EXPECT_TRUE(m.Contains(8));
  EXPECT_FALSE(m.Contains(1));  // before the front
  EXPECT_FALSE(m.Contains(5));  // a hole in the middle
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_EQ((*m.UpperBound(4))->seq, 6);
}

TEST(SeqMapTest, PutOverwritesAndInserts) {
  QuasiSeqMap m = OneToFive();
  m.Put(Q(3, 333));  // overwrite in place
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(ValueOf(m.Find(3)), 333);

  QuasiSeqMap gaps;
  gaps.Put(Q(10, 1));
  gaps.Put(Q(30, 3));
  gaps.Put(Q(20, 2));  // insert before the back
  gaps.Put(Q(5, 0));
  EXPECT_EQ(Keys(gaps), (std::vector<SeqNum>{5, 10, 20, 30}));
  EXPECT_EQ(ValueOf(gaps.Find(20)), 2);
}

TEST(SeqMapTest, TakeMovesTheEntryOut) {
  QuasiSeqMap m = OneToFive();
  const QuasiTxn* held = m.Find(3);
  QuasiRef out = m.Take(3);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out.get(), held);  // the same record, not a copy
  EXPECT_EQ(ValueOf(out.get()), 30);
  EXPECT_FALSE(m.Contains(3));
  EXPECT_EQ(Keys(m), (std::vector<SeqNum>{1, 2, 4, 5}));
  EXPECT_EQ(m.Take(3), nullptr);
}

TEST(SeqMapTest, EraseGreaterThanTruncatesTheTail) {
  QuasiSeqMap m = OneToFive();
  m.EraseGreaterThan(3);
  EXPECT_EQ(Keys(m), (std::vector<SeqNum>{1, 2, 3}));
  m.EraseGreaterThan(10);  // nothing past the back
  EXPECT_EQ(m.size(), 3u);
  m.EraseGreaterThan(0);
  EXPECT_TRUE(m.empty());
}

TEST(SeqMapTest, EraseLessEqualDropsThePrefix) {
  QuasiSeqMap m = OneToFive();
  m.EraseLessEqual(2);
  EXPECT_EQ(Keys(m), (std::vector<SeqNum>{3, 4, 5}));
  m.EraseLessEqual(0);  // nothing at or below
  EXPECT_EQ(m.size(), 3u);
  m.EraseLessEqual(5);
  EXPECT_TRUE(m.empty());
}

}  // namespace
}  // namespace fragdb

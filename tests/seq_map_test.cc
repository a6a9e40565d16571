#include "core/seq_map.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fragdb {
namespace {

std::vector<SeqNum> Keys(const SeqMap<std::string>& m) {
  std::vector<SeqNum> keys;
  for (const auto& [seq, value] : m) keys.push_back(seq);
  return keys;
}

SeqMap<std::string> OneToFive() {
  SeqMap<std::string> m;
  for (SeqNum s = 1; s <= 5; ++s) m.Put(s, "v" + std::to_string(s));
  return m;
}

TEST(SeqMapTest, EmptyMapFindsNothing) {
  SeqMap<std::string> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.Contains(1));
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_FALSE(m.Erase(1));
  std::string out = "untouched";
  EXPECT_FALSE(m.Take(1, &out));
  EXPECT_EQ(out, "untouched");
  EXPECT_EQ(m.UpperBound(0), m.end());
}

TEST(SeqMapTest, LookupPastTheBackMisses) {
  SeqMap<std::string> m = OneToFive();
  EXPECT_FALSE(m.Contains(6));
  EXPECT_EQ(m.Find(6), nullptr);
  EXPECT_EQ(m.Find(1000), nullptr);
  std::string out;
  EXPECT_FALSE(m.Take(6, &out));
  EXPECT_EQ(m.size(), 5u);
}

TEST(SeqMapTest, HitsAndMissesInTheMiddle) {
  SeqMap<std::string> m;
  for (SeqNum s : {2, 4, 6, 8}) m.Put(s, "v" + std::to_string(s));
  ASSERT_NE(m.Find(2), nullptr);
  EXPECT_EQ(*m.Find(2), "v2");
  ASSERT_NE(m.Find(6), nullptr);
  EXPECT_EQ(*m.Find(6), "v6");
  EXPECT_TRUE(m.Contains(8));
  EXPECT_FALSE(m.Contains(1));  // before the front
  EXPECT_FALSE(m.Contains(5));  // a hole in the middle
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_EQ(m.UpperBound(4)->seq, 6);
}

TEST(SeqMapTest, PutOverwritesAndInserts) {
  SeqMap<std::string> m = OneToFive();
  m.Put(3, "three");  // overwrite in place
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(*m.Find(3), "three");

  SeqMap<std::string> gaps;
  gaps.Put(10, "a");
  gaps.Put(30, "c");
  gaps.Put(20, "b");  // insert before the back
  gaps.Put(5, "front");
  EXPECT_EQ(Keys(gaps), (std::vector<SeqNum>{5, 10, 20, 30}));
  EXPECT_EQ(*gaps.Find(20), "b");
}

TEST(SeqMapTest, TakeMovesTheEntryOut) {
  SeqMap<std::string> m = OneToFive();
  std::string out;
  ASSERT_TRUE(m.Take(3, &out));
  EXPECT_EQ(out, "v3");
  EXPECT_FALSE(m.Contains(3));
  EXPECT_EQ(Keys(m), (std::vector<SeqNum>{1, 2, 4, 5}));
  EXPECT_FALSE(m.Take(3, &out));
}

TEST(SeqMapTest, EraseGreaterThanTruncatesTheTail) {
  SeqMap<std::string> m = OneToFive();
  m.EraseGreaterThan(3);
  EXPECT_EQ(Keys(m), (std::vector<SeqNum>{1, 2, 3}));
  m.EraseGreaterThan(10);  // nothing past the back
  EXPECT_EQ(m.size(), 3u);
  m.EraseGreaterThan(0);
  EXPECT_TRUE(m.empty());
}

TEST(SeqMapTest, EraseLessEqualDropsThePrefix) {
  SeqMap<std::string> m = OneToFive();
  m.EraseLessEqual(2);
  EXPECT_EQ(Keys(m), (std::vector<SeqNum>{3, 4, 5}));
  m.EraseLessEqual(0);  // nothing at or below
  EXPECT_EQ(m.size(), 3u);
  m.EraseLessEqual(5);
  EXPECT_TRUE(m.empty());
}

}  // namespace
}  // namespace fragdb

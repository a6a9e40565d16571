#include "obs/trace.h"

#include <gtest/gtest.h>

namespace fragdb {
namespace {

TraceEvent Make(SimTime at, const std::string& kind, NodeId node,
                FragmentId fragment, TxnId txn, SeqNum seq,
                const std::string& detail) {
  TraceEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.node = node;
  ev.fragment = fragment;
  ev.txn = txn;
  ev.seq = seq;
  ev.detail = detail;
  return ev;
}

TEST(TracerTest, TxnSpanFiltersByTxnInOrder) {
  Tracer tracer;
  tracer.Record(Make(10, "submit", 0, kInvalidFragment, 1, 0, "T1 at N0"));
  tracer.Record(Make(12, "submit", 1, kInvalidFragment, 2, 0, "T2 at N1"));
  tracer.Record(Make(20, "commit", 0, 0, 1, 5, "T1"));
  tracer.Record(Make(25, "install", 1, 0, 1, 5, "T1"));

  std::vector<TraceEvent> span = tracer.TxnSpan(1);
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0].kind, "submit");
  EXPECT_EQ(span[1].kind, "commit");
  EXPECT_EQ(span[2].kind, "install");
  EXPECT_TRUE(tracer.TxnSpan(99).empty());

  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TracerTest, JsonlRoundTripPreservesAllFields) {
  Tracer tracer;
  tracer.Record(Make(1000, "submit", 2, kInvalidFragment, 7, 0,
                     "label \"odd\" with \\ and\nnewline"));
  tracer.Record(Make(2000, "broadcast", 2, 3, 7, 11, "T7 seq=11"));
  tracer.Record(Make(-1, "partition", kInvalidNode, kInvalidFragment,
                     kInvalidTxn, 0, "{0}{1,2}"));

  std::string jsonl = tracer.ToJsonl();
  Result<std::vector<TraceEvent>> parsed = Tracer::ParseJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(parsed->size(), events.size());
  for (size_t i = 0; i < parsed->size(); ++i) {
    const TraceEvent& in = events[i];
    const TraceEvent& out = (*parsed)[i];
    EXPECT_EQ(out.at, in.at) << i;
    EXPECT_EQ(out.kind, in.kind) << i;
    EXPECT_EQ(out.node, in.node) << i;
    EXPECT_EQ(out.fragment, in.fragment) << i;
    EXPECT_EQ(out.txn, in.txn) << i;
    EXPECT_EQ(out.seq, in.seq) << i;
    EXPECT_EQ(out.detail, in.detail) << i;
  }
}

TEST(TracerTest, ChromeJsonWrapsTheSameEvents) {
  Tracer tracer;
  tracer.Record(Make(5, "commit", 0, 1, 3, 2, "T3"));
  std::string chrome = tracer.ToChromeJson();
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(chrome.substr(chrome.size() - 2), "]}");
  EXPECT_NE(chrome.find("\"name\":\"commit\""), std::string::npos);
  EXPECT_NE(chrome.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(chrome.find("\"tid\":3"), std::string::npos);
}

TEST(TracerTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(Tracer::ParseJsonl("not a json line\n").ok());
  EXPECT_FALSE(Tracer::ParseJsonl("{\"ph\":\"i\",\"ts\":3}\n").ok());
}

TEST(TracerTest, ParseSkipsBlankLines) {
  Result<std::vector<TraceEvent>> parsed = Tracer::ParseJsonl("\n\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

}  // namespace
}  // namespace fragdb

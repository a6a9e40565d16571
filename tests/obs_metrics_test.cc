#include "obs/metrics.h"

#include <gtest/gtest.h>

namespace fragdb {
namespace {

TEST(HistogramTest, ObserveAndStats) {
  Histogram h(std::vector<int64_t>{10, 20, 40});
  h.Observe(5);
  h.Observe(15);
  h.Observe(30);
  h.Observe(100);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 150);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.Mean(), 37.5);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  Histogram h(std::vector<int64_t>{10, 20, 40});
  for (int i = 0; i < 98; ++i) h.Observe(7);
  h.Observe(15);
  h.Observe(1000);
  // p50 is the 50th of 98 observations in (min=7, 10]: interpolated, not
  // snapped to the bucket's upper bound.
  EXPECT_EQ(h.Percentile(0.5), 8);
  // p99 is the last observation of bucket (10, 20]: exactly the bound.
  EXPECT_EQ(h.Percentile(0.99), 20);
  // Overflow bucket interpolates (bounds.back(), max]; its last
  // observation reports the recorded max.
  EXPECT_EQ(h.Percentile(1.0), 1000);
  EXPECT_EQ(Histogram(std::vector<int64_t>{10}).Percentile(0.5), 0);
}

TEST(HistogramTest, PercentileExactAtBucketBoundaries) {
  // Every value sits exactly on a bucket's closed upper bound: any
  // percentile must report that boundary, never an interpolated value
  // below it.
  Histogram h(std::vector<int64_t>{10, 20});
  for (int i = 0; i < 5; ++i) h.Observe(10);
  EXPECT_EQ(h.Percentile(0.01), 10);
  EXPECT_EQ(h.Percentile(0.5), 10);
  EXPECT_EQ(h.Percentile(1.0), 10);

  // Mixed: boundary value plus one below it in the same bucket.
  Histogram m(std::vector<int64_t>{10});
  m.Observe(5);
  m.Observe(10);
  EXPECT_EQ(m.Percentile(0.5), 7);   // midpoint of (5, 10], rank 1 of 2
  EXPECT_EQ(m.Percentile(1.0), 10);  // last observation = the boundary
}

TEST(HistogramTest, PercentileSingleObservationIsExact) {
  Histogram h(std::vector<int64_t>{10, 20});
  h.Observe(17);
  EXPECT_EQ(h.Percentile(0.0), 17);
  EXPECT_EQ(h.Percentile(0.5), 17);
  EXPECT_EQ(h.Percentile(1.0), 17);
}

TEST(HistogramTest, PercentileInterpolatesUniformFill) {
  Histogram h(std::vector<int64_t>{100});
  for (int v = 1; v <= 100; ++v) h.Observe(v);
  EXPECT_EQ(h.Percentile(0.5), 50);
  EXPECT_EQ(h.Percentile(1.0), 100);
}

TEST(HistogramTest, MergeAddsBucketwise) {
  Histogram a(std::vector<int64_t>{10, 20});
  Histogram b(std::vector<int64_t>{10, 20});
  a.Observe(5);
  b.Observe(15);
  b.Observe(99);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 99);
  EXPECT_EQ(a.buckets()[0], 1u);
  EXPECT_EQ(a.buckets()[1], 1u);
  EXPECT_EQ(a.buckets()[2], 1u);
}

TEST(MetricKeyTest, ToStringFormats) {
  MetricKey plain{"txns_total"};
  EXPECT_EQ(plain.ToString(), "txns_total");
  MetricKey scoped{"lag_us", 1, 2, "quasi"};
  EXPECT_EQ(scoped.ToString(), "lag_us{node=1,fragment=2,label=quasi}");
}

TEST(MetricsRegistryTest, HandlesAreStableAndSnapshotFreezes) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter({"events_total"});
  EXPECT_EQ(c, reg.GetCounter({"events_total"}));
  c->Add(3);
  reg.GetGauge({"depth", 0})->Set(-4);
  reg.GetHistogram({"latency_us", 0})->Observe(25);
  EXPECT_EQ(reg.series_count(), 3u);

  MetricsSnapshot snap = reg.Snapshot();
  c->Add(10);  // must not affect the frozen copy
  const MetricEntry* e = snap.Find({"events_total"});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->counter, 3u);
  const MetricEntry* g = snap.Find({"depth", 0});
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gauge, -4);
  EXPECT_EQ(snap.HistogramCount("latency_us"), 1u);
  EXPECT_EQ(snap.HistogramMax("latency_us"), 25);
}

MetricsSnapshot SampleSnapshot() {
  MetricsRegistry reg;
  reg.GetCounter({"txn_committed_total", 0})->Add(7);
  reg.GetCounter({"messages_sent_total", kInvalidNode, kInvalidFragment,
                  "quasi"})
      ->Add(42);
  reg.GetGauge({"applied_seq", 1, 2})->Set(13);
  Histogram* h = reg.GetHistogram({"commit_latency_us", 0});
  h->Observe(120);
  h->Observe(4500);
  return reg.Snapshot();
}

TEST(MetricsSnapshotTest, MergeAddsAndInserts) {
  MetricsSnapshot a = SampleSnapshot();
  MetricsRegistry reg;
  reg.GetCounter({"txn_committed_total", 0})->Add(3);
  reg.GetCounter({"txn_committed_total", 1})->Add(5);  // new series
  reg.GetHistogram({"commit_latency_us", 0})->Observe(80);
  MetricsSnapshot b = reg.Snapshot();

  a.Merge(b);
  const MetricEntry* c0 = a.Find({"txn_committed_total", 0});
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->counter, 10u);
  const MetricEntry* c1 = a.Find({"txn_committed_total", 1});
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->counter, 5u);
  EXPECT_EQ(a.HistogramCount("commit_latency_us"), 3u);
  EXPECT_EQ(a.CounterTotal("txn_committed_total"), 15u);
}

}  // namespace
}  // namespace fragdb

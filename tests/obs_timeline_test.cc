#include "obs/timeline.h"

#include <gtest/gtest.h>

#include "obs/availability.h"
#include "obs/trace.h"
#include "scenario/compile.h"
#include "verify/checkers.h"

namespace fragdb {
namespace {

// --------------------------------------------------------------------------
// TimeSeries
// --------------------------------------------------------------------------

TEST(TimeSeriesTest, BucketsByFixedWidth) {
  TimeSeries s(Millis(10));
  s.Observe(Millis(12), 5);
  s.Observe(Millis(13), 7);
  s.Observe(Millis(31), 1);
  ASSERT_EQ(s.bucket_count(), 3u);
  EXPECT_EQ(s.origin(), Millis(10));  // anchored to a width boundary
  EXPECT_EQ(s.buckets()[0].count, 2u);
  EXPECT_EQ(s.buckets()[0].sum, 12);
  EXPECT_EQ(s.buckets()[0].min, 5);
  EXPECT_EQ(s.buckets()[0].max, 7);
  EXPECT_EQ(s.buckets()[1].count, 0u);  // empty middle bucket retained
  EXPECT_EQ(s.buckets()[2].count, 1u);
  EXPECT_EQ(s.BucketStart(2), Millis(30));
  EXPECT_EQ(s.total_count(), 3u);
}

TEST(TimeSeriesTest, MarkCountsEvents) {
  TimeSeries s(Millis(1));
  s.Mark(100);
  s.Mark(150);
  ASSERT_EQ(s.bucket_count(), 1u);
  EXPECT_EQ(s.buckets()[0].count, 2u);
  EXPECT_EQ(s.buckets()[0].sum, 2);
}

TEST(TimeSeriesTest, EarlierThanOriginClampsToFirstBucket) {
  TimeSeries s(Millis(10));
  s.Observe(Millis(55), 1);  // origin anchors at 50ms
  s.Observe(Millis(42), 2);  // retroactive, before the origin
  ASSERT_EQ(s.bucket_count(), 1u);
  EXPECT_EQ(s.buckets()[0].count, 2u);
}

TEST(TimeSeriesTest, CoalescesWhenBucketBudgetExceeded) {
  TimeSeries s(Millis(1), /*max_buckets=*/4);
  for (int i = 0; i < 16; ++i) s.Observe(Millis(i), 1);
  // 16 1ms-buckets under a 4-bucket budget: width doubles (1 -> 2 -> 4)
  // just until the latest observation fits inside the budget again.
  EXPECT_EQ(s.bucket_width(), Millis(4));
  ASSERT_EQ(s.bucket_count(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(s.buckets()[i].count, 4u) << i;
  EXPECT_EQ(s.total_count(), 16u);
}

TEST(TimeSeriesTest, JsonAndFingerprintOmitEmptyBuckets) {
  TimeSeries s(Millis(10));
  s.Observe(Millis(5), 3);
  s.Observe(Millis(25), 4);
  std::string json = s.ToJson();
  EXPECT_NE(json.find("\"bucket_width_us\":10000"), std::string::npos);
  EXPECT_NE(json.find("{\"t\":0,\"count\":1,\"sum\":3"), std::string::npos);
  EXPECT_NE(json.find("{\"t\":20000,\"count\":1,\"sum\":4"),
            std::string::npos);
  EXPECT_EQ(s.Fingerprint(), "w=10000;0:1/3;20000:1/4");
}

TEST(ClusterTimelinesTest, PerNodeSeriesAndFingerprint) {
  ClusterTimelines tl(2, Millis(10));
  tl.Committed(0).Mark(Millis(5));
  tl.ReplicationLag(1).Observe(Millis(7), 1234);
  EXPECT_EQ(tl.nodes(), 2);
  std::string fp = tl.Fingerprint();
  EXPECT_NE(fp.find("n0{c:w=10000;0:1/1"), std::string::npos);
  EXPECT_NE(fp.find("|l:w=10000;0:1/1234"), std::string::npos);
  std::string json = tl.ToJson();
  EXPECT_NE(json.find("\"committed\":["), std::string::npos);
  EXPECT_NE(json.find("\"replication_lag_us\":["), std::string::npos);
}

// --------------------------------------------------------------------------
// AvailabilityTracker
// --------------------------------------------------------------------------

// Two nodes, two fragments: F0 homed at N0, F1 homed at N1.
AvailabilityTracker MakeTracker(SimTime staleness_threshold = Millis(15)) {
  return AvailabilityTracker(2, {0, 1}, staleness_threshold);
}

TEST(AvailabilityTrackerTest, NodeDownMakesItsCellsUnavailable) {
  AvailabilityTracker t = MakeTracker();
  t.SetNodeDown(0, Millis(100), true);
  EXPECT_EQ(t.CurrentState(0, 0, AccessKind::kRead),
            ServeState::kUnavailable);
  EXPECT_EQ(t.CurrentState(0, 1, AccessKind::kRead),
            ServeState::kUnavailable);
  // F0's home is down: writes to F0 are unavailable everywhere, but N1's
  // reads (served locally) keep working.
  EXPECT_EQ(t.CurrentState(1, 0, AccessKind::kWrite),
            ServeState::kUnavailable);
  EXPECT_EQ(t.CurrentState(1, 0, AccessKind::kRead), ServeState::kServing);
  EXPECT_EQ(t.CurrentState(1, 1, AccessKind::kWrite), ServeState::kServing);

  t.SetNodeDown(0, Millis(150), false);
  t.Finalize(Millis(200));
  // N0: 2 fragments x read + 2 x write, plus N1's F0 write = 5 intervals.
  EXPECT_EQ(t.intervals().size(), 5u);
  for (const AvailabilityInterval& iv : t.intervals()) {
    EXPECT_EQ(iv.start, Millis(100));
    EXPECT_EQ(iv.end, Millis(150));
    EXPECT_EQ(iv.state, ServeState::kUnavailable);
  }
  // 50ms down out of 200ms x 4 cells: reads lose 2 cells, writes 3.
  EXPECT_DOUBLE_EQ(t.AvailableFraction(AccessKind::kRead, Millis(200)),
                   1.0 - 100.0 / 800.0);
  EXPECT_DOUBLE_EQ(t.AvailableFraction(AccessKind::kWrite, Millis(200)),
                   1.0 - 150.0 / 800.0);
  EXPECT_DOUBLE_EQ(
      t.NodeAvailableFraction(1, AccessKind::kWrite, Millis(200)),
      1.0 - 50.0 / 400.0);
}

TEST(AvailabilityTrackerTest, CatchingUpIsStaleReadsUnavailableWrites) {
  AvailabilityTracker t = MakeTracker();
  t.SetCatchingUp(0, Millis(10), true);
  EXPECT_EQ(t.CurrentState(0, 0, AccessKind::kRead),
            ServeState::kDegradedStale);
  EXPECT_EQ(t.CurrentState(0, 0, AccessKind::kWrite),
            ServeState::kUnavailable);
  // The home of F0 is catching up: F0 writes unavailable at N1 too.
  EXPECT_EQ(t.CurrentState(1, 0, AccessKind::kWrite),
            ServeState::kUnavailable);
  t.SetCatchingUp(0, Millis(20), false);
  t.Finalize(Millis(100));
  EXPECT_EQ(t.CurrentState(0, 0, AccessKind::kRead), ServeState::kServing);
}

TEST(AvailabilityTrackerTest, HomeUnreachableDegradesReadsCutsWrites) {
  AvailabilityTracker t = MakeTracker();
  t.SetHomeReachable(0, 1, Millis(50), false);  // N0 cut off from F1's home
  EXPECT_EQ(t.CurrentState(0, 1, AccessKind::kRead),
            ServeState::kDegradedStale);
  EXPECT_EQ(t.CurrentState(0, 1, AccessKind::kWrite),
            ServeState::kUnavailable);
  EXPECT_EQ(t.CurrentState(0, 0, AccessKind::kRead), ServeState::kServing);
  t.SetHomeReachable(0, 1, Millis(80), true);
  t.Finalize(Millis(100));
  ASSERT_EQ(t.intervals().size(), 2u);
}

TEST(AvailabilityTrackerTest, GapDegradesOnlyThatCellsReads) {
  AvailabilityTracker t = MakeTracker();
  t.SetGap(1, 0, Millis(30), true);
  EXPECT_EQ(t.CurrentState(1, 0, AccessKind::kRead),
            ServeState::kDegradedStale);
  EXPECT_EQ(t.CurrentState(1, 0, AccessKind::kWrite), ServeState::kServing);
  EXPECT_EQ(t.CurrentState(1, 1, AccessKind::kRead), ServeState::kServing);
  t.SetGap(1, 0, Millis(60), false);
  t.Finalize(Millis(100));
  ASSERT_EQ(t.intervals().size(), 1u);
  EXPECT_EQ(t.intervals()[0].state, ServeState::kDegradedStale);
  EXPECT_EQ(t.intervals()[0].duration(), Millis(30));
}

TEST(AvailabilityTrackerTest, InstallLagYieldsRetroactiveStaleInterval) {
  AvailabilityTracker t = MakeTracker(Millis(15));
  // A 40ms-late install at t=100ms: stale from 100-40+15=75ms to 100ms.
  t.OnInstallLag(1, 0, Millis(100), Millis(40));
  // Below the threshold: only max_staleness moves.
  t.OnInstallLag(1, 0, Millis(200), Millis(10));
  t.Finalize(Millis(300));
  EXPECT_EQ(t.max_staleness(), Millis(40));
  ASSERT_EQ(t.intervals().size(), 1u);
  EXPECT_EQ(t.intervals()[0].start, Millis(75));
  EXPECT_EQ(t.intervals()[0].end, Millis(100));
  EXPECT_EQ(t.intervals()[0].state, ServeState::kDegradedStale);
  EXPECT_EQ(t.intervals()[0].access, AccessKind::kRead);
}

TEST(AvailabilityTrackerTest, StaleIntervalsSubtractRecordedDowntime) {
  AvailabilityTracker t = MakeTracker(0);
  // N0 down 100..150ms (recorded as unavailable), then an install at
  // 180ms measuring 100ms of lag: stale window 80..180ms overlaps both
  // sides of the downtime and must be split around it.
  t.SetNodeDown(0, Millis(100), true);
  t.SetNodeDown(0, Millis(150), false);
  t.OnInstallLag(0, 0, Millis(180), Millis(100));
  t.Finalize(Millis(200));
  int stale = 0;
  for (const AvailabilityInterval& iv : t.intervals()) {
    if (iv.state != ServeState::kDegradedStale) continue;
    ++stale;
    EXPECT_TRUE((iv.start == Millis(80) && iv.end == Millis(100)) ||
                (iv.start == Millis(150) && iv.end == Millis(180)))
        << iv.start << ".." << iv.end;
  }
  EXPECT_EQ(stale, 2);
  // The whole list must satisfy the structural checker.
  EXPECT_TRUE(
      CheckAvailabilityIntervals(t.intervals(), Millis(200)).ok);
}

// --------------------------------------------------------------------------
// Attribution
// --------------------------------------------------------------------------

TEST(AttributionTest, BlamesTheOverlappingFaultAndMeasuresLatencies) {
  AvailabilityTracker t = MakeTracker();
  t.SetNodeDown(0, Millis(105), true);   // detected 5ms after the fault
  t.SetNodeDown(0, Millis(220), false);  // repaired 20ms after its end
  t.Finalize(Millis(300));

  std::vector<FaultWindow> faults = {
      {"crash n0", Millis(100), Millis(200), {0}},
      {"unrelated n1", Millis(100), Millis(200), {1}},
  };
  AvailabilityReport r = BuildAvailabilityReport(t, faults, Millis(300));
  EXPECT_EQ(r.unattributed, 0);
  ASSERT_FALSE(r.attributed.empty());
  for (const AttributedInterval& ai : r.attributed) {
    if (ai.interval.node == 0) {
      EXPECT_EQ(ai.fault_label, "crash n0");
      EXPECT_EQ(ai.detect_latency, Millis(5));
      EXPECT_EQ(ai.repair_latency, Millis(20));
    }
  }
  // N1's F0-write interval is also the home-crash fault's doing.
  ASSERT_EQ(r.per_fault.size(), 1u);
  EXPECT_EQ(r.per_fault[0].label, "crash n0");
  EXPECT_EQ(r.per_fault[0].intervals, 5);
  EXPECT_EQ(r.per_fault[0].max_detect_latency, Millis(5));
  EXPECT_EQ(r.per_fault[0].max_repair_latency, Millis(20));
  EXPECT_LT(r.read_availability, 1.0);
  EXPECT_LT(r.write_availability, 1.0);
}

TEST(AttributionTest, FallsBackToLatestPrecedingFault) {
  AvailabilityTracker t = MakeTracker();
  // Interval entirely after the fault window closed (slow detection).
  t.SetGap(0, 0, Millis(250), true);
  t.SetGap(0, 0, Millis(280), false);
  t.Finalize(Millis(300));
  std::vector<FaultWindow> faults = {
      {"early", Millis(10), Millis(20), {}},
      {"loss window", Millis(100), Millis(200), {}},
  };
  AvailabilityReport r = BuildAvailabilityReport(t, faults, Millis(300));
  ASSERT_EQ(r.attributed.size(), 1u);
  EXPECT_EQ(r.attributed[0].fault_label, "loss window");
  EXPECT_EQ(r.unattributed, 0);
}

TEST(AttributionTest, NoCandidateFaultCountsUnattributed) {
  AvailabilityTracker t = MakeTracker();
  t.SetGap(0, 0, Millis(50), true);
  t.SetGap(0, 0, Millis(80), false);
  t.Finalize(Millis(100));
  AvailabilityReport r = BuildAvailabilityReport(t, {}, Millis(100));
  EXPECT_EQ(r.unattributed, 1);
  ASSERT_EQ(r.attributed.size(), 1u);
  EXPECT_EQ(r.attributed[0].fault, -1);
  EXPECT_TRUE(r.per_fault.empty());
}

TEST(AttributionTest, ReportJsonCarriesSummariesAndIntervals) {
  AvailabilityTracker t = MakeTracker();
  t.SetNodeDown(1, Millis(100), true);
  t.SetNodeDown(1, Millis(150), false);
  t.Finalize(Millis(200));
  std::vector<FaultWindow> faults = {
      {"crash at=100ms node=1", Millis(100), Millis(150), {1}}};
  AvailabilityReport r = BuildAvailabilityReport(t, faults, Millis(200));
  std::string summary = r.SummaryJson();
  EXPECT_NE(summary.find("\"read_availability\":"), std::string::npos);
  EXPECT_NE(summary.find("\"attributed_faults\":[{\"fault\":\"crash"),
            std::string::npos);
  std::string json = r.ToJson();
  EXPECT_NE(json.find("\"intervals\":[{\"node\":"), std::string::npos);
  EXPECT_NE(json.find("\"fault\":\"crash at=100ms node=1\""),
            std::string::npos);
  EXPECT_FALSE(r.Fingerprint().empty());
}

// --------------------------------------------------------------------------
// CheckAvailabilityIntervals
// --------------------------------------------------------------------------

AvailabilityInterval Interval(NodeId n, FragmentId f, AccessKind a,
                              SimTime start, SimTime end,
                              ServeState state = ServeState::kUnavailable) {
  return {n, f, a, state, start, end};
}

TEST(CheckAvailabilityIntervalsTest, AcceptsSortedDisjointIntervals) {
  std::vector<AvailabilityInterval> ivs = {
      Interval(0, 0, AccessKind::kRead, 10, 20),
      Interval(0, 0, AccessKind::kRead, 20, 30),
      Interval(0, 0, AccessKind::kWrite, 5, 15),
      Interval(1, 0, AccessKind::kRead, 0, 100),
  };
  EXPECT_TRUE(CheckAvailabilityIntervals(ivs, 100).ok);
  EXPECT_TRUE(CheckAvailabilityIntervals({}, 100).ok);
}

TEST(CheckAvailabilityIntervalsTest, RejectsStructuralDefects) {
  // Empty interval.
  EXPECT_FALSE(CheckAvailabilityIntervals(
                   {Interval(0, 0, AccessKind::kRead, 10, 10)}, 100)
                   .ok);
  // Past the horizon.
  EXPECT_FALSE(CheckAvailabilityIntervals(
                   {Interval(0, 0, AccessKind::kRead, 10, 200)}, 100)
                   .ok);
  // Overlap within one cell.
  EXPECT_FALSE(CheckAvailabilityIntervals(
                   {Interval(0, 0, AccessKind::kRead, 10, 30),
                    Interval(0, 0, AccessKind::kRead, 20, 40)},
                   100)
                   .ok);
  // Out of cell order.
  EXPECT_FALSE(CheckAvailabilityIntervals(
                   {Interval(1, 0, AccessKind::kRead, 10, 20),
                    Interval(0, 0, AccessKind::kRead, 10, 20)},
                   100)
                   .ok);
  // Serving state must never be recorded as an interval.
  EXPECT_FALSE(CheckAvailabilityIntervals({Interval(0, 0, AccessKind::kRead,
                                                    10, 20,
                                                    ServeState::kServing)},
                                          100)
                   .ok);
}

// --------------------------------------------------------------------------
// BuildFaultWindows
// --------------------------------------------------------------------------

TEST(BuildFaultWindowsTest, ExpandsCompositeOpsLikeTheCompiler) {
  Scenario s;
  s.Flap(Millis(100), Millis(300), Millis(150), Millis(50), {{0, 1}, {2}});
  s.Crash(Millis(500), Millis(100), 2, /*amnesia=*/true);
  s.Rolling(Millis(700), Millis(60), Millis(40), /*amnesia=*/false);
  s.Zipf(0.9);  // load shaping: no window
  s.Heal(Millis(999));

  std::vector<FaultWindow> w = BuildFaultWindows(s, /*node_count=*/3);
  // Flap 100..400ms every 150ms: cycles at 100 and 250. Rolling: 3 nodes.
  ASSERT_EQ(w.size(), 2u + 1u + 3u);
  EXPECT_EQ(w[0].at, Millis(100));
  EXPECT_EQ(w[0].end, Millis(150));
  EXPECT_TRUE(w[0].nodes.empty());  // partitions hit everyone
  EXPECT_NE(w[0].label.find("flap"), std::string::npos);
  EXPECT_NE(w[0].label.find("#0"), std::string::npos);
  EXPECT_NE(w[1].label.find("#1"), std::string::npos);
  EXPECT_EQ(w[1].at, Millis(250));

  EXPECT_EQ(w[2].nodes, std::vector<NodeId>{2});
  EXPECT_EQ(w[2].at, Millis(500));
  EXPECT_EQ(w[2].end, Millis(600));
  EXPECT_NE(w[2].label.find("crash"), std::string::npos);

  for (NodeId n = 0; n < 3; ++n) {
    const FaultWindow& r = w[3 + n];
    EXPECT_EQ(r.nodes, std::vector<NodeId>{n});
    EXPECT_EQ(r.at, Millis(700) + n * Millis(60));
    EXPECT_EQ(r.end, r.at + Millis(40));
  }
}

// --------------------------------------------------------------------------
// Flight recorder: a Tracer with bounded rings
// --------------------------------------------------------------------------

TraceEvent Ev(SimTime at, const std::string& kind, NodeId node, TxnId txn) {
  TraceEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.node = node;
  ev.txn = txn;
  ev.detail = kind + " detail";
  return ev;
}

TEST(FlightRecorderTest, KeepsOnlyTheLastCapacityEventsPerNode) {
  Tracer fr(2, /*capacity=*/3);
  for (int i = 0; i < 5; ++i) fr.Record(Ev(i, "install", 0, i));
  fr.Record(Ev(100, "commit", 1, 99));
  EXPECT_EQ(fr.total_recorded(), 6u);

  std::vector<TraceEvent> n0 = fr.NodeEvents(0);
  ASSERT_EQ(n0.size(), 3u);  // events 2, 3, 4 survive, oldest first
  EXPECT_EQ(n0[0].at, 2);
  EXPECT_EQ(n0[2].at, 4);
  ASSERT_EQ(fr.NodeEvents(1).size(), 1u);
}

TEST(FlightRecorderTest, ClusterWideEventsLandInTheirOwnRing) {
  Tracer fr(2, 4);
  fr.Record(Ev(10, "partition", kInvalidNode, kInvalidTxn));
  fr.Record(Ev(20, "heal", kInvalidNode, kInvalidTxn));
  ASSERT_EQ(fr.NodeEvents(kInvalidNode).size(), 2u);
  EXPECT_TRUE(fr.NodeEvents(0).empty());
}

TEST(FlightRecorderTest, DumpMergesRingsInRecordOrderAndParsesBack) {
  Tracer fr(2, 4);
  fr.Record(Ev(10, "submit", 0, 1));
  fr.Record(Ev(12, "partition", kInvalidNode, kInvalidTxn));
  fr.Record(Ev(15, "commit", 1, 1));
  fr.Record(Ev(20, "install", 0, 1));

  std::string dump = fr.ToJsonl();
  Result<std::vector<TraceEvent>> parsed = Tracer::ParseJsonl(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 4u);
  // Merged (time, ring, seq) order, not per-ring order.
  EXPECT_EQ((*parsed)[0].kind, "submit");
  EXPECT_EQ((*parsed)[1].kind, "partition");
  EXPECT_EQ((*parsed)[2].kind, "commit");
  EXPECT_EQ((*parsed)[3].kind, "install");
  EXPECT_EQ((*parsed)[3].node, 0);
  EXPECT_EQ((*parsed)[3].txn, 1);
  EXPECT_EQ((*parsed)[3].detail, "install detail");
}

}  // namespace
}  // namespace fragdb

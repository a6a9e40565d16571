// Differential test of the availability tracker's Finalize and of
// BuildAvailabilityReport against the straightforward sort-based
// versions they replaced: every interval shard concatenated and sorted
// globally, stale windows merged and subtracted over the sorted whole,
// and every fault tested against every interval.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "obs/availability.h"

namespace fragdb {
namespace {

bool IntervalOrder(const AvailabilityInterval& a,
                   const AvailabilityInterval& b) {
  return std::tie(a.node, a.fragment, a.access, a.start, a.end) <
         std::tie(b.node, b.fragment, b.access, b.start, b.end);
}

/// The tracker's state machines, with the sort-based Finalize.
class RefTracker {
 public:
  RefTracker(int nodes, std::vector<NodeId> home, SimTime threshold)
      : nodes_(nodes),
        fragments_(static_cast<int>(home.size())),
        home_(std::move(home)),
        threshold_(threshold),
        down_(nodes, 0),
        catching_up_(nodes, 0),
        gap_(static_cast<size_t>(nodes) * fragments_, 0),
        reachable_(static_cast<size_t>(nodes) * fragments_, 1),
        read_(static_cast<size_t>(nodes) * fragments_),
        write_(static_cast<size_t>(nodes) * fragments_) {}

  void SetNodeDown(NodeId n, SimTime t, bool v) {
    if (down_[n] == v) return;
    down_[n] = v;
    RecomputeNodeScope(n, t);
  }
  void SetCatchingUp(NodeId n, SimTime t, bool v) {
    if (catching_up_[n] == v) return;
    catching_up_[n] = v;
    RecomputeNodeScope(n, t);
  }
  void SetGap(NodeId n, FragmentId f, SimTime t, bool v) {
    if (gap_[Index(n, f)] == v) return;
    gap_[Index(n, f)] = v;
    Recompute(n, f, t);
  }
  void SetHomeReachable(NodeId n, FragmentId f, SimTime t, bool v) {
    if (reachable_[Index(n, f)] == v) return;
    reachable_[Index(n, f)] = v;
    Recompute(n, f, t);
  }
  void OnInstallLag(NodeId n, FragmentId f, SimTime t, SimTime lag) {
    max_staleness_ = std::max(max_staleness_, lag);
    if (lag <= threshold_) return;
    SimTime start = std::max<SimTime>(0, t - lag + threshold_);
    if (start >= t) return;
    stale_.push_back(
        {n, f, AccessKind::kRead, ServeState::kDegradedStale, start, t});
  }

  void Finalize(SimTime end) {
    for (NodeId n = 0; n < nodes_; ++n) {
      for (FragmentId f = 0; f < fragments_; ++f) {
        Transition(read_[Index(n, f)], n, f, AccessKind::kRead,
                   ServeState::kServing, end);
        Transition(write_[Index(n, f)], n, f, AccessKind::kWrite,
                   ServeState::kServing, end);
      }
    }
    std::sort(stale_.begin(), stale_.end(), IntervalOrder);
    std::vector<AvailabilityInterval> merged;
    for (AvailabilityInterval cur : stale_) {
      if (cur.start >= end) continue;
      cur.end = std::min(cur.end, end);
      if (!merged.empty() && merged.back().node == cur.node &&
          merged.back().fragment == cur.fragment &&
          merged.back().end >= cur.start) {
        merged.back().end = std::max(merged.back().end, cur.end);
      } else {
        merged.push_back(cur);
      }
    }
    std::sort(intervals.begin(), intervals.end(), IntervalOrder);
    std::vector<AvailabilityInterval> extra;
    for (const AvailabilityInterval& s : merged) {
      SimTime cursor = s.start;
      for (const AvailabilityInterval& i : intervals) {
        if (i.node != s.node || i.fragment != s.fragment ||
            i.access != AccessKind::kRead || i.end <= s.start) {
          continue;
        }
        if (i.start >= s.end) break;
        if (i.end <= cursor) continue;
        if (i.start > cursor) {
          extra.push_back({s.node, s.fragment, AccessKind::kRead,
                           ServeState::kDegradedStale, cursor, i.start});
        }
        cursor = std::max(cursor, i.end);
        if (cursor >= s.end) break;
      }
      if (cursor < s.end) {
        extra.push_back({s.node, s.fragment, AccessKind::kRead,
                         ServeState::kDegradedStale, cursor, s.end});
      }
    }
    intervals.insert(intervals.end(), extra.begin(), extra.end());
    std::sort(intervals.begin(), intervals.end(), IntervalOrder);
  }

  /// The availability report, attributing with a scan of every fault per
  /// interval and per-access sweeps of every interval.
  AvailabilityReport Report(const std::vector<FaultWindow>& faults,
                            SimTime horizon) const {
    AvailabilityReport report;
    report.horizon = horizon;
    report.max_staleness = max_staleness_;
    auto fraction = [&](NodeId node, AccessKind a) {
      if (horizon <= 0) return 1.0;
      SimTime down = 0;
      for (const AvailabilityInterval& i : intervals) {
        if ((node != kInvalidNode && i.node != node) || i.access != a ||
            i.state != ServeState::kUnavailable) {
          continue;
        }
        down += std::min(i.end, horizon) - std::min(i.start, horizon);
      }
      double total = static_cast<double>(horizon) *
                     (node == kInvalidNode ? nodes_ : 1) * fragments_;
      return 1.0 - static_cast<double>(down) / total;
    };
    report.read_availability = fraction(kInvalidNode, AccessKind::kRead);
    report.write_availability = fraction(kInvalidNode, AccessKind::kWrite);
    for (NodeId n = 0; n < nodes_; ++n) {
      report.node_read_availability.push_back(fraction(n, AccessKind::kRead));
      report.node_write_availability.push_back(
          fraction(n, AccessKind::kWrite));
    }
    std::vector<FaultAttributionSummary> per_fault(faults.size());
    for (size_t fi = 0; fi < faults.size(); ++fi) {
      per_fault[fi].label = faults[fi].label;
      report.fault_labels.push_back(faults[fi].label);
    }
    for (const AvailabilityInterval& iv : intervals) {
      AttributedInterval ai;
      ai.interval = iv;
      const NodeId home = home_[iv.fragment];
      SimTime best_overlap = 0;
      int best = -1;
      int fallback = -1;
      for (size_t fi = 0; fi < faults.size(); ++fi) {
        const FaultWindow& fw = faults[fi];
        bool touches = fw.nodes.empty();
        for (NodeId n : fw.nodes) {
          touches = touches || n == iv.node || n == home;
        }
        if (!touches) continue;
        SimTime overlap = std::min(iv.end, fw.end) - std::max(iv.start, fw.at);
        if (overlap > best_overlap) {
          best_overlap = overlap;
          best = static_cast<int>(fi);
        }
        if (fw.at <= iv.start &&
            (fallback < 0 || faults[fallback].at <= fw.at)) {
          fallback = static_cast<int>(fi);
        }
      }
      if (best < 0) best = fallback;
      ai.fault = best;
      if (best >= 0) {
        const FaultWindow& fw = faults[best];
        ai.detect_latency = std::max<SimTime>(0, iv.start - fw.at);
        ai.repair_latency = std::max<SimTime>(0, iv.end - fw.end);
        FaultAttributionSummary& sum = per_fault[best];
        sum.intervals += 1;
        (iv.state == ServeState::kUnavailable ? sum.downtime
                                              : sum.stale_time) +=
            iv.duration();
        sum.max_detect_latency =
            std::max(sum.max_detect_latency, ai.detect_latency);
        sum.max_repair_latency =
            std::max(sum.max_repair_latency, ai.repair_latency);
      } else {
        report.unattributed += 1;
      }
      report.attributed.push_back(ai);
    }
    for (FaultAttributionSummary& sum : per_fault) {
      if (sum.intervals > 0) report.per_fault.push_back(sum);
    }
    return report;
  }

  std::vector<AvailabilityInterval> intervals;

 private:
  struct Cell {
    ServeState state = ServeState::kServing;
    SimTime since = 0;
  };
  size_t Index(NodeId n, FragmentId f) const {
    return static_cast<size_t>(n) * fragments_ + f;
  }
  ServeState Compute(NodeId n, FragmentId f, AccessKind a) const {
    const size_t idx = Index(n, f);
    if (a == AccessKind::kRead) {
      if (down_[n]) return ServeState::kUnavailable;
      if (catching_up_[n] || gap_[idx] || !reachable_[idx]) {
        return ServeState::kDegradedStale;
      }
      return ServeState::kServing;
    }
    const NodeId h = home_[f];
    if (down_[n] || down_[h] || !reachable_[idx] || catching_up_[n] ||
        catching_up_[h]) {
      return ServeState::kUnavailable;
    }
    return ServeState::kServing;
  }
  void Transition(Cell& cell, NodeId n, FragmentId f, AccessKind a,
                  ServeState next, SimTime t) {
    if (cell.state == next) return;
    if (cell.state != ServeState::kServing && t > cell.since) {
      intervals.push_back({n, f, a, cell.state, cell.since, t});
    }
    cell.state = next;
    cell.since = t;
  }
  void Recompute(NodeId n, FragmentId f, SimTime t) {
    Transition(read_[Index(n, f)], n, f, AccessKind::kRead,
               Compute(n, f, AccessKind::kRead), t);
    Transition(write_[Index(n, f)], n, f, AccessKind::kWrite,
               Compute(n, f, AccessKind::kWrite), t);
  }
  void RecomputeNodeScope(NodeId n, SimTime t) {
    for (FragmentId f = 0; f < fragments_; ++f) Recompute(n, f, t);
    for (FragmentId f = 0; f < fragments_; ++f) {
      if (home_[f] != n) continue;
      for (NodeId m = 0; m < nodes_; ++m) {
        if (m != n) Recompute(m, f, t);
      }
    }
  }

  int nodes_;
  int fragments_;
  std::vector<NodeId> home_;
  SimTime threshold_;
  std::vector<uint8_t> down_, catching_up_, gap_, reachable_;
  std::vector<Cell> read_, write_;
  std::vector<AvailabilityInterval> stale_;
  SimTime max_staleness_ = 0;
};

std::string Describe(const std::vector<AvailabilityInterval>& intervals) {
  std::ostringstream os;
  for (const AvailabilityInterval& i : intervals) {
    os << i.node << "/" << i.fragment << "/" << static_cast<int>(i.access)
       << "/" << static_cast<int>(i.state) << ":" << i.start << "-" << i.end
       << "\n";
  }
  return os.str();
}

TEST(AvailabilityReportTest, MatchesSortedReferenceOverRandomTrackers) {
  constexpr SimTime kThreshold = 100;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int nodes = 1 + static_cast<int>(rng.NextBelow(5));
    const int fragments = 1 + static_cast<int>(rng.NextBelow(4));
    std::vector<NodeId> home;
    for (int f = 0; f < fragments; ++f) {
      home.push_back(static_cast<NodeId>(rng.NextBelow(nodes)));
    }
    AvailabilityTracker tracker(nodes, home, kThreshold);
    RefTracker ref(nodes, home, kThreshold);

    // State flips move forward in time, as a run records them, except in
    // every fourth tracker, whose flips jitter backwards too (distinct
    // instants, so no two intervals of a cell tie on start).
    const bool jitter = seed % 4 == 0;
    const int ops = static_cast<int>(rng.NextBelow(400));
    SimTime horizon = 0;
    for (int i = 0; i < ops; ++i) {
      SimTime t = 1024 * (10 * static_cast<SimTime>(i) +
                          (jitter ? static_cast<SimTime>(rng.NextBelow(40))
                                  : 0)) +
                  i;
      horizon = std::max(horizon, t);
      const NodeId n = static_cast<NodeId>(rng.NextBelow(nodes));
      const FragmentId f = static_cast<FragmentId>(rng.NextBelow(fragments));
      const bool on = rng.NextBelow(2) == 0;
      switch (rng.NextBelow(6)) {
        case 0:
          tracker.SetNodeDown(n, t, on);
          ref.SetNodeDown(n, t, on);
          break;
        case 1:
          tracker.SetCatchingUp(n, t, on);
          ref.SetCatchingUp(n, t, on);
          break;
        case 2:
          tracker.SetGap(n, f, t, on);
          ref.SetGap(n, f, t, on);
          break;
        case 3:
          tracker.SetHomeReachable(n, f, t, on);
          ref.SetHomeReachable(n, f, t, on);
          break;
        default: {
          // Lags around the threshold: some below it, some whose window
          // starts before 0, starts out of install order and overlaps.
          const SimTime lag = static_cast<SimTime>(
              rng.NextBelow(2) == 0 ? rng.NextBelow(2 * kThreshold)
                                    : rng.NextBelow(80 * 1024));
          tracker.OnInstallLag(n, f, t, lag);
          ref.OnInstallLag(n, f, t, lag);
        }
      }
    }
    // Sometimes end before the last flips, cutting windows at the horizon.
    if (horizon > 0 && rng.NextBelow(3) == 0) {
      horizon = static_cast<SimTime>(rng.NextBelow(horizon));
    }
    horizon += 1;
    tracker.Finalize(horizon);
    ref.Finalize(horizon);
    ASSERT_EQ(Describe(tracker.intervals()), Describe(ref.intervals));

    // Cluster-wide, one-node and group faults, some past the horizon.
    std::vector<FaultWindow> faults;
    const int fault_count = static_cast<int>(rng.NextBelow(6));
    for (int k = 0; k < fault_count; ++k) {
      FaultWindow fw;
      fw.label = "fault \"" + std::to_string(k) + "\"";
      fw.at = static_cast<SimTime>(rng.NextBelow(horizon + 1));
      fw.end = fw.at + static_cast<SimTime>(rng.NextBelow(horizon / 2 + 1));
      const int members = static_cast<int>(rng.NextBelow(3));
      for (int m = 0; m < members; ++m) {
        fw.nodes.push_back(static_cast<NodeId>(rng.NextBelow(nodes)));
      }
      faults.push_back(fw);
    }
    const AvailabilityReport got =
        BuildAvailabilityReport(tracker, faults, horizon);
    const AvailabilityReport want = ref.Report(faults, horizon);
    EXPECT_EQ(got.Fingerprint(), want.Fingerprint());
    EXPECT_EQ(got.ToJson(), want.ToJson());
  }
}

}  // namespace
}  // namespace fragdb

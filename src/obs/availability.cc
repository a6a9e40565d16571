#include "obs/availability.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <sstream>

#include "common/logging.h"

namespace fragdb {

const char* ServeStateName(ServeState s) {
  switch (s) {
    case ServeState::kServing:
      return "serving";
    case ServeState::kDegradedStale:
      return "degraded-stale";
    case ServeState::kUnavailable:
      return "unavailable";
  }
  return "?";
}

const char* AccessKindName(AccessKind a) {
  return a == AccessKind::kRead ? "read" : "write";
}

// --------------------------------------------------------------------------
// AvailabilityTracker
// --------------------------------------------------------------------------

AvailabilityTracker::AvailabilityTracker(int nodes, std::vector<NodeId> home,
                                         SimTime staleness_threshold)
    : nodes_(nodes),
      fragments_(static_cast<int>(home.size())),
      home_(std::move(home)),
      staleness_threshold_(staleness_threshold) {
  size_t cells = static_cast<size_t>(nodes_) * fragments_;
  down_.assign(nodes_, 0);
  catching_up_.assign(nodes_, 0);
  gap_.assign(cells, 0);
  home_reachable_.assign(cells, 1);
  read_.assign(cells, CellState{});
  write_.assign(cells, CellState{});
  interval_shards_.resize(nodes_);
  stale_shards_.resize(nodes_);
  max_staleness_by_node_.assign(nodes_, 0);
}

ServeState AvailabilityTracker::ComputeState(NodeId n, FragmentId f,
                                             AccessKind a) const {
  size_t idx = Index(n, f);
  if (a == AccessKind::kRead) {
    if (down_[n]) return ServeState::kUnavailable;
    // Reads are served from the local replica; being cut off from the home
    // or behind on the stream degrades freshness, not availability.
    if (catching_up_[n] || gap_[idx] || !home_reachable_[idx]) {
      return ServeState::kDegradedStale;
    }
    return ServeState::kServing;
  }
  NodeId h = home_[f];
  if (down_[n] || down_[h] || !home_reachable_[idx] || catching_up_[n] ||
      catching_up_[h]) {
    return ServeState::kUnavailable;
  }
  return ServeState::kServing;
}

ServeState AvailabilityTracker::CurrentState(NodeId n, FragmentId f,
                                             AccessKind a) const {
  return (a == AccessKind::kRead ? read_ : write_)[Index(n, f)].state;
}

void AvailabilityTracker::Transition(CellState& cell, NodeId n, FragmentId f,
                                     AccessKind a, ServeState next,
                                     SimTime t) {
  if (cell.state == next) return;
  if (cell.state != ServeState::kServing && t > cell.since) {
    interval_shards_[n].push_back({n, f, a, cell.state, cell.since, t});
  }
  cell.state = next;
  cell.since = t;
}

void AvailabilityTracker::Recompute(NodeId n, FragmentId f, SimTime t) {
  size_t idx = Index(n, f);
  Transition(read_[idx], n, f, AccessKind::kRead,
             ComputeState(n, f, AccessKind::kRead), t);
  Transition(write_[idx], n, f, AccessKind::kWrite,
             ComputeState(n, f, AccessKind::kWrite), t);
}

void AvailabilityTracker::RecomputeNodeScope(NodeId n, SimTime t) {
  // The node's own row, plus every cell whose fragment is homed at n
  // (write availability everywhere depends on the home's health).
  for (FragmentId f = 0; f < fragments_; ++f) Recompute(n, f, t);
  for (FragmentId f = 0; f < fragments_; ++f) {
    if (home_[f] != n) continue;
    for (NodeId m = 0; m < nodes_; ++m) {
      if (m != n) Recompute(m, f, t);
    }
  }
}

void AvailabilityTracker::SetNodeDown(NodeId n, SimTime t, bool down) {
  if (down_[n] == down) return;
  down_[n] = down;
  RecomputeNodeScope(n, t);
}

void AvailabilityTracker::SetCatchingUp(NodeId n, SimTime t,
                                        bool catching_up) {
  if (catching_up_[n] == catching_up) return;
  catching_up_[n] = catching_up;
  RecomputeNodeScope(n, t);
}

void AvailabilityTracker::SetGap(NodeId n, FragmentId f, SimTime t,
                                 bool gap) {
  size_t idx = Index(n, f);
  if (gap_[idx] == gap) return;
  gap_[idx] = gap;
  Recompute(n, f, t);
}

void AvailabilityTracker::SetHomeReachable(NodeId n, FragmentId f, SimTime t,
                                           bool reachable) {
  size_t idx = Index(n, f);
  if (home_reachable_[idx] == reachable) return;
  home_reachable_[idx] = reachable;
  Recompute(n, f, t);
}

void AvailabilityTracker::OnInstallLag(NodeId n, FragmentId f, SimTime t,
                                       SimTime lag) {
  if (lag > max_staleness_by_node_[n]) max_staleness_by_node_[n] = lag;
  if (lag <= staleness_threshold_) return;
  SimTime start = t - lag + staleness_threshold_;
  if (start < 0) start = 0;
  if (start >= t) return;
  stale_shards_[n].push_back(
      {n, f, AccessKind::kRead, ServeState::kDegradedStale, start, t});
}

SimTime AvailabilityTracker::max_staleness() const {
  SimTime max = 0;
  for (SimTime v : max_staleness_by_node_) max = std::max(max, v);
  return max;
}

namespace {

bool IntervalOrder(const AvailabilityInterval& a,
                   const AvailabilityInterval& b) {
  if (a.node != b.node) return a.node < b.node;
  if (a.fragment != b.fragment) return a.fragment < b.fragment;
  if (a.access != b.access) return a.access < b.access;
  if (a.start != b.start) return a.start < b.start;
  return a.end < b.end;
}

/// Moves `from` into `to` grouped by `cell(i)` < `cells`, keeping each
/// group in input order (one counting pass), and frees `from`. Group c is
/// to[start[c], start[c + 1]).
template <typename Cell>
void GroupByCell(std::vector<AvailabilityInterval>* from, size_t cells,
                 Cell cell, std::vector<AvailabilityInterval>* to,
                 std::vector<size_t>* start) {
  std::vector<size_t>& at = *start;
  at.assign(cells + 1, 0);
  for (const AvailabilityInterval& i : *from) ++at[cell(i) + 1];
  for (size_t c = 0; c < cells; ++c) at[c + 1] += at[c];
  to->resize(from->size());
  // Each cell's cursor ends where the next cell starts: shift them back.
  for (const AvailabilityInterval& i : *from) (*to)[at[cell(i)]++] = i;
  std::copy_backward(at.begin(), at.end() - 1, at.end());
  at[0] = 0;
  std::vector<AvailabilityInterval>().swap(*from);
}

/// Sorts [first, last) by start unless it already is. A cell's state-
/// machine intervals arrive in time order; retroactive stale windows
/// start `lag` before their install, so theirs usually do not.
void SortIfNeeded(std::vector<AvailabilityInterval>::iterator first,
                  std::vector<AvailabilityInterval>::iterator last) {
  if (!std::is_sorted(first, last, IntervalOrder)) {
    std::sort(first, last, IntervalOrder);
  }
}

}  // namespace

void AvailabilityTracker::Finalize(SimTime end) {
  FRAGDB_CHECK(!finalized_);
  finalized_ = true;
  for (NodeId n = 0; n < nodes_; ++n) {
    for (FragmentId f = 0; f < fragments_; ++f) {
      size_t idx = Index(n, f);
      Transition(read_[idx], n, f, AccessKind::kRead, ServeState::kServing,
                 end);
      Transition(write_[idx], n, f, AccessKind::kWrite, ServeState::kServing,
                 end);
      // Leave the cell marked serving; CurrentState after Finalize reports
      // the closed-out state.
    }
  }

  // Every interval and stale window of a cell sits in its node's shard,
  // so each node's cells are finished on their own and appended in
  // (node, fragment, access, start) order. Per cell, the retroactive
  // stale windows are merged where they overlap, then stripped of any
  // time a state-machine read interval already covers, so per-cell
  // intervals never overlap.
  size_t total = 0;
  for (NodeId n = 0; n < nodes_; ++n) {
    total += interval_shards_[n].size() + stale_shards_[n].size();
  }
  intervals_.reserve(total);
  const size_t cells = 2 * static_cast<size_t>(fragments_);
  std::vector<AvailabilityInterval> state, stale, merged, pieces;
  std::vector<size_t> state_start, stale_start;
  for (NodeId n = 0; n < nodes_; ++n) {
    if (interval_shards_[n].empty() && stale_shards_[n].empty()) continue;
    GroupByCell(
        &interval_shards_[n], cells,
        [](const AvailabilityInterval& i) {
          return 2 * static_cast<size_t>(i.fragment) +
                 static_cast<size_t>(i.access);
        },
        &state, &state_start);
    GroupByCell(
        &stale_shards_[n], static_cast<size_t>(fragments_),
        [](const AvailabilityInterval& i) {
          return static_cast<size_t>(i.fragment);
        },
        &stale, &stale_start);
    for (FragmentId f = 0; f < fragments_; ++f) {
      const auto reads = state.begin() + state_start[2 * f];
      const auto reads_end = state.begin() + state_start[2 * f + 1];
      const auto writes_end = state.begin() + state_start[2 * f + 2];
      const auto windows = stale.begin() + stale_start[f];
      const auto windows_end = stale.begin() + stale_start[f + 1];
      if (reads == writes_end && windows == windows_end) continue;
      SortIfNeeded(reads, reads_end);
      SortIfNeeded(reads_end, writes_end);
      SortIfNeeded(windows, windows_end);

      // Clamp to the horizon (dropping anything entirely past it) and
      // merge overlapping windows.
      merged.clear();
      for (auto s = windows; s != windows_end; ++s) {
        if (s->start >= end) continue;
        AvailabilityInterval cur = *s;
        if (cur.end > end) cur.end = end;
        if (!merged.empty() && merged.back().end >= cur.start) {
          if (cur.end > merged.back().end) merged.back().end = cur.end;
        } else {
          merged.push_back(cur);
        }
      }

      // One cursor walks the cell's read intervals once: it skips those
      // that ended before the window (and so before every later window).
      pieces.clear();
      auto head = reads;
      for (const AvailabilityInterval& s : merged) {
        while (head != reads_end && head->end <= s.start) ++head;
        SimTime cursor = s.start;
        for (auto it = head; it != reads_end; ++it) {
          const AvailabilityInterval& i = *it;
          if (i.start >= s.end) break;  // sorted by start within the cell
          if (i.end <= cursor) continue;
          if (i.start > cursor) {
            pieces.push_back({n, f, AccessKind::kRead,
                              ServeState::kDegradedStale, cursor, i.start});
          }
          cursor = std::max(cursor, i.end);
          if (cursor >= s.end) break;
        }
        if (cursor < s.end) {
          pieces.push_back({n, f, AccessKind::kRead,
                            ServeState::kDegradedStale, cursor, s.end});
        }
      }
      std::merge(reads, reads_end, pieces.begin(), pieces.end(),
                 std::back_inserter(intervals_), IntervalOrder);
      intervals_.insert(intervals_.end(), reads_end, writes_end);
    }
  }
}

std::vector<SimTime> AvailabilityTracker::UnavailableTime(
    SimTime horizon) const {
  std::vector<SimTime> down(2 * static_cast<size_t>(nodes_), 0);
  for (const AvailabilityInterval& i : intervals_) {
    if (i.state != ServeState::kUnavailable) continue;
    down[2 * static_cast<size_t>(i.node) + static_cast<size_t>(i.access)] +=
        std::min(i.end, horizon) - std::min(i.start, horizon);
  }
  return down;
}

// --------------------------------------------------------------------------
// Attribution
// --------------------------------------------------------------------------

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string FormatFraction(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// Share of (nodes x fragments cells) x horizon not spent unavailable.
double AvailableShare(SimTime down, SimTime horizon, int nodes,
                      int fragments) {
  if (horizon <= 0) return 1.0;
  double total = static_cast<double>(horizon) * nodes * fragments;
  return 1.0 - static_cast<double>(down) / total;
}

bool FaultTouches(const FaultWindow& fw, const AvailabilityInterval& i,
                  NodeId home) {
  if (fw.nodes.empty()) return true;
  for (NodeId n : fw.nodes) {
    if (n == i.node || n == home) return true;
  }
  return false;
}

}  // namespace

AvailabilityReport BuildAvailabilityReport(
    const AvailabilityTracker& tracker, const std::vector<FaultWindow>& faults,
    SimTime horizon) {
  AvailabilityReport report;
  report.horizon = horizon;
  report.max_staleness = tracker.max_staleness();
  const int nodes = tracker.nodes();
  const int fragments = tracker.fragments();
  const std::vector<SimTime> down = tracker.UnavailableTime(horizon);
  SimTime read_down = 0;
  SimTime write_down = 0;
  for (NodeId n = 0; n < nodes; ++n) {
    const SimTime r = down[2 * static_cast<size_t>(n)];
    const SimTime w = down[2 * static_cast<size_t>(n) + 1];
    read_down += r;
    write_down += w;
    report.node_read_availability.push_back(
        AvailableShare(r, horizon, 1, fragments));
    report.node_write_availability.push_back(
        AvailableShare(w, horizon, 1, fragments));
  }
  report.read_availability =
      AvailableShare(read_down, horizon, nodes, fragments);
  report.write_availability =
      AvailableShare(write_down, horizon, nodes, fragments);

  std::vector<FaultAttributionSummary> per_fault(faults.size());
  for (size_t fi = 0; fi < faults.size(); ++fi) {
    per_fault[fi].label = faults[fi].label;
    report.fault_labels.push_back(faults[fi].label);
  }

  // The faults that touch a cell depend only on its node and fragment;
  // intervals come cell-major, so the list is rebuilt once per cell.
  std::vector<int> candidates;
  NodeId cell_node = kInvalidNode;
  FragmentId cell_fragment = kInvalidFragment;
  report.attributed.reserve(tracker.intervals().size());
  for (const AvailabilityInterval& iv : tracker.intervals()) {
    if (iv.node != cell_node || iv.fragment != cell_fragment) {
      cell_node = iv.node;
      cell_fragment = iv.fragment;
      const NodeId home = tracker.HomeOf(iv.fragment);
      candidates.clear();
      for (size_t fi = 0; fi < faults.size(); ++fi) {
        if (FaultTouches(faults[fi], iv, home)) {
          candidates.push_back(static_cast<int>(fi));
        }
      }
    }
    AttributedInterval ai;
    ai.interval = iv;
    // Best overlap wins; earliest fault on ties. If nothing overlaps, fall
    // back to the latest candidate fault that started at or before the
    // interval (detection can lag the fault's scheduled window).
    SimTime best_overlap = 0;
    int best = -1;
    int fallback = -1;
    for (int fi : candidates) {
      const FaultWindow& fw = faults[fi];
      SimTime overlap =
          std::min(iv.end, fw.end) - std::max(iv.start, fw.at);
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best = fi;
      }
      if (fw.at <= iv.start &&
          (fallback < 0 || faults[fallback].at <= fw.at)) {
        fallback = fi;
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
      if (iv.state == ServeState::kUnavailable) {
        sum.downtime += iv.duration();
      } else {
        sum.stale_time += iv.duration();
      }
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
    if (sum.intervals > 0) report.per_fault.push_back(std::move(sum));
  }
  return report;
}

// --------------------------------------------------------------------------
// Report rendering
// --------------------------------------------------------------------------

namespace {

void AppendFaultSummaries(
    std::ostringstream& os,
    const std::vector<FaultAttributionSummary>& per_fault) {
  os << "[";
  for (size_t i = 0; i < per_fault.size(); ++i) {
    const FaultAttributionSummary& s = per_fault[i];
    if (i > 0) os << ",";
    os << "{\"fault\":\"" << JsonEscape(s.label)
       << "\",\"intervals\":" << s.intervals
       << ",\"downtime_us\":" << s.downtime
       << ",\"stale_time_us\":" << s.stale_time
       << ",\"max_detect_latency_us\":" << s.max_detect_latency
       << ",\"max_repair_latency_us\":" << s.max_repair_latency << "}";
  }
  os << "]";
}

}  // namespace

std::string AvailabilityReport::SummaryJson() const {
  std::ostringstream os;
  os << "\"read_availability\":" << FormatFraction(read_availability)
     << ",\"write_availability\":" << FormatFraction(write_availability)
     << ",\"max_staleness_us\":" << max_staleness
     << ",\"unavailability_intervals\":" << attributed.size()
     << ",\"attributed_faults\":";
  AppendFaultSummaries(os, per_fault);
  return os.str();
}

std::string AvailabilityReport::ToJson() const {
  std::ostringstream os;
  os << "{" << SummaryJson() << ",\"horizon_us\":" << horizon
     << ",\"unattributed\":" << unattributed
     << ",\"node_read_availability\":[";
  for (size_t n = 0; n < node_read_availability.size(); ++n) {
    if (n > 0) os << ",";
    os << FormatFraction(node_read_availability[n]);
  }
  os << "],\"node_write_availability\":[";
  for (size_t n = 0; n < node_write_availability.size(); ++n) {
    if (n > 0) os << ",";
    os << FormatFraction(node_write_availability[n]);
  }
  os << "],\"intervals\":[";
  for (size_t i = 0; i < attributed.size(); ++i) {
    const AttributedInterval& ai = attributed[i];
    if (i > 0) os << ",";
    os << "{\"node\":" << ai.interval.node
       << ",\"fragment\":" << ai.interval.fragment << ",\"access\":\""
       << AccessKindName(ai.interval.access) << "\",\"state\":\""
       << ServeStateName(ai.interval.state)
       << "\",\"start_us\":" << ai.interval.start
       << ",\"end_us\":" << ai.interval.end << ",\"fault\":";
    if (ai.fault >= 0) {
      os << "\"" << JsonEscape(fault_labels[ai.fault]) << "\"";
    } else {
      os << "null";
    }
    os << ",\"detect_latency_us\":" << ai.detect_latency
       << ",\"repair_latency_us\":" << ai.repair_latency << "}";
  }
  os << "]}";
  return os.str();
}

std::string AvailabilityReport::Fingerprint() const {
  std::ostringstream os;
  os << "ra=" << FormatFraction(read_availability)
     << ";wa=" << FormatFraction(write_availability)
     << ";ms=" << max_staleness << ";un=" << unattributed;
  for (const AttributedInterval& ai : attributed) {
    os << "\n" << ai.interval.node << "/" << ai.interval.fragment << "/"
       << AccessKindName(ai.interval.access)[0] << "/"
       << static_cast<int>(ai.interval.state) << ":" << ai.interval.start
       << "-" << ai.interval.end << "@" << ai.fault << "+" << ai.detect_latency
       << "+" << ai.repair_latency;
  }
  return os.str();
}

}  // namespace fragdb

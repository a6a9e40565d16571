#ifndef FRAGDB_OBS_AVAILABILITY_H_
#define FRAGDB_OBS_AVAILABILITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace fragdb {

/// Service level of one (node, fragment) cell for one access kind.
enum class ServeState {
  kServing = 0,
  /// Answering, but possibly from stale data: the replica is behind the
  /// home (holdback gap, post-crash catch-up, or the home is unreachable so
  /// updates cannot arrive), or an install measured lag beyond the
  /// configured staleness threshold.
  kDegradedStale = 1,
  /// Not answering at all: the node is down, or (for writes) the commit
  /// path to the fragment's home agent is severed.
  kUnavailable = 2,
};

enum class AccessKind { kRead = 0, kWrite = 1 };

const char* ServeStateName(ServeState s);
const char* AccessKindName(AccessKind a);

/// One maximal window during which a (node, fragment, access) cell was in
/// a non-serving state. Emitted closed: end is always set by the time the
/// tracker is finalized.
struct AvailabilityInterval {
  NodeId node = kInvalidNode;
  FragmentId fragment = kInvalidFragment;
  AccessKind access = AccessKind::kRead;
  ServeState state = ServeState::kUnavailable;
  SimTime start = 0;
  SimTime end = 0;

  SimTime duration() const { return end - start; }
};

/// One fault injected by the scenario schedule, as seen by attribution:
/// a labelled window plus the set of nodes it directly touches (empty =
/// cluster-wide, e.g. a partition or a loss window).
struct FaultWindow {
  std::string label;  // formatted scenario op, e.g. "crash at=150ms ..."
  SimTime at = 0;
  SimTime end = 0;
  std::vector<NodeId> nodes;  // empty = affects everyone
};

/// Per-(node,fragment) read/write availability state machines, driven
/// push-style from the cluster's existing instrumentation hook sites. No
/// events are scheduled and nothing feeds back into the simulation, so a
/// run behaves identically with the tracker on or off.
///
/// Inputs (all idempotent — setting a flag to its current value is a
/// no-op):
///   - node down / up            (crash-stop and amnesia crashes, revival)
///   - node catching up          (post-replay peer catch-up phase)
///   - per-(node,fragment) gap   (holdback blocked on a missing seq)
///   - per-(node,fragment) home reachability (topology changes)
///   - per-install replication lag (retroactive staleness intervals)
class AvailabilityTracker {
 public:
  /// `home[f]` is the node hosting fragment f's primary agent.
  AvailabilityTracker(int nodes, std::vector<NodeId> home,
                      SimTime staleness_threshold);

  void SetNodeDown(NodeId n, SimTime t, bool down);
  void SetCatchingUp(NodeId n, SimTime t, bool catching_up);
  void SetGap(NodeId n, FragmentId f, SimTime t, bool gap);
  void SetHomeReachable(NodeId n, FragmentId f, SimTime t, bool reachable);
  /// An install at node n measured `lag` behind the origin commit. Lag
  /// beyond the threshold yields a retroactive degraded-stale read interval
  /// [t - lag + threshold, t] for (n, f).
  void OnInstallLag(NodeId n, FragmentId f, SimTime t, SimTime lag);

  /// Closes every open interval at `end` and merges the retroactive stale
  /// intervals into the main list. Must be called exactly once, after the
  /// run; interval accessors below are only meaningful afterwards.
  void Finalize(SimTime end);

  ServeState CurrentState(NodeId n, FragmentId f, AccessKind a) const;

  /// All closed non-serving intervals, sorted by
  /// (node, fragment, access, start). Stale sub-intervals overlapping a
  /// stronger interval are clipped, so per-cell intervals never overlap.
  const std::vector<AvailabilityInterval>& intervals() const {
    return intervals_;
  }

  /// Fraction of (cells × horizon) NOT spent kUnavailable for this access
  /// kind, over the window [0, horizon]. Degraded-stale time still counts
  /// as available (it answers, just possibly stale) — it is reported
  /// separately through the intervals and max_staleness().
  double AvailableFraction(AccessKind a, SimTime horizon) const;
  /// Same, restricted to one node's cells.
  double NodeAvailableFraction(NodeId n, AccessKind a, SimTime horizon) const;

  /// Largest replication lag ever observed at an install (us).
  SimTime max_staleness() const;

  int nodes() const { return nodes_; }
  int fragments() const { return fragments_; }
  NodeId HomeOf(FragmentId f) const { return home_[f]; }
  SimTime staleness_threshold() const { return staleness_threshold_; }

 private:
  struct CellState {
    ServeState state = ServeState::kServing;
    SimTime since = 0;
  };

  size_t Index(NodeId n, FragmentId f) const {
    return static_cast<size_t>(n) * fragments_ + f;
  }
  ServeState ComputeState(NodeId n, FragmentId f, AccessKind a) const;
  void Recompute(NodeId n, FragmentId f, SimTime t);
  void RecomputeNodeScope(NodeId n, SimTime t);
  void Transition(CellState& cell, NodeId n, FragmentId f, AccessKind a,
                  ServeState next, SimTime t);

  int nodes_;
  int fragments_;
  std::vector<NodeId> home_;
  SimTime staleness_threshold_;

  // uint8_t, not bool: vector<bool> bit-packs, so two nodes toggling
  // adjacent flags from concurrent partitions would race on the shared
  // byte. One byte per flag keeps per-node rows truly disjoint.
  std::vector<uint8_t> down_;            // per node
  std::vector<uint8_t> catching_up_;     // per node
  std::vector<uint8_t> gap_;             // per (node, fragment)
  std::vector<uint8_t> home_reachable_;  // per (node, fragment)

  std::vector<CellState> read_;   // per (node, fragment)
  std::vector<CellState> write_;  // per (node, fragment)

  /// Closed intervals and retroactive stale observations accumulate in
  /// per-node shards (indexed by the cell's node, which is also the
  /// acting node for every node-event call site). Finalize concatenates
  /// node-major and sorts — the same total order the unsharded tracker
  /// produced, at any worker-thread count.
  std::vector<std::vector<AvailabilityInterval>> interval_shards_;
  std::vector<std::vector<AvailabilityInterval>> stale_shards_;
  std::vector<SimTime> max_staleness_by_node_;

  std::vector<AvailabilityInterval> intervals_;  // merged at finalize
  bool finalized_ = false;
};

/// One unavailability/staleness interval joined to the scenario fault that
/// caused it.
struct AttributedInterval {
  AvailabilityInterval interval;
  /// Index into the FaultWindow list, or -1 if no fault matched.
  int fault = -1;
  std::string fault_label;
  /// interval.start - fault.at: how long the fault existed before this
  /// cell degraded (time-to-detect).
  SimTime detect_latency = 0;
  /// max(0, interval.end - fault.end): how long past the fault's scheduled
  /// end the cell took to return to service (time-to-repair).
  SimTime repair_latency = 0;
};

/// Per-fault rollup across the intervals it was blamed for.
struct FaultAttributionSummary {
  std::string label;
  int intervals = 0;
  SimTime downtime = 0;        // summed kUnavailable durations
  SimTime stale_time = 0;      // summed kDegradedStale durations
  SimTime max_detect_latency = 0;
  SimTime max_repair_latency = 0;
};

/// The per-cell "blame" report: availability percentages, staleness, and
/// every non-serving interval attributed to the scenario op that caused it.
struct AvailabilityReport {
  double read_availability = 1.0;
  double write_availability = 1.0;
  SimTime max_staleness = 0;
  SimTime horizon = 0;
  std::vector<double> node_read_availability;
  std::vector<double> node_write_availability;
  std::vector<AttributedInterval> attributed;
  std::vector<FaultAttributionSummary> per_fault;
  int unattributed = 0;

  /// Full report as one JSON object (artifact files, bench_availability).
  std::string ToJson() const;
  /// Compact fragment for embedding in a BENCH_JSON cell line: read/write
  /// availability, max staleness, and the per-fault summaries.
  std::string SummaryJson() const;
  /// Deterministic digest (determinism tests).
  std::string Fingerprint() const;
};

/// Joins the tracker's finalized intervals against the scenario fault
/// schedule. An interval matches a fault whose node set is empty or
/// contains the interval's node or its fragment's home; among matches the
/// fault with the largest time overlap wins (earliest-starting fault on a
/// tie, latest fault starting before the interval as a fallback when
/// nothing overlaps).
AvailabilityReport BuildAvailabilityReport(
    const AvailabilityTracker& tracker, const std::vector<FaultWindow>& faults,
    SimTime horizon);

}  // namespace fragdb

#endif  // FRAGDB_OBS_AVAILABILITY_H_

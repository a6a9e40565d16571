#ifndef FRAGDB_SCENARIO_RUNNER_H_
#define FRAGDB_SCENARIO_RUNNER_H_

// Drives one grid cell: a Scenario (faults + load shaping) against a
// freshly built cluster under a chosen control option, with every
// invariant the library offers checked at the end — FIFO delivery order,
// the configured serializability property, fragmentwise serializability,
// mutual consistency, and the crash-recovery audit. Fully deterministic
// from (scenario, options): a cell never shares state with other cells,
// so a matrix of cells can run on any number of threads bit-identically.

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/audit.h"
#include "core/cluster.h"
#include "obs/availability.h"
#include "scenario/compile.h"
#include "scenario/scenario.h"
#include "verify/checkers.h"
#include "workload/metrics.h"

namespace fragdb {

struct ScenarioRunOptions {
  int nodes = 5;
  int objects_per_fragment = 3;
  /// Mean number of foreign fragments read per update transaction.
  double read_fan = 1.0;
  /// Mean inter-arrival time per agent before load shaping; the scenario's
  /// diurnal/flash curve divides it, its zipf op skews object choice.
  SimTime base_interarrival = Millis(7);
  /// Traffic window; fault windows should close before or at this instant
  /// (the runner heals, revives, and drains afterwards regardless).
  SimTime duration = Millis(700);
  SimTime link_latency = Millis(5);
  uint64_t seed = 1;
  ControlOption control = ControlOption::kFragmentwise;
  /// Commit protocol for update transactions. kPaxosCommit turns every
  /// update into a non-blocking consensus commit; kQuorum control requires
  /// this stays kForbidden.
  MoveProtocol move_protocol = MoveProtocol::kForbidden;
  /// Per-fragment read/write quorum sizes (0 = majority default). Only
  /// meaningful with control == kQuorum; Start() enforces R+W > N.
  int read_quorum = 0;
  int write_quorum = 0;
  /// Fraction of arrivals submitted as read-only quorum reads instead of
  /// updates. Only consulted when > 0 (keeps golden RNG streams intact for
  /// every pre-existing cell) and meaningful only under kQuorum.
  double read_only_fraction = 0.0;
  /// 0 = auto: enable the cluster's gap repairer (50ms) iff the scenario
  /// has loss windows. Any other value is passed through.
  SimTime gap_repair_interval = 0;
  /// Forwarded to ClusterConfig::observability (off by default). With
  /// metrics on, the report carries a snapshot relabeled by scenario name.
  /// With timelines on, it carries the availability report and timeline
  /// fingerprints; with flight_recorder on, a failing cell dumps the
  /// recorder into the report.
  ObservabilityConfig observability;
  /// Marks the cell failed after all real checks pass — exercises the
  /// failure path end-to-end (flight-recorder dump, CI artifact plumbing)
  /// without needing an actual bug.
  bool force_verify_failure = false;
  /// The PDES engine's shape: engine.threads workers over
  /// engine.partitions node partitions. A cell is bit-identical at any
  /// thread count.
  EngineConfig engine;
};

/// Everything a grid cell reports. `ok()` is the gate CI greps for.
struct ScenarioCellReport {
  WorkloadMetrics metrics;
  NetworkStats net;
  ApplyStats faults;

  bool fifo_ok = true;         // FifoOrderChecker over every delivery
  bool property_ok = true;     // the configured control option's promise
  bool fragmentwise_ok = true; // Properties 1+2 (always, extra signal)
  bool consistent_ok = true;   // mutual consistency at quiescence
  bool recovery_ok = true;     // every compiled revive ran to completion
  bool timeline_ok = true;     // availability intervals structurally sound
  bool quorum_ok = true;       // R+W>N freshness (trivially true off-quorum)
  bool paxos_ok = true;        // commit atomicity + non-blocking termination
  bool forced_failure = false; // options.force_verify_failure fired
  std::string failure_detail;  // first failing checker's message

  uint64_t fifo_deliveries = 0;
  /// Completed revives, and how many ran the amnesia recovery pipeline.
  int revives_completed = 0;
  int recoveries_ran = 0;

  /// Per-scenario-labeled metrics (empty unless observability.metrics).
  MetricsSnapshot metrics_snapshot;

  /// Blame report joining non-serving intervals to the scenario's fault
  /// schedule (meaningful only with observability.timelines).
  AvailabilityReport availability;
  /// Deterministic digests, pinned by the determinism tests (empty unless
  /// observability.timelines).
  std::string timeline_fingerprint;
  std::string availability_fingerprint;
  /// Flight-recorder JSONL (Chrome trace_event lines), captured
  /// automatically when the cell fails and the recorder was on.
  std::string flight_dump;

  bool ok() const {
    return fifo_ok && property_ok && consistent_ok && recovery_ok &&
           timeline_ok && quorum_ok && paxos_ok && !forced_failure;
  }
};

class ScenarioRunner {
 public:
  ScenarioRunner(Scenario scenario, const ScenarioRunOptions& options);

  /// Builds the cluster (call once, before Run).
  Status Start();

  /// Applies the scenario, generates traffic for `duration`, then heals,
  /// revives, repairs, drains, and evaluates every checker.
  ScenarioCellReport Run();

  Cluster& cluster() { return *cluster_; }
  const Scenario& scenario() const { return scenario_; }

 private:
  void ScheduleArrival(int agent_index);
  void SubmitOne(int agent_index);
  /// Where a completion callback records its outcome: the acting node's
  /// shard.
  WorkloadMetrics& MetricsSink();
  /// Where a delivery observation lands: the destination node's shard
  /// (FIFO channels are keyed by (from, to), so sharding by `to` keeps
  /// every channel in one shard).
  FifoOrderChecker& FifoSink(NodeId to);

  Scenario scenario_;
  ScenarioRunOptions options_;
  LoadProfile profile_;
  /// Setup draws (the acyclic read-access tree).
  Rng rng_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<FragmentId> fragments_;
  std::vector<AgentId> agents_;
  std::vector<std::vector<ObjectId>> objects_;
  std::vector<std::vector<FragmentId>> readable_;
  /// Per-agent workload streams: each agent's draws happen inside its
  /// home node's partition, so streams must not be shared.
  std::vector<Rng> agent_rngs_;
  std::vector<WorkloadMetrics> metrics_shards_;
  std::vector<FifoOrderChecker> fifo_shards_;
  ApplyStats fault_stats_;
  int revives_completed_ = 0;
  int recoveries_ran_ = 0;
  bool traffic_open_ = true;
};

}  // namespace fragdb

#endif  // FRAGDB_SCENARIO_RUNNER_H_

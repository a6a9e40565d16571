#ifndef FRAGBENCH_BENCH_H_
#define FRAGBENCH_BENCH_H_

// The FragDB benchmark: one workload run against a freshly built
// Cluster through its public API, from input generation to the end-of-run
// audit. A run is fully determined by (workload, seed); the worker count
// and tracing change only the wall clock, never a simulated metric.

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "scenario/scenario.h"

namespace fragbench {

/// One named workload: cluster shape, protocol, offered load and the fault
/// schedule. Agent i is homed at node i; nodes at or beyond `agents` hold
/// replicas only.
struct Workload {
  std::string name;
  int nodes = 0;
  int agents = 0;
  fragdb::ControlOption control = fragdb::ControlOption::kFragmentwise;
  fragdb::MoveProtocol protocol = fragdb::MoveProtocol::kForbidden;
  /// Mean time between one agent's updates before load shaping (the
  /// scenario's flash windows divide it). Reads come on top: the agent's
  /// Poisson arrivals have mean update_interarrival * (1 - read_fraction),
  /// and each is a read with probability read_fraction.
  fragdb::SimTime update_interarrival = 0;
  double read_fraction = 0.0;
  bool durability = false;
  /// Checkpoint period when durability is on (0 = none).
  fragdb::SimTime checkpoint_interval = 0;
  /// PDES worker threads; 0 = one per hardware thread (capped at 8).
  int workers = 1;
  /// Traffic window in simulated time; the run then heals, revives and
  /// drains to quiescence.
  fragdb::SimTime duration = 0;
  /// Fault ops plus load shaping (zipf, flash), in the scenario DSL.
  std::string scenario_text;
};

const std::vector<Workload>& Workloads();
/// nullptr when no workload has this name.
const Workload* FindWorkload(const std::string& name);

/// Default and held-out input seeds. Tune on the default; re-check any
/// claim on the held-out seed, which no tuning may look at.
inline constexpr uint64_t kDefaultSeed = 1;
inline constexpr uint64_t kHeldOutSeed = 104729;

struct RunOptions {
  uint64_t seed = kDefaultSeed;
  /// Overrides the workload's worker count when > 0.
  int workers = 0;
  /// Installs the per-layer observers and records spans.
  bool traced = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One span, on either clock: wall spans are seconds since the run began,
/// simulated spans are simulated milliseconds. `parent` indexes the
/// enclosing span in the same vector (-1 for a root).
struct Span {
  std::string name;
  bool sim_clock = false;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int64_t txn = -1;
};

/// Wall seconds spent in each phase of one run after set-up (set-up is
/// timed on its own, by MeasureSetup).
struct WallPhases {
  double apply = 0.0;   // ApplyScenario
  double run = 0.0;     // RunUntil over the traffic window
  double drain = 0.0;   // heal, revive, RunToQuiescence, gap-repair sweep
  double audit = 0.0;   // AuditRun
  double report = 0.0;  // availability Finalize + BuildAvailabilityReport

  /// What one submitted-and-audited run costs.
  double measured() const { return apply + run + drain + audit + report; }
};

struct RunResult {
  bool correct = true;
  std::string failure;  // first failing check
  uint64_t attempted = 0;
  /// Transactions that ended in neither a commit nor a clean decline.
  uint64_t failed = 0;
  /// Simulated metrics: exact, a function of (workload, seed) alone.
  std::vector<Metric> sim;
  /// Per-layer metrics only a traced run measures (observers).
  std::vector<Metric> traced;
  WallPhases wall;
  int workers = 1;
  std::vector<Span> spans;  // traced runs only

  /// Every simulated metric, printed with all its digits: equal strings
  /// mean an identical simulation.
  std::string SimFingerprint() const;
};

RunResult RunWorkload(const Workload& workload, const RunOptions& options);

/// Builds the workload's cluster (construction, schema, Start) and tears
/// it down; returns the wall seconds the build took.
double MeasureSetup(const Workload& workload, uint64_t seed);

/// Worker count a workload runs at under `options`.
int EffectiveWorkers(const Workload& workload, const RunOptions& options);

/// The build type this benchmark was compiled as (CMAKE_BUILD_TYPE).
const char* BuildType();

}  // namespace fragbench

#endif  // FRAGBENCH_BENCH_H_

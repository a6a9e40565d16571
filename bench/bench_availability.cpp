// E-avail — availability over time under one fault scenario.
//
// Runs a single scenario cell with the time-series layer on and renders
// what the paper's operators would have watched: per-bucket commit and
// unavailability counts, replication lag, then the availability report —
// read/write availability percentages, max staleness, and every
// non-serving interval attributed to the scenario op that caused it
// (with detection and repair latencies).
//
// Flags (beyond the harness's --threads / --seeds):
//   --scenario=name      fault scenario (default amnesia_crash)
//   --workload=name      workload profile (default steady_uniform)
//   --control=name       fragmentwise | acyclic (default fragmentwise)
//   --nodes=N            cluster size (default 5)
//   --duration_ms=N      traffic window (default 700)
//   --bucket_ms=N        timeline bucket width (default 25)
//   --out=FILE           also write the full JSON report to FILE
//   --sim_threads=N      PDES workers (--sim_partitions sets the node
//                        partitions)
//   --verify_serial=1    re-run the cell with one PDES worker and fail if
//                        the timeline or availability fingerprints diverge

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "scenario/library.h"
#include "scenario/runner.h"

using namespace fragdb;
using fragdb_bench::Int;
using fragdb_bench::Num;
using fragdb_bench::Pct;
using fragdb_bench::PrintJsonLine;
using fragdb_bench::PrintRow;
using fragdb_bench::PrintRule;

namespace {

/// The bucket of `s` covering simulated time `t`, or nullptr. Looked up
/// by the series' own width, so rows stay correct if a long run coalesced
/// the series coarser than the table step.
const TimeBucket* BucketAt(const TimeSeries& s, SimTime t) {
  if (s.bucket_count() == 0 || t < s.origin()) return nullptr;
  size_t i = static_cast<size_t>((t - s.origin()) / s.bucket_width());
  return i < s.bucket_count() ? &s.buckets()[i] : nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  fragdb_bench::BenchOptions opts = fragdb_bench::ParseBenchOptions(&argc, argv);

  std::string scenario_name = opts.ExtraOr("scenario", "amnesia_crash");
  std::string workload_name = opts.ExtraOr("workload", "steady_uniform");
  std::string control_name = opts.ExtraOr("control", "fragmentwise");
  int nodes = std::atoi(opts.ExtraOr("nodes", "5").c_str());
  SimTime duration =
      Millis(std::atoi(opts.ExtraOr("duration_ms", "700").c_str()));
  SimTime bucket = Millis(std::atoi(opts.ExtraOr("bucket_ms", "25").c_str()));
  std::string out_file = opts.ExtraOr("out", "");
  if (nodes < 2 || duration <= 0 || bucket <= 0) {
    std::fprintf(stderr, "bad --nodes, --duration_ms or --bucket_ms\n");
    return 2;
  }

  Result<Scenario> fault = NamedScenario(scenario_name);
  Result<Scenario> load = NamedScenario(workload_name);
  if (!fault.ok() || !load.ok()) {
    std::fprintf(stderr, "unknown scenario/workload %s/%s\n",
                 scenario_name.c_str(), workload_name.c_str());
    return 2;
  }
  Scenario merged = *fault;
  merged.Merge(*load);
  merged.name = scenario_name;

  ScenarioRunOptions opt;
  opt.nodes = nodes;
  opt.duration = duration;
  opt.seed = opts.SeedOr(1);
  if (control_name == "acyclic") {
    opt.control = ControlOption::kAcyclicReads;
  } else if (control_name != "fragmentwise") {
    std::fprintf(stderr, "unknown --control %s\n", control_name.c_str());
    return 2;
  }
  opt.observability.timelines = true;
  opt.observability.flight_recorder = true;
  opt.observability.timeline_bucket_width = bucket;

  opt.engine.threads = opts.sim_threads;
  opt.engine.partitions = opts.sim_partitions;

  ScenarioRunner runner(Scenario(merged), opt);
  Status started = runner.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 2;
  }
  ScenarioCellReport report = runner.Run();

  if (opts.ExtraOr("verify_serial", "0") != "0") {
    ScenarioRunOptions ref_opt = opt;
    ref_opt.engine.threads = 1;
    ScenarioRunner ref_runner(Scenario(merged), ref_opt);
    if (!ref_runner.Start().ok()) return 2;
    ScenarioCellReport reference = ref_runner.Run();
    if (reference.timeline_fingerprint != report.timeline_fingerprint ||
        reference.availability_fingerprint !=
            report.availability_fingerprint) {
      std::fprintf(stderr,
                   "VERIFY MISMATCH: %d-thread run diverges from the "
                   "single-threaded reference\n", opt.engine.threads);
      return 1;
    }
    std::fprintf(stderr, "verify_serial: fingerprints match the "
                 "single-threaded reference\n");
  }
  const AvailabilityReport& av = report.availability;

  std::printf("E-avail — %s / %s / %s, %d nodes, seed %llu\n\n",
              scenario_name.c_str(), workload_name.c_str(),
              control_name.c_str(), nodes,
              (unsigned long long)opt.seed);

  // Availability vs time: one row per timeline bucket, all nodes summed.
  ClusterTimelines* tl = runner.cluster().timelines();
  std::vector<int> twidths = {12, 10, 8, 14, 14};
  PrintRow({"t(ms)", "commits", "unavail", "max lag(ms)", "max hbdepth"},
           twidths);
  PrintRule(twidths);
  for (SimTime t = 0; t < av.horizon; t += bucket) {
    uint64_t commits = 0, unavail = 0;
    int64_t max_lag = 0, max_depth = 0;
    for (NodeId n = 0; n < nodes; ++n) {
      if (const TimeBucket* b = BucketAt(tl->Committed(n), t)) {
        commits += b->count;
      }
      if (const TimeBucket* b = BucketAt(tl->Unavailable(n), t)) {
        unavail += b->count;
      }
      if (const TimeBucket* b = BucketAt(tl->ReplicationLag(n), t)) {
        if (b->count > 0 && b->max > max_lag) max_lag = b->max;
      }
      if (const TimeBucket* b = BucketAt(tl->HoldbackDepth(n), t)) {
        if (b->count > 0 && b->max > max_depth) max_depth = b->max;
      }
    }
    PrintRow({Num(t / 1000.0, 1), Int((long long)commits),
              Int((long long)unavail), Num(max_lag / 1000.0, 2),
              Int((long long)max_depth)},
             twidths);
  }

  std::printf("\nread availability  %s   write availability  %s   "
              "max staleness  %sms\n\n",
              Pct(av.read_availability).c_str(),
              Pct(av.write_availability).c_str(),
              Num(av.max_staleness / 1000.0, 2).c_str());

  std::vector<int> fwidths = {52, 6, 12, 12, 12, 12};
  PrintRow({"fault", "ivals", "down(ms)", "stale(ms)", "detect(ms)",
            "repair(ms)"},
           fwidths);
  PrintRule(fwidths);
  for (const FaultAttributionSummary& f : av.per_fault) {
    PrintRow({f.label, Int(f.intervals), Num(f.downtime / 1000.0, 1),
              Num(f.stale_time / 1000.0, 1),
              Num(f.max_detect_latency / 1000.0, 1),
              Num(f.max_repair_latency / 1000.0, 1)},
             fwidths);
  }
  if (av.unattributed > 0) {
    std::printf("  (%d intervals matched no fault window)\n", av.unattributed);
  }

  PrintJsonLine("{\"config\":\"availability\",\"scenario\":\"" +
                scenario_name + "\",\"workload\":\"" + workload_name +
                "\",\"control\":\"" + control_name +
                "\",\"seed\":" + std::to_string(opt.seed) + "," +
                av.SummaryJson() +
                ",\"ok\":" + (report.ok() ? "true" : "false") + "}");

  if (!out_file.empty()) {
    std::ofstream out(out_file);
    out << "{\"cell\":\"" << scenario_name << "/" << workload_name << "/"
        << control_name << "\",\"availability\":" << av.ToJson()
        << ",\"timelines\":" << tl->ToJson() << "}\n";
    std::fprintf(stderr, "full report written to %s\n", out_file.c_str());
  }

  if (!report.ok()) {
    std::fprintf(stderr, "\nFAIL: %s\n", report.failure_detail.c_str());
    return 1;
  }
  std::printf("\nall invariants held\n");
  return 0;
}

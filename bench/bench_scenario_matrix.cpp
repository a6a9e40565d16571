// Scenario torture grid: every {fault scenario x workload profile x
// control option x seed} cell runs a full ScenarioRunner cell — faults
// compiled onto the event queue, shaped arrivals, then FIFO, the
// configured serializability property, mutual consistency, and the
// recovery audit checked at the end. One BENCH_JSON line per cell.
//
// Cells are independent simulations, so the harness fans them out across
// --threads workers; results are printed in grid order, making the output
// byte-identical at any thread count (verified by determinism_test).
//
// Every cell runs with timelines + the availability tracker + the flight
// recorder on, so each BENCH_JSON line also carries read/write
// availability, max staleness, and the per-fault blame summaries.
//
// Flags (beyond the harness's --threads / --seeds):
//   --scenarios=a,b,c    fault scenarios (default: the whole library)
//   --workloads=a,b      workload profiles (default: steady_uniform,
//                        flash_hotkey)
//   --controls=a,b       fragmentwise | acyclic | quorum | paxos
//                        (default: all four). quorum = kQuorum control
//                        with majority R/W quorums and a quarter of the
//                        traffic as assembled quorum reads; paxos =
//                        fragmentwise control with every update committed
//                        through non-blocking Paxos Commit.
//   --nodes=N            cluster size (default 5)
//   --duration_ms=N      traffic window per cell (default 700)
//   --out_dir=PATH       write availability_reports.jsonl plus one
//                        flight_<cell>.jsonl per failing cell
//   --force_fail=N       mark cell N failed after its checks pass, to
//                        exercise the flight-recorder dump path end-to-end
//   --sim_threads=N      PDES workers per cell (--sim_partitions sets the
//                        node partitions). All BENCH_JSON cell lines are
//                        byte-identical at any --sim_threads; only the
//                        "scenario_matrix_wall" line (wall clock) varies,
//                        and determinism diffs strip it.
//   --verify_serial=1    re-run every cell with one PDES worker and
//                        byte-compare its JSON and fingerprints.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/cli.h"
#include "scenario/library.h"
#include "scenario/runner.h"

using namespace fragdb;
using fragdb_bench::BenchOptions;
using fragdb_bench::Int;
using fragdb_bench::Num;
using fragdb_bench::Pct;
using fragdb_bench::PrintJsonLine;
using fragdb_bench::PrintRow;
using fragdb_bench::PrintRule;

namespace {

/// Everything a --controls entry configures: the control option plus the
/// commit protocol and quorum shape that go with it.
struct ControlSpec {
  ControlOption control = ControlOption::kFragmentwise;
  MoveProtocol move = MoveProtocol::kForbidden;
  int read_quorum = 0;   // 0 = majority default (quorum cells only)
  int write_quorum = 0;  // 0 = majority default (quorum cells only)
  double read_only_fraction = 0.0;
};

struct Cell {
  std::string scenario;
  std::string workload;
  std::string control_name;
  ControlSpec spec;
  uint64_t seed = 1;
  bool force_fail = false;
};

struct CellResult {
  ScenarioCellReport report;
  std::string json;
  /// {"cell":"<tag>","report":{...}} — one line of the artifact file.
  std::string availability_json;
  /// --verify_serial found the single-threaded re-run diverging.
  bool verify_mismatch = false;
};

double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string CellTag(const Cell& cell) {
  return cell.scenario + "/" + cell.workload + "/" + cell.control_name +
         "/s" + std::to_string(cell.seed);
}

/// The tag with '/' flattened, usable as a file name.
std::string CellFileTag(const Cell& cell) {
  std::string tag = CellTag(cell);
  for (char& c : tag) {
    if (c == '/') c = '_';
  }
  return tag;
}

CellResult RunCellOnce(const Cell& cell, int nodes, SimTime duration,
                       const EngineConfig& engine) {
  Result<Scenario> fault = NamedScenario(cell.scenario);
  Result<Scenario> load = NamedScenario(cell.workload);
  if (!fault.ok() || !load.ok()) {
    std::fprintf(stderr, "unknown cell %s\n", CellTag(cell).c_str());
    std::exit(2);
  }
  Scenario merged = *fault;
  merged.Merge(*load);
  merged.name = cell.scenario;

  ScenarioRunOptions opt;
  opt.nodes = nodes;
  opt.duration = duration;
  opt.seed = cell.seed;
  opt.control = cell.spec.control;
  opt.move_protocol = cell.spec.move;
  opt.read_quorum = cell.spec.read_quorum;
  opt.write_quorum = cell.spec.write_quorum;
  opt.read_only_fraction = cell.spec.read_only_fraction;
  opt.engine = engine;
  // Timelines + tracker give every cell line its availability summary; the
  // flight recorder's ring is dumped if the cell fails any check.
  opt.observability.timelines = true;
  opt.observability.flight_recorder = true;
  opt.force_verify_failure = cell.force_fail;
  ScenarioRunner runner(std::move(merged), opt);
  Status started = runner.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cell %s failed to start: %s\n",
                 CellTag(cell).c_str(), started.ToString().c_str());
    std::exit(2);
  }

  CellResult out;
  out.report = runner.Run();
  const ScenarioCellReport& r = out.report;
  const WorkloadMetrics& m = r.metrics;
  std::ostringstream os;
  os << "{\"config\":\"scenario_matrix\""
     << ",\"scenario\":\"" << cell.scenario << "\""
     << ",\"workload\":\"" << cell.workload << "\""
     << ",\"control\":\"" << cell.control_name << "\""
     << ",\"seed\":" << cell.seed << ",\"submitted\":" << m.submitted
     << ",\"committed\":" << m.committed << ",\"declined\":" << m.declined
     << ",\"unavailable\":" << m.unavailable
     << ",\"availability\":" << m.Availability()
     << ",\"mean_commit_latency_us\":" << m.MeanCommitLatency()
     << ",\"p95_us\":" << m.latency_histogram.Percentile(0.95)
     << ",\"messages_sent\":" << r.net.messages_sent
     << ",\"messages_dropped\":" << r.net.messages_dropped
     << ",\"fifo_deliveries\":" << r.fifo_deliveries
     << ",\"crashes\":" << r.faults.crashes
     << ",\"revives_completed\":" << r.revives_completed
     << ",\"fifo_ok\":" << (r.fifo_ok ? "true" : "false")
     << ",\"property_ok\":" << (r.property_ok ? "true" : "false")
     << ",\"fragmentwise_ok\":" << (r.fragmentwise_ok ? "true" : "false")
     << ",\"consistent_ok\":" << (r.consistent_ok ? "true" : "false")
     << ",\"recovery_ok\":" << (r.recovery_ok ? "true" : "false")
     << ",\"timeline_ok\":" << (r.timeline_ok ? "true" : "false")
     << ",\"quorum_ok\":" << (r.quorum_ok ? "true" : "false")
     << ",\"paxos_ok\":" << (r.paxos_ok ? "true" : "false")
     << ",\"forced_failure\":" << (r.forced_failure ? "true" : "false")
     << "," << r.availability.SummaryJson()
     << ",\"ok\":" << (r.ok() ? "true" : "false") << "}";
  out.json = os.str();
  out.availability_json = "{\"cell\":\"" + CellTag(cell) + "\",\"report\":" +
                          r.availability.ToJson() + "}";
  return out;
}

CellResult RunCell(const Cell& cell, int nodes, SimTime duration,
                   const EngineConfig& engine, bool verify_serial) {
  CellResult out = RunCellOnce(cell, nodes, duration, engine);
  if (verify_serial) {
    EngineConfig reference = engine;
    reference.threads = 1;
    CellResult ref = RunCellOnce(cell, nodes, duration, reference);
    if (ref.json != out.json ||
        ref.report.timeline_fingerprint != out.report.timeline_fingerprint ||
        ref.report.availability_fingerprint !=
            out.report.availability_fingerprint) {
      out.verify_mismatch = true;
      std::fprintf(stderr,
                   "VERIFY MISMATCH %s: %d-thread run diverges from the "
                   "single-threaded reference\n",
                   CellTag(cell).c_str(), engine.threads);
    }
  }
  return out;
}

ControlSpec ControlByName(const std::string& name) {
  if (name == "fragmentwise") return {};
  if (name == "acyclic") return {ControlOption::kAcyclicReads};
  if (name == "quorum") {
    // Majority read and write quorums (R+W > N at any cluster size), a
    // quarter of the traffic served as assembled quorum reads.
    return {ControlOption::kQuorum, MoveProtocol::kForbidden, 0, 0, 0.25};
  }
  if (name == "paxos") {
    return {ControlOption::kFragmentwise, MoveProtocol::kPaxosCommit};
  }
  std::fprintf(
      stderr,
      "unknown --controls entry '%s' (fragmentwise|acyclic|quorum|paxos)\n",
      name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = fragdb_bench::ParseBenchOptions(&argc, argv);

  std::vector<std::string> scenarios =
      cli::SplitCommaList(opts.ExtraOr("scenarios", ""));
  if (scenarios.empty()) scenarios = ScenarioNames();
  std::vector<std::string> workloads =
      cli::SplitCommaList(opts.ExtraOr("workloads", ""));
  if (workloads.empty()) workloads = {"steady_uniform", "flash_hotkey"};
  std::vector<std::string> control_names =
      cli::SplitCommaList(opts.ExtraOr("controls", ""));
  if (control_names.empty()) {
    control_names = {"fragmentwise", "acyclic", "quorum", "paxos"};
  }

  int nodes = std::atoi(opts.ExtraOr("nodes", "5").c_str());
  SimTime duration = Millis(std::atoi(opts.ExtraOr("duration_ms", "700").c_str()));
  if (nodes < 2 || duration <= 0) {
    std::fprintf(stderr, "bad --nodes or --duration_ms\n");
    return 2;
  }
  std::vector<uint64_t> seeds = opts.SeedsOr(1);
  std::string out_dir = opts.ExtraOr("out_dir", "");
  int force_fail = std::atoi(opts.ExtraOr("force_fail", "-1").c_str());

  EngineConfig engine;
  engine.threads = opts.sim_threads;
  engine.partitions = opts.sim_partitions;
  bool verify_serial = opts.ExtraOr("verify_serial", "0") != "0";

  std::vector<Cell> cells;
  for (const std::string& s : scenarios) {
    for (const std::string& w : workloads) {
      for (const std::string& c : control_names) {
        for (uint64_t seed : seeds) {
          cells.push_back(Cell{s, w, c, ControlByName(c), seed, false});
        }
      }
    }
  }
  if (force_fail >= 0) {
    if (static_cast<size_t>(force_fail) >= cells.size()) {
      std::fprintf(stderr, "--force_fail=%d out of range (%zu cells)\n",
                   force_fail, cells.size());
      return 2;
    }
    cells[force_fail].force_fail = true;
  }

  // Thread count goes to stderr: stdout is byte-identical at any --threads
  // and any --sim_threads.
  std::fprintf(stderr, "running %zu cells on %d threads (sim_threads=%d)\n",
               cells.size(), opts.threads, opts.sim_threads);
  std::printf("scenario matrix: %zu cells (%zu scenarios x %zu workloads"
              " x %zu controls x %zu seeds)\n\n",
              cells.size(), scenarios.size(), workloads.size(),
              control_names.size(), seeds.size());

  auto t0 = std::chrono::steady_clock::now();
  std::vector<CellResult> results =
      fragdb_bench::RunIndexed<Cell, CellResult>(
          cells,
          [&](const Cell& cell) {
            return RunCell(cell, nodes, duration, engine, verify_serial);
          },
          opts.threads);
  double wall_ms = WallSince(t0);

  std::vector<int> widths = {44, 8, 8, 7, 10, 9, 7};
  PrintRow({"cell", "subm", "commit", "avail", "p95(ms)", "dropped", "ok"},
           widths);
  PrintRule(widths);
  size_t failed = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const ScenarioCellReport& r = results[i].report;
    const WorkloadMetrics& m = r.metrics;
    PrintRow({CellTag(cells[i]), Int(m.submitted), Int(m.committed),
              Pct(m.Availability()),
              Num(m.latency_histogram.Percentile(0.95) / 1000.0, 1),
              Int(r.net.messages_dropped), r.ok() ? "yes" : "NO"},
             widths);
    if (!r.ok()) {
      ++failed;
      std::printf("    ^ %s\n", r.failure_detail.c_str());
    }
  }
  std::printf("\n");
  for (const CellResult& res : results) PrintJsonLine(res.json);

  // Wall clock under its own config name so determinism diffs (which
  // byte-compare cell lines across --sim_threads) can strip it.
  {
    char wall_json[256];
    std::snprintf(wall_json, sizeof(wall_json),
                  "{\"config\":\"scenario_matrix_wall\","
                  "\"threads\":%d,\"sim_threads\":%d,\"sim_partitions\":%d,"
                  "\"cells\":%zu,\"wall_ms\":%.1f}",
                  opts.threads, opts.sim_threads,
                  opts.sim_partitions, cells.size(), wall_ms);
    PrintJsonLine(wall_json);
  }

  size_t mismatches = 0;
  for (const CellResult& res : results) {
    if (res.verify_mismatch) ++mismatches;
  }
  if (mismatches != 0) {
    std::printf("\n%zu/%zu cells DIVERGED from the single-threaded "
                "reference\n", mismatches, cells.size());
    return 1;
  }

  if (!out_dir.empty()) {
    // Written in grid order from this thread, after the parallel phase:
    // the artifacts are byte-identical at any --threads too.
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --out_dir %s: %s\n",
                   out_dir.c_str(), ec.message().c_str());
      return 2;
    }
    std::ofstream reports(out_dir + "/availability_reports.jsonl");
    for (const CellResult& res : results) {
      reports << res.availability_json << "\n";
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      if (results[i].report.flight_dump.empty()) continue;
      std::ofstream dump(out_dir + "/flight_" + CellFileTag(cells[i]) +
                         ".jsonl");
      dump << results[i].report.flight_dump;
    }
    std::fprintf(stderr, "availability reports written to %s\n",
                 out_dir.c_str());
  }

  if (failed != 0) {
    std::printf("\n%zu/%zu cells FAILED an invariant\n", failed, cells.size());
    return 1;
  }
  std::printf("\nall %zu cells passed every invariant\n", cells.size());
  return 0;
}

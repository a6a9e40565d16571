// fragbench: runs one FragDB benchmark workload and prints its metrics.
//
//   fragbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 repeats untraced runs of the workload for --seconds and prints
// the end-to-end metrics. --trace 1 alternates untraced and traced runs,
// prints the per-layer metrics and the tracing overhead, and writes the
// first traced run's spans to .bench_out/. Every run is audited; any
// failed check, or any simulated metric that differs between runs of the
// same seed (repetitions, traced vs untraced, 1 vs N workers), prints
// `"correct": false` with no metrics and exits 1. The last line of stdout
// is always one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace fragbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Value of the named metric, or 0 when absent.
double Find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += JsonString(metrics[i].name) + ": {\"value\": " +
            Number(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// The simulated metrics that are end-to-end; every other simulated metric
/// belongs to a layer.
bool EndToEnd(const std::string& name) {
  return name == "availability" || name == "commit_p50_ms" ||
         name == "commit_p99_ms" || name == "read_p50_ms" ||
         name == "read_p99_ms" || name == "replication_lag_p50_ms" ||
         name == "replication_lag_p99_ms";
}

void WriteSpans(const std::string& path, const Args& args,
                const RunResult& run) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "{\"workload\": " << JsonString(args.workload)
      << ", \"seed\": " << args.seed << ", \"workers\": " << run.workers
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build\": " << JsonString(BuildType()) << "}\n";
  for (size_t i = 0; i < run.spans.size(); ++i) {
    const Span& s = run.spans[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"clock\": \"" << (s.sim_clock ? "sim_ms" : "wall_s")
        << "\", \"start\": " << Number(s.start)
        << ", \"end\": " << Number(s.end) << ", \"parent\": " << s.parent;
    if (s.txn >= 0) out << ", \"txn\": " << s.txn;
    out << "}\n";
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fragbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "fragbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (std::string(BuildType()) != "Release") {
    std::fprintf(stderr, "fragbench: refusing to time a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n", BuildType());
    return 2;
  }
  RunOptions options;
  options.seed = args.seed;
  const int workers = EffectiveWorkers(*workload, options);
  std::printf("# fragbench workload=%s seed=%llu trace=%d nproc=%u "
              "workers=%d build=%s (default seed %llu, held-out seed %llu)\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), workers, BuildType(),
              static_cast<unsigned long long>(kDefaultSeed),
              static_cast<unsigned long long>(kHeldOutSeed));

  bool correct = true;
  std::string failure;
  uint64_t attempted = 0, failed = 0;
  RunResult first;
  RunResult first_traced;
  std::vector<double> untraced_s, setups;
  std::vector<WallPhases> traced;
  // Audits every run and holds its simulated metrics to the first run's.
  auto run = [&](const RunOptions& o, const char* what) {
    RunResult r = RunWorkload(*workload, o);
    attempted += r.attempted;
    failed += r.failed;
    if (!r.correct && correct) {
      correct = false;
      failure = r.failure;
    } else if (correct && !first.sim.empty() &&
               r.SimFingerprint() != first.SimFingerprint()) {
      correct = false;
      failure = std::string("simulated metrics differ: ") + what;
    }
    std::fprintf(stderr,
                 "# %s: run %.4fs drain %.4fs audit %.4fs report %.4fs\n", what,
                 r.wall.run, r.wall.drain, r.wall.audit, r.wall.report);
    return r;
  };

  // One untimed warm-up run lets the allocator and caches settle; its
  // high-water mark is the peak RSS of one run (later runs only add
  // allocator fragmentation, which would tie the figure to run count).
  first = run(options, "warm-up run");
  const double peak_rss_mb = PeakRssMb();
  const Clock::time_point start = Clock::now();
  for (int rep = 0; correct; ++rep) {
    const bool enough = untraced_s.size() >= 3 &&
                        (!args.trace || traced.size() >= 2);
    if (enough && Seconds(start) >= args.seconds) break;
    // Set-up samples are spread over the whole measuring window, like the
    // runs, so both figures see the same machine.
    for (int i = 0; i < 5; ++i) {
      setups.push_back(MeasureSetup(*workload, args.seed));
    }
    options.traced = args.trace && rep % 2 == 1;
    RunResult r = run(options, options.traced ? "traced run" : "untraced run");
    if (options.traced) {
      traced.push_back(r.wall);
      if (first_traced.spans.empty()) first_traced = std::move(r);
    } else {
      untraced_s.push_back(r.wall.measured());
    }
  }
  if (args.trace && correct && workers > 1) {
    // PDES output must not depend on the worker count.
    options.traced = false;
    options.workers = 1;
    run(options, "1-worker run");
  }
  std::printf("# runs: untraced=%zu traced=%zu attempted/run=%llu "
              "commits/run=%.0f reads/run=%.0f\n",
              untraced_s.size(), traced.size(),
              static_cast<unsigned long long>(first.attempted),
              Find(first.sim, "core.commits"), Find(first.sim, "core.reads"));
  if (!correct) {
    std::fprintf(stderr, "fragbench: %s: check failed: %s\n",
                 workload->name.c_str(), failure.c_str());
    PrintResult(false, attempted, failed, {});
    return 1;
  }

  std::vector<Metric> out;
  if (!args.trace) {
    out.push_back({"setup_s", "s", Median(setups)});
    // Every run of a seed submits the same transactions.
    out.push_back({"txn_per_s", "1/s",
                   static_cast<double>(first.attempted) / Median(untraced_s)});
    out.push_back({"peak_rss_mb", "MB", peak_rss_mb});
    for (const Metric& m : first.sim) {
      if (EndToEnd(m.name)) out.push_back(m);
    }
  } else {
    auto phase = [&](double WallPhases::*field) {
      std::vector<double> v;
      for (const WallPhases& p : traced) v.push_back(p.*field);
      return Median(v);
    };
    std::vector<double> traced_s;
    for (const WallPhases& p : traced) traced_s.push_back(p.measured());
    const double events = Find(first.sim, "sim.events");
    const double busy = phase(&WallPhases::run) + phase(&WallPhases::drain);
    out.push_back({"scenario.apply_s", "s", phase(&WallPhases::apply)});
    out.push_back({"sim.run_s", "s", phase(&WallPhases::run)});
    out.push_back({"sim.drain_s", "s", phase(&WallPhases::drain)});
    out.push_back(
        {"sim.ns_per_event", "ns", events > 0 ? busy * 1e9 / events : 0.0});
    out.push_back({"verify.audit_s", "s", phase(&WallPhases::audit)});
    out.push_back({"obs.report_s", "s", phase(&WallPhases::report)});
    out.push_back({"trace.traced_s", "s", Median(traced_s)});
    out.push_back({"trace.untraced_s", "s", Median(untraced_s)});
    out.push_back({"trace.overhead_ratio", "ratio",
                   Median(traced_s) / Median(untraced_s)});
    for (const Metric& m : first.sim) {
      if (!EndToEnd(m.name)) out.push_back(m);
    }
    for (const Metric& m : first_traced.traced) out.push_back(m);
    const std::string path = ".bench_out/spans-" + workload->name + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    WriteSpans(path, args, first_traced);
    std::printf("# spans: %zu written to %s\n", first_traced.spans.size(),
                path.c_str());
  }
  PrintResult(true, attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace fragbench

int main(int argc, char** argv) { return fragbench::Main(argc, argv); }

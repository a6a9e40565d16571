#ifndef FRAGDB_BENCH_BENCH_HARNESS_H_
#define FRAGDB_BENCH_BENCH_HARNESS_H_

// Parallel bench harness: runs independent (seed, config) simulation
// instances across a pool of worker threads and returns their results in
// configuration order, so aggregate output is byte-identical regardless
// of thread count or scheduling (see docs/PERFORMANCE.md).
//
// Each job must be self-contained: it builds its own engine / Cluster
// from its (seed, config) inputs and touches no shared mutable state.
// An instance runs one PDES worker unless its bench passes --sim_threads
// on; the harness exploits the embarrassing parallelism *between*
// instances.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace fragdb_bench {

/// Shared CLI options for the bench drivers. All drivers accept
/// `--threads=N` (worker threads for the harness; 0 = hardware
/// concurrency), `--seeds=a,b,c` (comma-separated RNG seeds; each bench
/// defines its own default), `--sim_threads=N` (worker threads *inside*
/// one simulation, for drivers built on the PDES scheduler; 0 = hardware
/// concurrency) and `--sim_partitions=N` (partition count for the PDES
/// plan; 0 = the driver's default). Unrecognised `--key=value` flags are
/// collected in `extra` for driver-specific handling; anything else is
/// left in place for downstream parsers (e.g. google-benchmark).
struct BenchOptions {
  int threads = 1;
  int sim_threads = 1;
  int sim_partitions = 0;
  std::vector<uint64_t> seeds;
  std::vector<std::pair<std::string, std::string>> extra;

  /// First seed, or `fallback` when --seeds was not given.
  uint64_t SeedOr(uint64_t fallback) const {
    return seeds.empty() ? fallback : seeds.front();
  }
  /// All seeds, or {fallback} when --seeds was not given.
  std::vector<uint64_t> SeedsOr(uint64_t fallback) const {
    return seeds.empty() ? std::vector<uint64_t>{fallback} : seeds;
  }
  /// Value of an extra --key=value flag, or `fallback` if absent.
  std::string ExtraOr(const std::string& key, const std::string& fallback) const;
};

/// Parses --threads / --seeds (and collects other --key=value pairs) out
/// of argv, compacting argv in place so remaining arguments survive for
/// downstream parsers. Exits with a message on malformed values.
BenchOptions ParseBenchOptions(int* argc, char** argv);

/// Version of the BENCH_JSON line format. Bump when a field changes
/// meaning or disappears; adding fields is backward-compatible.
///   v1: implicit (no schema_version field)
///   v2: schema_version stamped into every line; scenario_matrix cells
///       carry availability/staleness/attribution fields
inline constexpr int kBenchJsonSchemaVersion = 2;

/// Emits one machine-readable result line. The "BENCH_JSON " prefix lets
/// tooling grep structured results out of the human-readable tables; a
/// "schema_version" field is stamped into the object just after its
/// opening brace, so every driver's lines are versioned uniformly.
void PrintJsonLine(const std::string& json);

/// Runs `jobs` on `threads` workers (1 = run inline on the caller).
/// Jobs are claimed in index order from a shared counter; the function
/// returns only when every job has finished. Exceptions must not escape
/// a job (the simulator aborts on internal errors instead).
void RunJobs(const std::vector<std::function<void()>>& jobs, int threads);

/// Maps `inputs` through `fn` on the harness and returns results in
/// input order. `fn` must be safe to call concurrently on distinct
/// inputs; each result slot is written by exactly one worker.
template <typename In, typename Out>
std::vector<Out> RunIndexed(const std::vector<In>& inputs,
                            const std::function<Out(const In&)>& fn,
                            int threads) {
  std::vector<Out> results(inputs.size());
  std::vector<std::function<void()>> jobs;
  jobs.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    jobs.push_back([&, i] { results[i] = fn(inputs[i]); });
  }
  RunJobs(jobs, threads);
  return results;
}

// --- Table formatting -----------------------------------------------------
// Fixed-width text-table helpers shared by the experiment binaries
// (formerly bench_util.h, folded in here since every driver already
// depends on the harness).

/// Prints a fixed-width row: columns are padded to `widths`.
inline void PrintRow(const std::vector<std::string>& cells,
                     const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    int w = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", w, cells[i].c_str());
  }
  std::printf("\n");
}

inline void PrintRule(const std::vector<int>& widths) {
  int total = 0;
  for (int w : widths) total += w;
  for (int i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
}

inline std::string Pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

inline std::string Num(double v, int decimals = 1) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string Int(long long v) { return std::to_string(v); }

}  // namespace fragdb_bench

#endif  // FRAGDB_BENCH_BENCH_HARNESS_H_

// Pins the benchmark's determinism contract: for every workload, the
// simulated metrics of an untraced run at 1 PDES worker equal those of a
// traced run at 4 workers, byte for byte, and both runs pass every check.
// Tracing therefore cannot perturb the simulation, and the worker count
// changes only the wall clock.

#include <cstdio>
#include <string>

#include "bench.h"

int main() {
  int failures = 0;
  for (const fragbench::Workload& w : fragbench::Workloads()) {
    fragbench::RunOptions serial;
    serial.workers = 1;
    fragbench::RunOptions traced;
    traced.workers = 4;
    traced.traced = true;
    const fragbench::RunResult a = fragbench::RunWorkload(w, serial);
    const fragbench::RunResult b = fragbench::RunWorkload(w, traced);
    const bool same = a.SimFingerprint() == b.SimFingerprint();
    const bool ok = a.correct && b.correct && same && !b.spans.empty() &&
                    !b.traced.empty();
    const std::string detail = a.failure + b.failure;
    std::printf("%-16s %s%s %s\n", w.name.c_str(), ok ? "ok" : "FAIL",
                same ? "" : " (simulated metrics differ)", detail.c_str());
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

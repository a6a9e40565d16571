// E6 — the §4.3 airline example: fragmentwise serializability in practice.
//
// Customers enter reservation requests at their own nodes regardless of
// the network; flight agents periodically grant them centrally. We sweep
// partition pressure and compare §4.3 (fragmentwise) against §4.1 (read
// locks, globally serializable) on:
//   * request-intake availability,
//   * overbooked flights (must be zero under BOTH — "no overbooking" is a
//     single-fragment predicate),
//   * whether the run was globally serializable (the §4.3 runs lose this
//     and nothing else).

#include <cstdio>
#include <cstdlib>

#include "bench_harness.h"
#include "common/rng.h"
#include "verify/checkers.h"
#include "workload/airline.h"

using namespace fragdb;
using namespace fragdb_bench;

namespace {

struct RowResult {
  double intake_avail = 0;
  double scan_avail = 0;
  long long overbooked = 0;
  bool globally_sr = false;
  bool fragmentwise = false;
  bool consistent = false;
  long long granted_total = 0;
};

RowResult RunOnce(ControlOption control, double partition_fraction,
                  uint64_t seed) {
  AirlineWorkload::Options opt;
  opt.customers = 4;
  opt.flights = 2;
  opt.seats_per_flight = 60;  // capacity is not the limiter here
  opt.control = control;
  // The airline will not hold a counter line for more than 50ms.
  opt.remote_lock_timeout = Millis(50);
  AirlineWorkload air(opt);
  if (!air.Start().ok()) std::abort();
  Cluster& cluster = air.cluster();
  Rng rng(seed);
  (void)rng;

  const SimTime kDuration = Seconds(2);
  const SimTime kCycle = Millis(200);
  if (partition_fraction > 0) {
    // Structured splits: each side keeps some customers and one flight
    // agent — the §4.3 anomaly pattern (a flight agent scans while blind
    // to half the request rows). Nodes: customers 0..3, flights 4..5.
    const std::vector<std::vector<std::vector<NodeId>>> kSplits = {
        {{0, 1, 4}, {2, 3, 5}},
        {{0, 2, 5}, {1, 3, 4}},
        {{1, 3, 5}, {0, 2, 4}},
    };
    int split_index = 0;
    for (SimTime t = 0; t < kDuration; t += kCycle) {
      SimTime cut_at =
          t + static_cast<SimTime>(kCycle * (1.0 - partition_fraction));
      const auto& split = kSplits[split_index++ % kSplits.size()];
      cluster.engine()->AtGlobal(cut_at, [&cluster, split] {
        (void)cluster.Partition(split);
      });
      cluster.engine()->AtGlobal(t + kCycle - 1,
                                 [&cluster] { cluster.HealAll(); });
    }
  }
  // Each customer requests one seat on a rotating flight every ~80ms;
  // flight agents scan every 100ms.
  int request_count = 0;
  for (SimTime t = Millis(10); t < kDuration; t += Millis(80)) {
    for (int c = 0; c < opt.customers; ++c) {
      int flight = static_cast<int>((t / Millis(80) + c) % opt.flights);
      cluster.engine()->AtNode(air.customer_node(c), t + c, [&air, c, flight] {
        air.Request(c, flight, 1, nullptr);
      });
      ++request_count;
    }
  }
  (void)request_count;
  for (SimTime t = Millis(50); t < kDuration; t += Millis(100)) {
    // Scans touch every flight's home: a global event.
    cluster.engine()->AtGlobal(t, [&air] { air.RunAllScans(nullptr); });
  }
  cluster.RunUntil(kDuration);
  cluster.HealAll();
  cluster.RunToQuiescence();
  air.RunAllScans(nullptr);
  cluster.RunToQuiescence();

  RowResult row;
  row.intake_avail = air.metrics().Availability();
  row.scan_avail = air.scan_metrics().Availability();
  row.overbooked = air.AnyOverbooking() ? 1 : 0;
  row.globally_sr = CheckGlobalSerializability(cluster.history()).ok;
  row.fragmentwise = CheckFragmentwiseSerializability(
                         cluster.history(),
                         cluster.catalog().fragment_count())
                         .ok;
  row.consistent = CheckMutualConsistency(cluster.Replicas()).ok;
  for (int f = 0; f < opt.flights; ++f) row.granted_total += air.TotalGranted(f);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // Uniform bench CLI: --threads / --seeds are accepted everywhere;
  // this driver runs a single deterministic scenario, so only the
  // first seed (if given) is meaningful.
  BenchOptions opts = ParseBenchOptions(&argc, argv);
  std::printf(
      "E6 / §4.3 — airline reservations: fragmentwise vs global SR\n"
      "4 customers, 2 flights; request intake and grants under partitions\n\n");
  std::vector<int> widths = {18, 16, 14, 13, 10, 12, 14, 12};
  PrintRow({"option", "partition frac", "intake avail", "scan avail",
            "granted", "overbooked", "globally SR", "consistent"},
           widths);
  PrintRule(widths);
  for (double frac : {0.0, 0.3, 0.6}) {
    for (ControlOption control :
         {ControlOption::kFragmentwise, ControlOption::kReadLocks}) {
      RowResult row = RunOnce(control, frac, opts.SeedOr(11));
      PrintRow({control == ControlOption::kFragmentwise ? "4.3 fragmentwise"
                                                        : "4.1 read-locks",
                Pct(frac), Pct(row.intake_avail), Pct(row.scan_avail),
                Int(row.granted_total), row.overbooked ? "YES" : "no",
                row.globally_sr ? "yes" : "no",
                row.consistent ? "yes" : "NO"},
               widths);
    }
  }
  std::printf(
      "\nexpected shape: overbooking never happens under either option\n"
      "(single-fragment predicate). Request intake stays at 100%% under\n"
      "both (customers write only their own row). The difference is the\n"
      "grant side: §4.1 flight scans block/time out when partitioned from\n"
      "a customer fragment, while §4.3 scans always run — at the cost of\n"
      "global serializability, which some §4.3 runs lose (fragmentwise\n"
      "serializability and consistency never break).\n");
  return 0;
}

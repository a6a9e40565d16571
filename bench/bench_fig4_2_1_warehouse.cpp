// E4 — Figure 4.2.1: the wholesale-company design.
//
// The star read-access graph (C reads W1..Wk) is elementarily acyclic, so
// §4.2 gives global serializability with no read synchronization at all:
// warehouses stay 100% available through partitions. Under §4.1
// (read locks) the same design pays: the central office's plan
// transactions block whenever a warehouse is unreachable.
//
// Sweep the fraction of time the network spends partitioned; report sales
// availability, central-plan availability, and the serializability check.

#include <cstdio>
#include <cstdlib>

#include "bench_harness.h"
#include "common/rng.h"
#include "verify/checkers.h"
#include "workload/warehouse.h"

using namespace fragdb;
using namespace fragdb_bench;

namespace {

struct RowResult {
  double sales_avail = 0;
  double plan_avail = 0;
  bool serializable = false;
  bool consistent = false;
};

RowResult RunOnce(ControlOption control, double partition_fraction,
                  uint64_t seed) {
  WarehouseWorkload::Options opt;
  opt.warehouses = 4;
  opt.products = 2;
  opt.initial_stock = 1'000'000;  // sales never decline for lack of stock
  opt.control = control;
  // The office will not block on a dead line for more than 50ms: blocking
  // IS the availability loss the paper charges §4.1 with.
  opt.remote_lock_timeout = Millis(50);
  WarehouseWorkload wh(opt);
  if (!wh.Start().ok()) std::abort();
  Cluster& cluster = wh.cluster();
  Rng rng(seed);

  uint64_t sales_submitted = 0, sales_served = 0;
  uint64_t plans_submitted = 0, plans_served = 0;

  const SimTime kDuration = Seconds(2);
  const SimTime kCycle = Millis(200);
  SimTime partition_at = static_cast<SimTime>(kCycle *
                                              (1.0 - partition_fraction));
  for (SimTime t = 0; t < kDuration; t += kCycle) {
    if (partition_fraction > 0) {
      cluster.engine()->AtGlobal(t + partition_at, [&cluster, &rng] {
        // Cut a random warehouse (or two) away from the central office.
        std::vector<NodeId> cut, keep{0};
        for (NodeId n = 1; n < cluster.node_count(); ++n) {
          (rng.NextBool(0.5) ? cut : keep).push_back(n);
        }
        if (!cut.empty()) (void)cluster.Partition({keep, cut});
      });
      cluster.engine()->AtGlobal(t + kCycle - 1,
                                 [&cluster] { cluster.HealAll(); });
    }
  }
  // Sales every 15ms at a rotating warehouse; plans every 60ms.
  for (SimTime t = 0; t < kDuration; t += Millis(15)) {
    int w = static_cast<int>((t / Millis(15)) % opt.warehouses);
    cluster.engine()->AtNode(wh.warehouse_node(w), t,
                             [&wh, w, &sales_submitted, &sales_served] {
      ++sales_submitted;
      wh.Sell(w, 0, 1, [&sales_served](const TxnResult& r) {
        if (r.status.ok() || r.status.IsFailedPrecondition()) ++sales_served;
      });
    });
  }
  for (SimTime t = Millis(30); t < kDuration; t += Millis(60)) {
    cluster.engine()->AtNode(wh.central_node(), t,
                             [&wh, &plans_submitted, &plans_served] {
      ++plans_submitted;
      // RunCentralPlan records into workload metrics; count directly.
      wh.RunCentralPlan(nullptr);
      (void)plans_served;
    });
  }
  cluster.RunUntil(kDuration);
  cluster.HealAll();
  cluster.RunToQuiescence();

  RowResult row;
  row.sales_avail =
      sales_submitted ? double(sales_served) / double(sales_submitted) : 1;
  // Plan availability comes from the workload metrics: plans are the only
  // metric-recorded transactions besides sales; subtract sales counts.
  const WorkloadMetrics& m = wh.metrics();
  uint64_t plan_total = m.submitted - sales_submitted;
  uint64_t plan_ok = m.served() - sales_served;
  row.plan_avail = plan_total ? double(plan_ok) / double(plan_total) : 1;
  row.serializable = CheckGlobalSerializability(cluster.history()).ok;
  row.consistent = CheckMutualConsistency(cluster.Replicas()).ok;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // Uniform bench CLI: --threads / --seeds are accepted everywhere;
  // this driver runs a single deterministic scenario, so only the
  // first seed (if given) is meaningful.
  BenchOptions opts = ParseBenchOptions(&argc, argv);
  std::printf(
      "E4 / Figure 4.2.1 — warehouse design, §4.2 vs §4.1\n"
      "4 warehouses + central office; partition cycles of 200ms\n\n");
  std::vector<int> widths = {22, 16, 16, 16, 14, 12};
  PrintRow({"option", "partition frac", "sales avail", "plan avail",
            "serializable", "consistent"},
           widths);
  PrintRule(widths);
  for (double frac : {0.0, 0.25, 0.5, 0.75}) {
    for (ControlOption control :
         {ControlOption::kAcyclicReads, ControlOption::kReadLocks}) {
      RowResult row = RunOnce(control, frac, opts.SeedOr(7));
      PrintRow({control == ControlOption::kAcyclicReads ? "4.2 acyclic"
                                                        : "4.1 read-locks",
                Pct(frac), Pct(row.sales_avail), Pct(row.plan_avail),
                row.serializable ? "yes" : "NO",
                row.consistent ? "yes" : "NO"},
               widths);
    }
  }
  std::printf(
      "\nexpected shape: both options keep sales at 100%% (warehouses\n"
      "update only their own fragment) and stay globally serializable;\n"
      "§4.1's central plans lose availability as the partition fraction\n"
      "grows, while §4.2's plans always complete (on possibly stale but\n"
      "serializable reads) — the Theorem's payoff.\n");
  return 0;
}

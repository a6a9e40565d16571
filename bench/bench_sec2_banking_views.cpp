// E3 — Section 2: the local view of the balance, and how its discrepancy
// from the authoritative balance grows with partition duration.
//
// "Clearly, in the face of communication delays and partitions, the local
//  view of balance may not correspond exactly to the actual balance. The
//  longer a partition lasts, the greater this discrepancy can become."
//
// One account, central office at node 0, customer at node 1. The customer
// deposits steadily; the central office scans periodically. We sweep the
// partition duration between node 1 and the rest and report the maximum
// divergence between the two sites' local views of the balance, plus the
// time to re-converge after healing.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_harness.h"
#include "verify/checkers.h"
#include "workload/banking.h"

using namespace fragdb;
using namespace fragdb_bench;

namespace {

struct RowResult {
  SimTime partition_len = 0;
  Value max_divergence = 0;     // max |view@0 - view@1| during the run
  Value divergence_at_heal = 0;
  SimTime reconverge_time = 0;  // heal -> identical views
  bool accounting_ok = false;
};

RowResult RunOnce(SimTime partition_len) {
  BankingWorkload::Options opt;
  opt.nodes = 3;
  opt.accounts = 1;
  opt.central_node = 0;
  opt.max_ops_per_account = 256;
  opt.customer_home = [](int) { return 1; };
  BankingWorkload bank(opt);
  if (!bank.Start().ok()) std::abort();
  Cluster& cluster = bank.cluster();

  RowResult row;
  row.partition_len = partition_len;

  // Deposits every 10ms; central scan every 40ms.
  bank.StartPeriodicScan(Millis(40), Seconds(10));
  const SimTime kDepositEvery = Millis(10);
  SimTime t = 0;
  const SimTime kPartitionStart = Millis(100);
  const NodeId home = *cluster.catalog().HomeOf(bank.customer_agent(0));
  for (int i = 0; i < 80; ++i) {
    cluster.engine()->AtNode(home, t,
                             [&bank] { bank.Deposit(0, 10, nullptr); });
    t += kDepositEvery;
  }
  (void)t;
  cluster.engine()->AtGlobal(kPartitionStart, [&cluster] {
    (void)cluster.Partition({{1}, {0, 2}});
  });
  cluster.engine()->AtGlobal(kPartitionStart + partition_len,
                             [&cluster] { cluster.HealAll(); });

  // Sample the divergence every 5ms.
  SimTime heal_at = kPartitionStart + partition_len;
  for (SimTime when = 0; when < Seconds(2); when += Millis(5)) {
    cluster.RunUntil(when);
    Value v0 = bank.LocalBalanceView(0, 0);
    Value v1 = bank.LocalBalanceView(1, 0);
    Value diff = v0 > v1 ? v0 - v1 : v1 - v0;
    row.max_divergence = std::max(row.max_divergence, diff);
    if (when <= heal_at) row.divergence_at_heal = diff;
    if (when > heal_at && row.reconverge_time == 0 && diff == 0) {
      row.reconverge_time = when - heal_at;
    }
  }
  cluster.RunToQuiescence();
  bank.RunCentralScan(nullptr);
  cluster.RunToQuiescence();
  row.accounting_ok = bank.VerifyAccounting().ok() &&
                      CheckMutualConsistency(cluster.Replicas()).ok;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // Uniform bench CLI: --threads / --seeds are accepted everywhere;
  // this driver runs a single deterministic scenario, so only the
  // first seed (if given) is meaningful.
  BenchOptions opts = ParseBenchOptions(&argc, argv);
  (void)opts;
  std::printf(
      "E3 / Section 2 — local-view divergence vs partition duration\n"
      "deposits of $10 every 10ms at node 1; central scan every 40ms\n\n");
  std::vector<int> widths = {18, 18, 20, 20, 14};
  PrintRow({"partition (ms)", "max divergence", "divergence at heal",
            "reconverge (ms)", "accounting"},
           widths);
  PrintRule(widths);
  for (SimTime len : {Millis(0), Millis(50), Millis(100), Millis(200),
                      Millis(400), Millis(800)}) {
    RowResult row = RunOnce(len);
    PrintRow({Int(len / 1000), Int(row.max_divergence),
              Int(row.divergence_at_heal), Int(row.reconverge_time / 1000),
              row.accounting_ok ? "OK" : "BROKEN"},
             widths);
  }
  std::printf(
      "\nexpected shape: divergence grows roughly linearly with partition\n"
      "duration (unpropagated activity accumulates) and collapses to zero\n"
      "shortly after healing; the accounting invariant holds throughout.\n");
  return 0;
}

// Token recovery after a node crash (§4.4.1: "if the token was lost
// because of a failure, it can be reconstituted through an election") —
// and, going beyond the paper's durable-copy assumption, full recovery of
// a node that loses power and forgets everything it had in memory.
//
// Act 1 — the agent's home crash-stops. Under the majority-commit protocol
// every committed update reached a majority of replicas, so a new home
// reconstructs the fragment's stream from any majority and reopens,
// without ever talking to the corpse.
//
// Act 2 — the new home suffers an amnesia crash: replica, lock table and
// stream positions are gone; only stable storage survives. Revival loads
// the last checkpoint, replays the write-ahead log, then closes the gap
// from live peers, and business resumes with the sequence intact.
//
//   ./token_recovery_demo

#include <cstdio>

#include "core/cluster.h"
#include "verify/checkers.h"

using namespace fragdb;

int main() {
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  config.move_protocol = MoveProtocol::kMajorityCommit;
  config.durability.enabled = true;
  config.durability.checkpoint_interval = Millis(10);
  config.observability.tracing = true;
  Cluster cluster(config, Topology::FullMesh(5, Millis(5)));
  FragmentId ledger = cluster.DefineFragment("ledger");
  ObjectId total = *cluster.DefineObject(ledger, "total", 0);
  AgentId owner = cluster.DefineUserAgent("owner");
  (void)cluster.AssignToken(ledger, owner);
  (void)cluster.SetAgentHome(owner, 0);
  if (!cluster.Start().ok()) return 1;

  // Runs the cluster until nothing is left to do, then prints (and
  // clears) the trace the step recorded.
  auto run = [&cluster] {
    cluster.RunToQuiescence();
    for (const TraceEvent& ev : cluster.tracer()->events()) {
      std::printf("  [%6lldus] %-13s %s\n", (long long)ev.at,
                  ev.kind.c_str(), ev.detail.c_str());
    }
    cluster.tracer()->Clear();
  };

  auto add = [&](Value v) {
    TxnSpec spec;
    spec.agent = owner;
    spec.write_fragment = ledger;
    spec.read_set = {total};
    spec.label = "add";
    spec.body = [total, v](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{total, reads[0] + v}};
    };
    cluster.Submit(spec, nullptr);
  };

  std::printf("normal operation (majority commit):\n");
  add(10);
  run();

  std::printf("\nnode 0 (the agent's home) crashes:\n");
  (void)cluster.SetNodeUp(0, false);
  run();
  std::printf("\nthe token is reconstituted at node 3 from a majority:\n");
  (void)cluster.RecoverAgent(owner, 3, nullptr);
  run();

  std::printf("\nbusiness resumes at the new home:\n");
  add(5);
  run();

  std::printf("\nthe crashed node returns and catches up:\n");
  (void)cluster.SetNodeUp(0, true);
  run();

  std::printf(
      "\nnode 3 loses power — replica, locks and stream positions are\n"
      "volatile and vanish; only its stable storage survives:\n");
  (void)cluster.CrashNode(3, CrashMode::kAmnesia);
  run();
  std::printf("  node 3 reads total=%lld while down (replica wiped)\n",
              (long long)cluster.ReadAt(3, total));

  std::printf("\npower returns; checkpoint + WAL replay + peer catch-up:\n");
  (void)cluster.ReviveNode(3, [](const RecoveryStats& s) {
    std::printf(
        "  recovered in %lldus: checkpoint %s, %lld wal records replayed, "
        "%lld quasis from %d/%d peers\n",
        (long long)s.Duration(), s.checkpoint_loaded ? "loaded" : "absent",
        (long long)s.wal_records_replayed, (long long)s.peer_quasis_fetched,
        s.peers_replied, s.peers_queried);
  });
  run();

  std::printf("\nbusiness resumes at the recovered home:\n");
  add(2);
  run();

  for (NodeId n = 0; n < 5; ++n) {
    std::printf("node %d: total=%lld\n", n, (long long)cluster.ReadAt(n, total));
  }
  CheckReport consistent = CheckMutualConsistency(cluster.Replicas());
  std::printf("mutually consistent: %s\n", consistent.ok ? "yes" : "NO");
  return consistent.ok && cluster.ReadAt(0, total) == 17 ? 0 : 1;
}

// E7 — §4.4: the four moving-agent protocols compared.
//
// Scenario (repeated per protocol, identical schedule): an agent's last
// update is trapped at the old home by a partition; the agent moves to the
// far side, keeps issuing updates, and the partition eventually heals.
// One more row runs §4.4.1 token recovery instead: the home crash-stops
// with an update in flight, the token is reconstituted at another node
// from a majority (Cluster::RecoverAgent), and the home later returns.
// Reported, one table row and one BENCH_JSON line per run:
//   * reopen latency (move start -> agent accepts updates again),
//   * updates served during the move/partition window,
//   * protocol messages sent,
//   * which correctness property survived (fragmentwise vs mutual-only),
//   * convergence after heal.

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bench_harness.h"
#include "core/cluster.h"
#include "verify/checkers.h"

using namespace fragdb;
using namespace fragdb_bench;

namespace {

struct RowResult {
  std::string name;
  SimTime reopen_latency = -1;
  int served = 0;
  int window_total = 0;
  uint64_t messages = 0;
  bool fragmentwise = false;
  bool consistent = false;
};

/// `recover_token`: crash the home and run RecoverAgent (majority commit
/// only) instead of partitioning it away and running MoveAgent.
RowResult RunOnce(MoveProtocol protocol, bool recover_token) {
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  config.move_protocol = protocol;
  config.agent_travel_time = Millis(20);
  config.majority_ack_timeout = Millis(100);
  Cluster cluster(config, Topology::FullMesh(5, Millis(5)));
  FragmentId frag = cluster.DefineFragment("F");
  std::vector<ObjectId> objs;
  for (int i = 0; i < 4; ++i) {
    objs.push_back(*cluster.DefineObject(frag, "o" + std::to_string(i), 0));
  }
  AgentId agent = cluster.DefineUserAgent("mover");
  (void)cluster.AssignToken(frag, agent);
  (void)cluster.SetAgentHome(agent, 0);
  if (!cluster.Start().ok()) std::abort();

  RowResult row;
  row.name = recover_token ? "token-recovery(4.4.1)"
                           : MoveProtocolName(protocol);

  auto update = [&](int idx, Value v, std::function<void(bool)> cb) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = frag;
    ObjectId obj = objs[idx % objs.size()];
    spec.read_set = {obj};
    spec.body = [obj, v](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{obj, reads[0] + v}};
    };
    cluster.Submit(spec, [cb](const TxnResult& r) {
      if (cb) cb(r.status.ok());
    });
  };

  // Warm-up traffic while healthy.
  for (int i = 0; i < 3; ++i) update(i, 1, nullptr);
  cluster.RunToQuiescence();

  // Trap an update behind the partition (or the crash), then move across
  // it (or recover the token on the other side).
  if (recover_token) {
    update(0, 100, nullptr);
    cluster.RunFor(Millis(1));
    (void)cluster.CrashNode(0, CrashMode::kCrashStop);
  } else {
    (void)cluster.Partition({{0}, {1, 2, 3, 4}});
    update(0, 100, nullptr);
  }
  cluster.RunFor(Millis(10));
  SimTime move_started = cluster.Now();
  SimTime reopened_at = -1;
  auto reopened = [&](Status st) {
    if (st.ok()) reopened_at = cluster.Now();
  };
  if (recover_token) {
    (void)cluster.RecoverAgent(agent, 2, reopened);
  } else {
    (void)cluster.MoveAgent(agent, 2, reopened);
  }
  // Updates every 25ms during the 400ms window; count what gets served.
  for (SimTime t = Millis(25); t <= Millis(400); t += Millis(25)) {
    // The agent is in transit: submits are global events.
    cluster.engine()->AtGlobal(move_started + t, [&, t] {
      ++row.window_total;
      update(static_cast<int>(t / Millis(25)), 1, [&](bool ok) {
        if (ok) ++row.served;
      });
    });
  }
  cluster.RunFor(Millis(400));
  if (recover_token) {
    (void)cluster.SetNodeUp(0, true);
  } else {
    cluster.HealAll();
  }
  cluster.RunToQuiescence();

  row.reopen_latency = reopened_at >= 0 ? reopened_at - move_started : -1;
  row.messages = cluster.net_stats().messages_sent;
  row.fragmentwise =
      CheckFragmentwiseSerializability(cluster.history(),
                                       cluster.catalog().fragment_count())
          .ok;
  row.consistent = CheckMutualConsistency(cluster.Replicas()).ok;
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
      "E7 / §4.4 — moving-agent protocols\n"
      "an update is trapped at the old home; the agent crosses the\n"
      "partition and keeps working; travel time 20ms, window 400ms\n\n");
  std::vector<int> widths = {28, 14, 14, 12, 16, 12};
  PrintRow({"protocol", "reopen (ms)", "served", "messages",
            "fragmentwise", "consistent"},
           widths);
  PrintRule(widths);
  std::vector<RowResult> rows;
  for (MoveProtocol protocol :
       {MoveProtocol::kMajorityCommit, MoveProtocol::kMoveWithData,
        MoveProtocol::kMoveWithSeqNum, MoveProtocol::kOmitPrep}) {
    rows.push_back(RunOnce(protocol, /*recover_token=*/false));
  }
  rows.push_back(RunOnce(MoveProtocol::kMajorityCommit,
                         /*recover_token=*/true));
  for (const RowResult& row : rows) {
    PrintRow({row.name,
              row.reopen_latency >= 0 ? Int(row.reopen_latency / 1000)
                                      : std::string("blocked"),
              Int(row.served) + "/" + Int(row.window_total),
              Int((long long)row.messages),
              row.fragmentwise ? "yes" : "no",
              row.consistent ? "yes" : "NO"},
             widths);
  }
  std::printf("\n");
  for (const RowResult& row : rows) {
    PrintJsonLine("{\"config\":\"sec4_4_moving\",\"protocol\":\"" +
                  row.name + "\",\"reopen_us\":" +
                  Int((long long)row.reopen_latency) + ",\"served\":" +
                  Int(row.served) + ",\"window\":" + Int(row.window_total) +
                  ",\"messages\":" + Int((long long)row.messages) +
                  ",\"fragmentwise\":" +
                  (row.fragmentwise ? "true" : "false") + ",\"consistent\":" +
                  (row.consistent ? "true" : "false") + "}");
  }
  std::printf(
      "\nexpected shape: omit-prep reopens fastest and serves the most\n"
      "updates but may sacrifice fragmentwise serializability (mutual\n"
      "consistency always survives); move-with-data reopens right after\n"
      "travel; move-with-seqnum waits for the trapped transaction (reopens\n"
      "only after heal); majority-commit pays the most messages and cannot\n"
      "serve from a minority side (its move is refused while the trapped\n"
      "update awaits acks); token recovery reopens after travel plus one\n"
      "catch-up round with a majority.\n");
  return 0;
}

// The benchmark's workloads. Node counts, protocols and offered rates are
// the definition; run lengths are chosen so each percentile reported has
// well over ten samples beyond it.

#include <string>

#include "bench.h"

namespace fragbench {

using fragdb::ControlOption;
using fragdb::Millis;
using fragdb::MoveProtocol;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> w;

    // Every commit is local, so the cost is propagation: 47 sends and
    // installs per commit, PDES scaling and the audit. Commit protocols and
    // recovery stay idle.
    Workload fanout;
    fanout.name = "fanout_dense";
    fanout.nodes = 48;
    fanout.agents = 48;
    fanout.control = ControlOption::kFragmentwise;
    fanout.update_interarrival = Millis(7);
    fanout.read_fraction = 0.25;
    fanout.workers = 0;
    fanout.duration = Millis(700);
    fanout.scenario_text =
        "scenario fanout_dense\n"
        "zipf theta=0.9\n"
        "flash at=300ms for=150ms x=4\n";
    w.push_back(fanout);

    // Paxos Commit holds the fragment lock across consensus, so commit
    // rounds and lock queueing carry the cost; recovery rounds run in the
    // minority splits.
    Workload paxos;
    paxos.name = "paxos_flash";
    paxos.nodes = 16;
    paxos.agents = 16;
    paxos.control = ControlOption::kFragmentwise;
    paxos.protocol = MoveProtocol::kPaxosCommit;
    paxos.update_interarrival = Millis(20);
    paxos.read_fraction = 0.3;
    paxos.workers = 1;
    // Twelve 2s periods of the same shape: a 120ms minority split that
    // outlives the acceptors' recovery timeout (100ms) but not the
    // proposer's client timeout (200ms), then a 4x flash crowd. Outside the
    // flash the update rate is half the one-slot-per-fragment cap (one
    // commit per ~10.1ms round trip), so the flash queue drains within the
    // period and about two thirds of the updates never queue: the median
    // measures a quiet commit, the tail the flash queue. The split flaps
    // across pairs of nodes, so each minority has drained its backlog
    // before its next split. Each period is one independent sample of the
    // flash queue per agent; twelve keep its percentiles steady from seed
    // to seed.
    const int periods = 12;
    paxos.duration = Millis(2000) * periods;
    paxos.scenario_text = "scenario paxos_flash\nzipf theta=0.9\n";
    for (int k = 0; k < periods; ++k) {
      const int t = 2000 * k;
      const int a = (2 * k) % paxos.nodes;
      paxos.scenario_text += "partition at=" + std::to_string(t + 20) +
                             "ms for=120ms groups=" + std::to_string(a) + "," +
                             std::to_string(a + 1) + "|rest\n";
      paxos.scenario_text +=
          "flash at=" + std::to_string(t + 250) + "ms for=150ms x=4\n";
    }
    w.push_back(paxos);

    // Quorum reads gather R replies and writes wait for W installs, while
    // amnesia crashes run WAL replay, checkpoint loads and peer catch-up.
    Workload quorum;
    quorum.name = "quorum_recovery";
    quorum.nodes = 16;
    // Agents live on nodes 0..11; the amnesia crashes hit the replica-only
    // nodes 12..15, so every request has a live home and the faults cost
    // recovery work and quorum slack rather than refused requests.
    quorum.agents = 12;
    quorum.control = ControlOption::kQuorum;
    quorum.update_interarrival = Millis(20);
    quorum.read_fraction = 0.5;
    quorum.durability = true;
    quorum.checkpoint_interval = Millis(100);
    quorum.workers = 1;
    quorum.duration = Millis(2800);
    quorum.scenario_text =
        "scenario quorum_recovery\n"
        "zipf theta=0.9\n"
        "crash at=100ms for=120ms node=12 mode=amnesia\n"
        "crash at=350ms for=120ms node=13 mode=amnesia\n"
        "crash at=600ms for=120ms node=14 mode=amnesia\n"
        "crash at=850ms for=120ms node=15 mode=amnesia\n"
        "crash at=1100ms for=120ms node=12 mode=amnesia\n"
        "crash at=1350ms for=120ms node=13 mode=amnesia\n"
        "crash at=1600ms for=120ms node=14 mode=amnesia\n"
        "crash at=1850ms for=120ms node=15 mode=amnesia\n"
        "crash at=2100ms for=120ms node=12 mode=amnesia\n"
        "crash at=2350ms for=120ms node=13 mode=amnesia\n"
        "crash at=2600ms for=120ms node=14 mode=amnesia\n"
        "loss at=500ms for=150ms p=0.02\n"
        "loss at=1500ms for=150ms p=0.02\n"
        "loss at=2500ms for=150ms p=0.02\n";
    w.push_back(quorum);
    return w;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace fragbench

// The library's foundational claim: every run is exactly reproducible
// from (configuration, seed). Two independent executions of the same
// randomized workload must agree on every observable — metrics, traffic,
// history sizes, and final replica contents. Scenario grid cells extend
// the claim across threads: a cell is a self-contained simulation, so an
// identical (scenario, seed) must yield bit-identical metrics no matter
// how many worker threads run the grid.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "scenario/library.h"
#include "scenario/runner.h"
#include "workload/synthetic.h"

namespace fragdb {
namespace {

SyntheticOptions Options(uint64_t seed) {
  SyntheticOptions opt;
  opt.nodes = 5;
  opt.objects_per_fragment = 3;
  opt.read_fan = 1.0;
  opt.mean_interarrival = Millis(7);
  opt.duration = Millis(700);
  opt.mean_up_time = Millis(100);
  opt.mean_partition_time = Millis(100);
  opt.seed = seed;
  opt.control = ControlOption::kFragmentwise;
  return opt;
}

struct RunSnapshot {
  uint64_t submitted, committed, unavailable;
  uint64_t messages_sent, messages_delivered, bytes;
  uint64_t partitions;
  size_t txns, installs, reads;
  std::vector<Value> final_values;
};

RunSnapshot RunOnce(uint64_t seed) {
  SyntheticWorkload workload(Options(seed));
  EXPECT_TRUE(workload.Start().ok());
  SyntheticReport report = workload.Run();
  Cluster& cluster = workload.cluster();
  RunSnapshot snap;
  snap.submitted = report.metrics.submitted;
  snap.committed = report.metrics.committed;
  snap.unavailable = report.metrics.unavailable;
  snap.messages_sent = report.net.messages_sent;
  snap.messages_delivered = report.net.messages_delivered;
  snap.bytes = report.net.bytes_sent;
  snap.partitions = report.partitions_injected;
  snap.txns = cluster.history().txns().size();
  snap.installs = cluster.history().installs().size();
  snap.reads = cluster.history().reads().size();
  for (ObjectId o = 0; o < cluster.catalog().object_count(); ++o) {
    snap.final_values.push_back(cluster.ReadAt(0, o));
  }
  return snap;
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalRuns) {
  RunSnapshot a = RunOnce(20240707);
  RunSnapshot b = RunOnce(20240707);
  // Agreement is vacuous if nothing ran.
  EXPECT_GT(a.committed, 0u);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.unavailable, b.unavailable);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.txns, b.txns);
  EXPECT_EQ(a.installs, b.installs);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.final_values, b.final_values);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  RunSnapshot a = RunOnce(1);
  RunSnapshot b = RunOnce(2);
  // The runs share structure but not randomness; at least the traffic or
  // the final contents must differ.
  bool differs = a.messages_sent != b.messages_sent ||
                 a.final_values != b.final_values ||
                 a.submitted != b.submitted;
  EXPECT_TRUE(differs);
}

// --- Scenario grid cells across thread counts ---------------------------

struct ScenarioCell {
  std::string scenario;
  ControlOption control;
  uint64_t seed;
  MoveProtocol move_protocol = MoveProtocol::kForbidden;
  int read_quorum = 0;
  int write_quorum = 0;
  double read_only_fraction = 0.0;
};

/// Everything observable about one cell, rendered to a comparable string:
/// workload counters, network totals, invariant verdicts, the full metrics
/// exposition, and the timeline/availability digests (bit-identical or
/// bust).
std::string RunCellFingerprint(const ScenarioCell& cell) {
  Result<Scenario> scenario = NamedScenario(cell.scenario);
  EXPECT_TRUE(scenario.ok());
  ScenarioRunOptions opt;
  opt.seed = cell.seed;
  opt.control = cell.control;
  opt.move_protocol = cell.move_protocol;
  opt.read_quorum = cell.read_quorum;
  opt.write_quorum = cell.write_quorum;
  opt.read_only_fraction = cell.read_only_fraction;
  opt.observability.metrics = true;
  opt.observability.timelines = true;
  ScenarioRunner runner(*scenario, opt);
  EXPECT_TRUE(runner.Start().ok());
  ScenarioCellReport r = runner.Run();
  std::string fp;
  fp += std::to_string(r.metrics.submitted) + "/" +
        std::to_string(r.metrics.committed) + "/" +
        std::to_string(r.metrics.unavailable) + "|" +
        std::to_string(r.net.messages_sent) + "/" +
        std::to_string(r.net.messages_delivered) + "/" +
        std::to_string(r.net.messages_dropped) + "/" +
        std::to_string(r.net.bytes_sent) + "|" +
        std::to_string(r.fifo_deliveries) + "|" +
        std::to_string(r.revives_completed) + "|" + (r.ok() ? "ok" : "FAIL") +
        "\n";
  fp += r.metrics_snapshot.ToText();
  fp += "timeline:" + r.timeline_fingerprint + "\n";
  fp += "availability:" + r.availability_fingerprint + "\n";
  return fp;
}

TEST(ScenarioDeterminismTest, CellsAreBitIdenticalAcrossThreadCounts) {
  std::vector<ScenarioCell> cells;
  for (const char* name : {"flapping_split", "loss_burst", "amnesia_crash"}) {
    for (uint64_t seed : {1ull, 2ull}) {
      cells.push_back({name, ControlOption::kFragmentwise, seed});
      // The two new spectrum points ride the same scenarios: quorum
      // consensus control with a read-heavy mix, and Paxos Commit updates.
      ScenarioCell quorum{name, ControlOption::kQuorum, seed};
      quorum.read_quorum = 2;
      quorum.write_quorum = 4;
      quorum.read_only_fraction = 0.3;
      cells.push_back(quorum);
      ScenarioCell paxos{name, ControlOption::kFragmentwise, seed};
      paxos.move_protocol = MoveProtocol::kPaxosCommit;
      cells.push_back(paxos);
    }
  }

  // One-at-a-time reference, then the same cells raced across 4 workers
  // pulling from a shared counter (the bench harness's claiming
  // discipline).
  std::vector<std::string> serial(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    serial[i] = RunCellFingerprint(cells[i]);
  }

  std::vector<std::string> threaded(cells.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (;;) {
      size_t i = next.fetch_add(1);
      if (i >= cells.size()) return;
      threaded[i] = RunCellFingerprint(cells[i]);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i])
        << "cell " << cells[i].scenario << " seed " << cells[i].seed;
  }
  // And the invariants must actually hold in every cell.
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_NE(serial[i].find("|ok\n"), std::string::npos)
        << "cell " << cells[i].scenario << " seed " << cells[i].seed;
  }
}

}  // namespace
}  // namespace fragdb

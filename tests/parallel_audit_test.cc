// The end-of-run history collapse, lookup tables and audit run as tasks on
// the PDES engine's worker pool. The contract under test: every table,
// every checker verdict and every AuditReport byte is the same at any
// worker count, failing checks included. Built into CI's TSan job.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/audit.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/engine.h"
#include "verify/checkers.h"

namespace fragdb {
namespace {

/// An engine whose only use is its worker pool.
class Pool {
 public:
  explicit Pool(int workers)
      : engine_(PartitionPlan::Contiguous(workers, workers), nullptr,
                PdesScheduler::Options{workers}) {}
  TaskRunner runner() {
    return {engine_.task_threads(),
            [this](size_t n, const std::function<void(size_t)>& fn) {
              engine_.ParallelFor(n, fn);
            }};
  }

 private:
  SimEngine engine_;
};

void ExpectSameReport(const CheckReport& got, const CheckReport& want,
                      const std::string& what) {
  EXPECT_EQ(got.ok, want.ok) << what;
  EXPECT_EQ(got.detail, want.detail) << what;
  EXPECT_EQ(got.witnesses, want.witnesses) << what;
}

void ExpectSameAudit(const AuditReport& got, const AuditReport& want) {
  EXPECT_EQ(got.ToString(), want.ToString());
  ExpectSameReport(got.global_serializability, want.global_serializability,
                   "gsr");
  ExpectSameReport(got.fragmentwise, want.fragmentwise, "fragmentwise");
  EXPECT_EQ(got.fragment_failures, want.fragment_failures);
  ExpectSameReport(got.replica_consistency, want.replica_consistency,
                   "replicas");
  ExpectSameReport(got.configured_property, want.configured_property,
                   "configured");
  ExpectSameReport(got.quorum_freshness, want.quorum_freshness, "quorum");
  ExpectSameReport(got.commit_atomicity, want.commit_atomicity, "atomicity");
  ExpectSameReport(got.commit_nonblocking, want.commit_nonblocking,
                   "nonblocking");
  EXPECT_EQ(got.committed_txns, want.committed_txns);
  EXPECT_EQ(got.uncommitted_txns, want.uncommitted_txns);
  EXPECT_EQ(got.installs, want.installs);
  EXPECT_EQ(got.reads, want.reads);
  EXPECT_EQ(got.messages_sent, want.messages_sent);
  EXPECT_EQ(got.max_replication_lag_us, want.max_replication_lag_us);
}

/// The history checks one at a time, each on its own copy of `h` (a copy
/// starts without lookup tables, so each builds them inline).
HistoryAudit SerialChecks(const History& h, int fragments) {
  HistoryAudit audit;
  audit.global_serializability = CheckGlobalSerializability(History(h));
  for (FragmentId f = 0; f < fragments; ++f) {
    audit.property1.push_back(CheckProperty1(History(h), f));
    audit.property2.push_back(CheckProperty2(History(h), f));
  }
  audit.quorum_freshness = CheckQuorumFreshness(History(h));
  audit.commit_atomicity = CheckCommitAtomicity(History(h));
  return audit;
}

void ExpectSameChecks(const HistoryAudit& got, const HistoryAudit& want) {
  ExpectSameReport(got.global_serializability, want.global_serializability,
                   "gsr");
  ASSERT_EQ(got.property1.size(), want.property1.size());
  ASSERT_EQ(got.property2.size(), want.property2.size());
  for (size_t f = 0; f < got.property1.size(); ++f) {
    ExpectSameReport(got.property1[f], want.property1[f],
                     "P1 F" + std::to_string(f));
    ExpectSameReport(got.property2[f], want.property2[f],
                     "P2 F" + std::to_string(f));
  }
  ExpectSameReport(got.quorum_freshness, want.quorum_freshness, "quorum");
  ExpectSameReport(got.commit_atomicity, want.commit_atomicity, "atomicity");
}

/// The history audit at 1 (inline), 2 and 4 workers, each on a fresh
/// copy, all equal to the serial checkers.
void ExpectSameAtAnyWorkerCount(const History& h, int fragments) {
  const HistoryAudit want = SerialChecks(h, fragments);
  ExpectSameChecks(AuditHistory(History(h), fragments, {}), want);
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Pool pool(workers);
    int alongside = 0;
    ExpectSameChecks(AuditHistory(History(h), fragments, pool.runner(),
                                  [&alongside] { ++alongside; }),
                     want);
    EXPECT_EQ(alongside, 1);
  }
}

// --- The pool ----------------------------------------------------------------

TEST(ParallelForTest, RunsEveryTaskExactlyOnce) {
  for (int workers : {1, 2, 4}) {
    SimEngine engine(PartitionPlan::Contiguous(4, 4), nullptr,
                     PdesScheduler::Options{workers});
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{1000}}) {
      std::vector<int> runs(n, 0);
      engine.ParallelFor(n, [&runs](size_t i) { ++runs[i]; });
      EXPECT_EQ(runs, std::vector<int>(n, 1)) << workers << " " << n;
    }
  }
}

TEST(ParallelForTest, NestedCallRunsInline) {
  SimEngine engine(PartitionPlan::Contiguous(4, 4), nullptr,
                   PdesScheduler::Options{4});
  std::vector<std::vector<int>> runs(8, std::vector<int>(8, 0));
  engine.ParallelFor(8, [&](size_t i) {
    engine.ParallelFor(8, [&runs, i](size_t j) { ++runs[i][j]; });
  });
  for (const std::vector<int>& row : runs) {
    EXPECT_EQ(row, std::vector<int>(8, 1));
  }
}

TEST(ParallelForTest, RunsFromAGlobalEventBetweenWindows) {
  SimEngine engine(PartitionPlan::Contiguous(4, 4),
                   [](const PartitionPlan&) { return Millis(1); },
                   PdesScheduler::Options{4});
  std::vector<int> runs(64, 0);
  for (NodeId n = 0; n < 4; ++n) {
    engine.AtNode(n, Millis(1), [] {});
  }
  engine.AtGlobal(Millis(2), [&] {
    engine.ParallelFor(runs.size(), [&runs](size_t i) { ++runs[i]; });
  });
  engine.RunToQuiescence();
  EXPECT_EQ(runs, std::vector<int>(64, 1));
}

// --- Whole-cluster audits ----------------------------------------------------

AuditReport AuditCell(ScenarioRunOptions opt, const std::string& scenario,
                      int threads) {
  Result<Scenario> s = ParseScenario(scenario);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  opt.engine.threads = threads;
  ScenarioRunner runner(*s, opt);
  EXPECT_TRUE(runner.Start().ok());
  runner.Run();
  return AuditRun(runner.cluster());
}

void ExpectCellAuditIdentical(const ScenarioRunOptions& opt,
                              const std::string& scenario) {
  const AuditReport want = AuditCell(opt, scenario, 1);
  EXPECT_GT(want.installs, 0);
  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameAudit(AuditCell(opt, scenario, threads), want);
  }
}

TEST(ParallelAuditTest, DenseCellReportIsIdenticalAtAnyWorkerCount) {
  // The 48-node fragmentwise cell: every commit installs at 47 replicas,
  // and reads of other fragments' objects give the global graph cycles
  // (fragmentwise SR does not promise global SR), so the cycle the report
  // names must not depend on the worker count either.
  ScenarioRunOptions opt;
  opt.nodes = 48;
  opt.duration = Millis(120);
  opt.seed = 3;
  ExpectCellAuditIdentical(opt,
                           "scenario dense\n"
                           "zipf theta=0.9\n"
                           "flash at=40ms for=40ms x=4\n");
}

TEST(ParallelAuditTest, PaxosCellReportIsIdenticalAtAnyWorkerCount) {
  ScenarioRunOptions opt;
  opt.nodes = 7;
  opt.duration = Millis(400);
  opt.seed = 11;
  opt.move_protocol = MoveProtocol::kPaxosCommit;
  ExpectCellAuditIdentical(opt,
                           "scenario paxos\n"
                           "partition at=50ms for=150ms groups=0,1|rest\n"
                           "crash at=250ms for=60ms node=2 mode=amnesia\n");
}

// --- Random histories --------------------------------------------------------

/// A random multi-node history: registered and committed transactions,
/// installs of each version at several nodes (sometimes with a differing
/// copy), reads of random versions (cycles and partial reads are
/// likely), decisions (sometimes disagreeing) and quorum records.
History RandomHistory(uint64_t seed, int fragments, int txns) {
  Rng rng(seed);
  History h;
  std::vector<SeqNum> next_seq(fragments, 1);
  // Per object: the (writer, seq) versions written so far.
  constexpr int kObjects = 4;
  std::vector<std::vector<std::pair<TxnId, SeqNum>>> versions(
      static_cast<size_t>(fragments) * kObjects);
  for (int i = 0; i < txns; ++i) {
    const TxnId id = 1 + static_cast<TxnId>(i) * 5 +
                     static_cast<TxnId>(rng.NextBelow(5));
    const FragmentId f = static_cast<FragmentId>(rng.NextBelow(fragments));
    TxnRecord rec;
    rec.id = id;
    rec.type_fragment = f;
    rec.home = static_cast<NodeId>(f % 4);
    rec.read_only = rng.NextBool(0.2);
    h.RegisterTxn(rec);
    for (int r = 0; r < 2; ++r) {
      const size_t o = rng.NextBelow(versions.size());
      ReadRecord read;
      read.reader = id;
      read.node = rec.home;
      read.object = static_cast<ObjectId>(o);
      if (!versions[o].empty() && rng.NextBool(0.7)) {
        const auto& v = versions[o][rng.NextBelow(versions[o].size())];
        read.version_writer = v.first;
        read.version_seq = v.second;
      }
      h.RecordRead(read);
    }
    if (rec.read_only || !rng.NextBool(0.9)) continue;
    const SeqNum seq = next_seq[f]++;
    h.MarkCommitted(id, seq);
    QuasiTxn q;
    q.origin_txn = id;
    q.fragment = f;
    q.seq = seq;
    q.origin_node = rec.home;
    const int writes = 1 + static_cast<int>(rng.NextBelow(3));
    for (int w = 0; w < writes; ++w) {
      const size_t o = static_cast<size_t>(f) * kObjects + rng.NextBelow(kObjects);
      q.writes.push_back({static_cast<ObjectId>(o), id});
      versions[o].emplace_back(id, seq);
    }
    for (NodeId node = 0; node < 4; ++node) {
      if (node != rec.home && rng.NextBool(0.3)) continue;
      QuasiTxn copy = q;
      if (rng.NextBool(0.02)) copy.writes.push_back({0, -1});
      h.RecordInstall(node, copy, i);
    }
    CommitDecisionRecord d;
    d.node = rec.home;
    d.fragment = f;
    d.seq = seq;
    d.txn = id;
    d.commit = true;
    h.RecordDecision(d);
    if (rng.NextBool(0.01)) {
      d.node = (d.node + 1) % 4;
      d.commit = false;
      h.RecordDecision(d);
    }
    QuorumWriteRecord qw;
    qw.txn = id;
    qw.fragment = f;
    qw.seq = seq;
    qw.acked_at = i;
    h.RecordQuorumWrite(qw);
    if (rng.NextBool(0.3)) {
      QuorumReadRecord qr;
      qr.reader = id;
      qr.fragment = f;
      qr.at = i + 1;
      qr.observed = {{q.writes[0].object,
                      rng.NextBool(0.05) ? seq - 1 : seq}};
      h.RecordQuorumRead(qr);
    }
  }
  return h;
}

TEST(ParallelAuditTest, RandomHistoriesAuditIdenticallyAtAnyWorkerCount) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const int fragments = 1 + static_cast<int>(seed % 6);
    ExpectSameAtAnyWorkerCount(
        RandomHistory(seed, fragments, 20 + static_cast<int>(seed) * 7),
        fragments);
  }
}

TEST(ParallelAuditTest, LargeHistoryLookupsMatchTheInlineBuild) {
  // Tens of thousands of copies per fragment, a few with a differing
  // write set, split into four chunks on four workers: merged per
  // fragment, they give the inline build's tables.
  const History h = RandomHistory(99, 3, 40000);
  ASSERT_GT(h.installs().size(), 70000u);
  History serial(h);
  History parallel(h);
  Pool pool(4);
  parallel.PrepareLookups(pool.runner());
  const VersionChainTable& want = serial.VersionChains();
  const VersionChainTable& got = parallel.VersionChains();
  EXPECT_EQ(got.objects, want.objects);
  EXPECT_EQ(got.starts, want.starts);
  EXPECT_EQ(got.versions, want.versions);
  for (const auto& [id, rec] : h.txns()) {
    ASSERT_EQ(parallel.TxnIndex(id), serial.TxnIndex(id));
    const std::span<const WriteOp> a = parallel.WritesOf(id);
    const std::span<const WriteOp> b = serial.WritesOf(id);
    ASSERT_TRUE(std::ranges::equal(a, b)) << "T" << id;
  }
  for (FragmentId f = -1; f < 3; ++f) {
    EXPECT_EQ(parallel.UpdatersOf(f), serial.UpdatersOf(f));
    EXPECT_EQ(parallel.ObjectsOf(f), serial.ObjectsOf(f));
    // Read lists point into their own history: compare positions.
    auto positions = [f](const History& of) {
      std::vector<ptrdiff_t> out;
      for (const ReadRecord* r : of.ReadsOn(f)) {
        out.push_back(r - of.reads().data());
      }
      return out;
    };
    EXPECT_EQ(positions(parallel), positions(serial));
  }
}

TEST(ParallelAuditTest, LookupsMatchWhenEveryChunkHoldsEveryVersion) {
  // Installs recorded node by node, as the shard collapse leaves them:
  // each of the four chunks holds copies of every version, and the
  // copies at nodes 5 to 7 of every seventh writer add a write of their
  // own. The first chunk's head (node 0) gives each writer's writes; the
  // later chunks' heads and copies add their differing versions.
  constexpr int kNodes = 8;
  constexpr TxnId kTxns = 400;
  History h;
  for (TxnId id = 1; id <= kTxns; ++id) {
    TxnRecord rec;
    rec.id = id;
    rec.type_fragment = static_cast<FragmentId>(id % 3);
    h.RegisterTxn(rec);
    h.MarkCommitted(id, (id + 2) / 3);
  }
  for (NodeId node = 0; node < kNodes; ++node) {
    for (TxnId id = 1; id <= kTxns; ++id) {
      QuasiTxn q;
      q.origin_txn = id;
      q.fragment = static_cast<FragmentId>(id % 3);
      q.seq = (id + 2) / 3;
      q.writes = {{static_cast<ObjectId>(id % 17), id}};
      if (node >= 5 && id % 7 == 0) q.writes.push_back({100 + node, -id});
      h.RecordInstall(node, q, id);
    }
  }
  History serial(h);
  History parallel(h);
  Pool pool(4);
  parallel.PrepareLookups(pool.runner());
  const VersionChainTable& want = serial.VersionChains();
  const VersionChainTable& got = parallel.VersionChains();
  EXPECT_EQ(got.objects, want.objects);
  EXPECT_EQ(got.starts, want.starts);
  EXPECT_EQ(got.versions, want.versions);
  for (ObjectId o = 105; o < 100 + kNodes; ++o) {
    EXPECT_EQ(parallel.VersionsOf(o).size(), kTxns / 7) << o;
  }
  for (TxnId id = 1; id <= kTxns; ++id) {
    const std::span<const WriteOp> writes = parallel.WritesOf(id);
    ASSERT_EQ(writes.size(), 1u) << "T" << id;
    EXPECT_EQ(writes[0].value, id);
  }
  for (FragmentId f = 0; f < 3; ++f) {
    EXPECT_EQ(parallel.ObjectsOf(f), serial.ObjectsOf(f));
  }
}

TEST(ParallelAuditTest, ShardCollapseIsIdenticalAtAnyWorkerCount) {
  // Four shards' records, merged inline and on 2 and 4 workers.
  auto shards = [] {
    std::vector<History> out(4);
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
      History& shard = out[rng.NextBelow(out.size())];
      TxnRecord rec;
      rec.id = 1 + i;
      rec.type_fragment = i % 3;
      shard.RegisterTxn(rec);
      out[rng.NextBelow(out.size())].MarkCommittedPartial(rec.id, i / 3 + 1);
      QuasiTxn q;
      q.origin_txn = rec.id;
      q.fragment = rec.type_fragment;
      q.seq = i / 3 + 1;
      q.writes.assign(1 + rng.NextBelow(3), WriteOp{i % 7, i});
      for (History& s : out) s.RecordInstall(i % 4, q, i);
      ReadRecord r;
      r.reader = rec.id;
      r.object = i % 7;
      shard.RecordRead(r);
    }
    return out;
  };
  auto merge = [&](const TaskRunner& run) {
    std::vector<History> parts = shards();
    History merged;
    EXPECT_EQ(merged.AbsorbShards(parts, run), kInvalidTxn);
    return merged;
  };
  const History want = merge({});
  for (int workers : {2, 4}) {
    Pool pool(workers);
    const History got = merge(pool.runner());
    EXPECT_EQ(got.DebugString(), want.DebugString());
    ASSERT_EQ(got.installs().size(), want.installs().size());
    for (size_t i = 0; i < got.installs().size(); ++i) {
      const InstallRecord& a = got.installs()[i];
      const InstallRecord& b = want.installs()[i];
      ASSERT_EQ(a.writer, b.writer);
      ASSERT_EQ(a.node_order, b.node_order);
      ASSERT_TRUE(std::ranges::equal(got.WritesOf(a), want.WritesOf(b)));
    }
    ASSERT_EQ(got.reads().size(), want.reads().size());
  }
}

// --- Negative checks through a 4-worker pool ----------------------------------

struct HistoryRecorder {
  History h;
  void Txn(TxnId id, FragmentId type) {
    TxnRecord rec;
    rec.id = id;
    rec.type_fragment = type;
    h.RegisterTxn(rec);
  }
  void Write(TxnId id, FragmentId f, SeqNum seq, std::vector<WriteOp> writes) {
    QuasiTxn q;
    q.origin_txn = id;
    q.fragment = f;
    q.seq = seq;
    q.writes = std::move(writes);
    h.RecordInstall(0, q, 0);
  }
  void Read(TxnId reader, ObjectId object, TxnId writer, SeqNum seq) {
    ReadRecord r;
    r.reader = reader;
    r.object = object;
    r.version_writer = writer;
    r.version_seq = seq;
    h.RecordRead(r);
  }
};

/// The audit's report for `h` on a 4-worker pool.
HistoryAudit AuditOn4(const History& h, int fragments) {
  Pool pool(4);
  return AuditHistory(History(h), fragments, pool.runner());
}

TEST(ParallelNegativeTest, Property1CycleFails) {
  // Two updaters of F0 each read the object the other writes before the
  // other's write: rw edges both ways inside U(F0).
  HistoryRecorder b;
  b.Txn(1, 0);
  b.Txn(2, 0);
  b.h.MarkCommitted(1, 1);
  b.h.MarkCommitted(2, 2);
  b.Read(1, 1, kInvalidTxn, 0);
  b.Read(2, 0, kInvalidTxn, 0);
  b.Write(1, 0, 1, {{0, 1}});
  b.Write(2, 0, 2, {{1, 2}});
  const HistoryAudit audit = AuditOn4(b.h, 1);
  EXPECT_FALSE(audit.property1[0].ok);
  EXPECT_NE(audit.property1[0].detail.find("not serializable"),
            std::string::npos)
      << audit.property1[0].detail;
  ExpectSameReport(audit.property1[0], CheckProperty1(b.h, 0), "P1");
  ExpectSameAtAnyWorkerCount(b.h, 1);
}

TEST(ParallelNegativeTest, Property2PartialReadFails) {
  HistoryRecorder b;
  b.Txn(1, 0);
  b.Txn(2, 1);
  b.h.MarkCommitted(1, 1);
  b.h.MarkCommitted(2, 1);
  b.Write(1, 0, 1, {{0, 10}, {1, 20}});
  b.Write(2, 1, 1, {{5, 1}});
  b.Read(2, 0, 1, 1);
  b.Read(2, 1, kInvalidTxn, 0);
  const HistoryAudit audit = AuditOn4(b.h, 2);
  EXPECT_FALSE(audit.property2[0].ok);
  EXPECT_NE(audit.property2[0].detail.find("partial"), std::string::npos)
      << audit.property2[0].detail;
  ExpectSameReport(audit.property2[0], CheckProperty2(b.h, 0), "P2");
  ExpectSameAtAnyWorkerCount(b.h, 2);
}

TEST(ParallelNegativeTest, GlobalCycleFails) {
  HistoryRecorder b;
  b.Txn(1, 0);
  b.Txn(2, 1);
  b.h.MarkCommitted(1, 1);
  b.h.MarkCommitted(2, 1);
  b.Write(1, 0, 1, {{0, 1}});
  b.Write(2, 1, 1, {{1, 1}});
  b.Read(1, 1, kInvalidTxn, 0);
  b.Read(2, 0, kInvalidTxn, 0);
  const HistoryAudit audit = AuditOn4(b.h, 2);
  EXPECT_FALSE(audit.global_serializability.ok);
  EXPECT_EQ(audit.global_serializability.witnesses.size(), 2u);
  ExpectSameAtAnyWorkerCount(b.h, 2);
}

TEST(ParallelNegativeTest, CommitAtomicityClashFails) {
  HistoryRecorder b;
  b.Txn(1, 0);
  b.h.MarkCommitted(1, 1);
  CommitDecisionRecord d;
  d.fragment = 0;
  d.seq = 1;
  d.txn = 1;
  d.node = 0;
  b.h.RecordDecision(d);
  d.node = 1;
  d.commit = false;
  b.h.RecordDecision(d);
  const HistoryAudit audit = AuditOn4(b.h, 1);
  EXPECT_FALSE(audit.commit_atomicity.ok);
  EXPECT_NE(audit.commit_atomicity.detail.find("disagrees"),
            std::string::npos)
      << audit.commit_atomicity.detail;
  ExpectSameAtAnyWorkerCount(b.h, 1);
}

TEST(ParallelNegativeTest, CommitDecisionWithoutCommittedTxnFails) {
  HistoryRecorder b;
  b.Txn(7, 0);
  CommitDecisionRecord d;
  d.node = 2;
  d.fragment = 0;
  d.seq = 3;
  d.txn = 7;
  b.h.RecordDecision(d);
  const HistoryAudit audit = AuditOn4(b.h, 1);
  EXPECT_FALSE(audit.commit_atomicity.ok);
  EXPECT_NE(audit.commit_atomicity.detail.find("does not mark it committed"),
            std::string::npos)
      << audit.commit_atomicity.detail;
  ExpectSameAtAnyWorkerCount(b.h, 1);
}

TEST(ParallelNegativeTest, StaleQuorumReadFails) {
  HistoryRecorder b;
  b.Txn(1, 0);
  b.h.MarkCommitted(1, 5);
  b.Write(1, 0, 5, {{0, 42}});
  QuorumWriteRecord w;
  w.txn = 1;
  w.fragment = 0;
  w.seq = 5;
  w.acks = 3;
  w.acked_at = 100;
  b.h.RecordQuorumWrite(w);
  QuorumReadRecord r;
  r.reader = 2;
  r.fragment = 0;
  r.at = 200;
  r.observed = {{0, 4}};
  b.h.RecordQuorumRead(r);
  const HistoryAudit audit = AuditOn4(b.h, 1);
  EXPECT_FALSE(audit.quorum_freshness.ok);
  EXPECT_NE(audit.quorum_freshness.detail.find("write quorum earlier"),
            std::string::npos)
      << audit.quorum_freshness.detail;
  ExpectSameAtAnyWorkerCount(b.h, 1);
}

}  // namespace
}  // namespace fragdb

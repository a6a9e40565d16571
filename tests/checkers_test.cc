#include "verify/checkers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace fragdb {
namespace {

struct HistoryBuilder {
  History h;
  void Txn(TxnId id, FragmentId type, NodeId home, bool read_only = false) {
    TxnRecord rec;
    rec.id = id;
    rec.type_fragment = type;
    rec.home = home;
    rec.read_only = read_only;
    h.RegisterTxn(rec);
  }
  void Commit(TxnId id, SeqNum seq) { h.MarkCommitted(id, seq); }
  void Write(TxnId id, FragmentId f, SeqNum seq,
             std::vector<WriteOp> writes) {
    QuasiTxn q;
    q.origin_txn = id;
    q.fragment = f;
    q.seq = seq;
    q.writes = std::move(writes);
    h.RecordInstall(0, q, 0);
  }
  void Read(TxnId reader, ObjectId object, TxnId vwriter, SeqNum vseq) {
    ReadRecord r;
    r.reader = reader;
    r.object = object;
    r.version_writer = vwriter;
    r.version_seq = vseq;
    h.RecordRead(r);
  }
};

TEST(GlobalSerializabilityTest, EmptyHistoryPasses) {
  History h;
  EXPECT_TRUE(CheckGlobalSerializability(h).ok);
}

TEST(GlobalSerializabilityTest, SimpleChainPasses) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Txn(2, 1, 1);
  b.Commit(1, 1);
  b.Commit(2, 1);
  b.Write(1, 0, 1, {{0, 1}});
  b.Read(2, 0, 1, 1);
  b.Write(2, 1, 1, {{1, 2}});
  EXPECT_TRUE(CheckGlobalSerializability(b.h).ok);
}

TEST(GlobalSerializabilityTest, CycleFailsWithWitnesses) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Txn(2, 1, 1);
  b.Commit(1, 1);
  b.Commit(2, 1);
  b.Write(1, 0, 1, {{0, 1}});
  b.Write(2, 1, 1, {{1, 1}});
  b.Read(1, 1, kInvalidTxn, 0);  // T1 read b before T2's write => T1->T2
  b.Read(2, 0, kInvalidTxn, 0);  // T2 read a before T1's write => T2->T1
  CheckReport report = CheckGlobalSerializability(b.h);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.witnesses.size(), 2u);
  EXPECT_NE(report.detail.find("cycle"), std::string::npos);
}

// The paper's §4.3 airline schedule, realized with item-level conflicts
// (each customer transaction writes its full request row; see
// EXPERIMENTS.md E6): fragmentwise serializable but not globally
// serializable.
//
// Fragments: C1=0 {c11=0, c12=1}, C2=1 {c21=2, c22=3},
//            F1=2 {f11=4, f21=5}, F2=3 {f12=6, f22=7}.
struct AirlineSchedule {
  HistoryBuilder b;
  AirlineSchedule() {
    b.Txn(1, 0, 0);  // T_C1
    b.Txn(2, 1, 1);  // T_C2
    b.Txn(3, 2, 2);  // T_F1
    b.Txn(4, 3, 3);  // T_F2
    for (TxnId id = 1; id <= 4; ++id) b.Commit(id, 1);
    // (T_F2, r, c12): before T_C1's row write installs at F2's home.
    b.Read(4, 1, kInvalidTxn, 0);
    // (T_F2, w, f12) happens at the end (atomic commit of both writes).
    // (T_C1, w, {c11, c12}).
    b.Write(1, 0, 1, {{0, 1}, {1, 0}});
    // (T_F1, r, c11): sees T_C1.
    b.Read(3, 0, 1, 1);
    // (T_F1, r, c21): before T_C2's write.
    b.Read(3, 2, kInvalidTxn, 0);
    b.Write(3, 2, 1, {{4, 1}, {5, 0}});
    // (T_C2, w, {c21, c22}).
    b.Write(2, 1, 1, {{2, 0}, {3, 1}});
    // (T_F2, r, c22): sees T_C2.
    b.Read(4, 3, 2, 1);
    b.Write(4, 3, 1, {{6, 0}, {7, 1}});
  }
};

TEST(FragmentwiseTest, AirlineScheduleNotGloballySerializable) {
  AirlineSchedule s;
  EXPECT_FALSE(CheckGlobalSerializability(s.b.h).ok);
}

TEST(FragmentwiseTest, AirlineScheduleIsFragmentwiseSerializable) {
  AirlineSchedule s;
  EXPECT_TRUE(CheckFragmentwiseSerializability(s.b.h, 4).ok);
}

TEST(Property1Test, UpdatersOfEachFragmentSerializable) {
  AirlineSchedule s;
  for (FragmentId f = 0; f < 4; ++f) {
    EXPECT_TRUE(CheckProperty1(s.b.h, f).ok) << "fragment " << f;
  }
}

TEST(Property2Test, PartialEffectDetected) {
  // Writer W writes x and y atomically; reader T sees W's x but pre-W y.
  HistoryBuilder b;
  b.Txn(1, 0, 0);           // W
  b.Txn(2, 1, 1);           // T (reader from another fragment)
  b.Commit(1, 1);
  b.Commit(2, 1);
  b.Write(1, 0, 1, {{0, 10}, {1, 20}});
  b.Write(2, 1, 1, {{5, 1}});
  b.Read(2, 0, 1, 1);            // saw W's write of x
  b.Read(2, 1, kInvalidTxn, 0);  // missed W's write of y
  CheckReport report = CheckProperty2(b.h, 0);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.detail.find("partial"), std::string::npos);
  EXPECT_FALSE(CheckFragmentwiseSerializability(b.h, 2).ok);
}

TEST(Property2Test, ConsistentSnapshotPasses) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Txn(2, 1, 1);
  b.Commit(1, 1);
  b.Commit(2, 1);
  b.Write(1, 0, 1, {{0, 10}, {1, 20}});
  b.Write(2, 1, 1, {{5, 1}});
  b.Read(2, 0, 1, 1);
  b.Read(2, 1, 1, 1);
  EXPECT_TRUE(CheckProperty2(b.h, 0).ok);
}

TEST(Property2Test, SingleWriteCannotBePartial) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Txn(2, 1, 1);
  b.Commit(1, 1);
  b.Commit(2, 1);
  b.Write(1, 0, 1, {{0, 10}});
  b.Write(2, 1, 1, {{5, 1}});
  b.Read(2, 0, kInvalidTxn, 0);
  EXPECT_TRUE(CheckProperty2(b.h, 0).ok);
}

TEST(MutualConsistencyTest, IdenticalReplicasPass) {
  Catalog c;
  FragmentId f = c.AddFragment("F");
  ObjectId o = *c.AddObject(f, "x", 1);
  ObjectStore s1(&c), s2(&c);
  EXPECT_TRUE(CheckMutualConsistency({&s1, &s2}).ok);
  s1.Write(o, 2, 1, 1, 0);
  s2.Write(o, 2, 9, 9, 9);  // same value, different metadata: still equal
  EXPECT_TRUE(CheckMutualConsistency({&s1, &s2}).ok);
}

TEST(MutualConsistencyTest, DivergentReplicasFail) {
  Catalog c;
  FragmentId f = c.AddFragment("F");
  ObjectId o = *c.AddObject(f, "x", 1);
  ObjectStore s1(&c), s2(&c);
  s1.Write(o, 5, 1, 1, 0);
  CheckReport report = CheckMutualConsistency({&s1, &s2});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.detail.find("differ"), std::string::npos);
}

TEST(MutualConsistencyTest, SingleReplicaTriviallyConsistent) {
  Catalog c;
  FragmentId f = c.AddFragment("F");
  (void)*c.AddObject(f, "x", 1);
  ObjectStore s1(&c);
  EXPECT_TRUE(CheckMutualConsistency({&s1}).ok);
}

TEST(PredicateTest, SingleVsMultiFragmentClassification) {
  Catalog c;
  FragmentId f0 = c.AddFragment("F0");
  FragmentId f1 = c.AddFragment("F1");
  ObjectId a = *c.AddObject(f0, "a", 0);
  ObjectId b = *c.AddObject(f0, "b", 0);
  ObjectId x = *c.AddObject(f1, "x", 0);
  ConsistencyPredicate single{"a+b>=0", {a, b},
                              [](const std::vector<Value>& v) {
                                return v[0] + v[1] >= 0;
                              }};
  ConsistencyPredicate multi{"a==x", {a, x},
                             [](const std::vector<Value>& v) {
                               return v[0] == v[1];
                             }};
  EXPECT_TRUE(IsSingleFragment(single, c));
  EXPECT_FALSE(IsSingleFragment(multi, c));
  ObjectStore s(&c);
  EXPECT_TRUE(EvaluatePredicate(single, s));
  s.Write(a, -5, 1, 1, 0);
  EXPECT_FALSE(EvaluatePredicate(single, s));
  EXPECT_FALSE(EvaluatePredicate(multi, s));
  EXPECT_EQ(s.Read(b), 0);
  (void)f1;
}

TEST(PredicateTest, EmptyPredicateIsSingleFragment) {
  Catalog c;
  ConsistencyPredicate p{"true", {}, [](const std::vector<Value>&) {
                           return true;
                         }};
  EXPECT_TRUE(IsSingleFragment(p, c));
}

// A history where T1's write of object 0 (seq 5) reached its W quorum at
// t=100, shared by the quorum-freshness tests below.
struct QuorumHistory {
  HistoryBuilder b;
  QuorumHistory() {
    b.Txn(1, 0, 0);
    b.Commit(1, 5);
    b.Write(1, 0, 5, {{0, 42}});
    QuorumWriteRecord w;
    w.txn = 1;
    w.fragment = 0;
    w.seq = 5;
    w.acks = 3;
    w.acked_at = 100;
    b.h.RecordQuorumWrite(w);
  }
  void ReadObserving(SimTime at, SeqNum seq) {
    QuorumReadRecord r;
    r.reader = 2;
    r.node = 1;
    r.fragment = 0;
    r.replies = 2;
    r.at = at;
    r.observed = {{0, seq}};
    b.h.RecordQuorumRead(r);
  }
};

TEST(QuorumFreshnessTest, NoReadsPassesTrivially) {
  QuorumHistory q;
  EXPECT_TRUE(CheckQuorumFreshness(q.b.h).ok);
}

TEST(QuorumFreshnessTest, FreshReadAfterAckPasses) {
  QuorumHistory q;
  q.ReadObserving(200, 5);
  EXPECT_TRUE(CheckQuorumFreshness(q.b.h).ok);
}

TEST(QuorumFreshnessTest, StaleReadAfterAckedWriteFails) {
  QuorumHistory q;
  q.ReadObserving(200, 4);  // started after the W-ack, missed the write
  CheckReport report = CheckQuorumFreshness(q.b.h);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.detail.find("reached its write quorum earlier"),
            std::string::npos)
      << report.detail;
  ASSERT_EQ(report.witnesses.size(), 2u);
  EXPECT_EQ(report.witnesses[0], 2);
  EXPECT_EQ(report.witnesses[1], 1);
}

TEST(QuorumFreshnessTest, ConcurrentReadImposesNoObligation) {
  // The read started at the same instant the W-ack landed (and another
  // before it): concurrent, so the stale observation is legal.
  QuorumHistory q;
  q.ReadObserving(100, 4);
  q.ReadObserving(50, 0);
  EXPECT_TRUE(CheckQuorumFreshness(q.b.h).ok);
}

CommitDecisionRecord Decision(NodeId node, SeqNum seq, TxnId txn,
                              bool commit) {
  CommitDecisionRecord d;
  d.node = node;
  d.fragment = 0;
  d.seq = seq;
  d.txn = txn;
  d.commit = commit;
  d.at = 100;
  return d;
}

TEST(CommitAtomicityTest, AgreeingDecisionsPass) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Commit(1, 1);
  b.h.RecordDecision(Decision(0, 1, 1, true));
  b.h.RecordDecision(Decision(1, 1, 1, true));
  EXPECT_TRUE(CheckCommitAtomicity(b.h).ok);
}

TEST(CommitAtomicityTest, DisagreeingDecisionsFail) {
  // Two participants of the same (fragment, seq) slot learned opposite
  // outcomes — exactly the split Paxos Commit must make impossible.
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Commit(1, 1);
  b.h.RecordDecision(Decision(0, 1, 1, true));
  b.h.RecordDecision(Decision(1, 1, 1, false));
  CheckReport report = CheckCommitAtomicity(b.h);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.detail.find("disagrees"), std::string::npos)
      << report.detail;
}

TEST(CommitAtomicityTest, CommitDecisionWithoutCommittedTxnFails) {
  HistoryBuilder b;
  b.Txn(7, 0, 0);  // registered but never marked committed
  b.h.RecordDecision(Decision(2, 3, 7, true));
  CheckReport report = CheckCommitAtomicity(b.h);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.detail.find("does not mark it committed"),
            std::string::npos)
      << report.detail;
}

TEST(CommitAtomicityTest, AbortDecisionsNeedNoCommittedTxn) {
  HistoryBuilder b;
  b.h.RecordDecision(Decision(0, 1, 9, false));
  b.h.RecordDecision(Decision(1, 1, 9, false));
  EXPECT_TRUE(CheckCommitAtomicity(b.h).ok);
}

// A decided slot (fragment 0, seq 1) for T1, plus its installs.
struct DecidedSlotHistory {
  DecidedSlotHistory() {
    b.Txn(1, 0, 0);
    b.Commit(1, 1);
    b.h.RecordDecision(Decision(0, 1, 1, true));
    b.h.RecordDecision(Decision(1, 1, 1, true));
  }
  void Install(NodeId node, TxnId writer, int incarnation = 0) {
    QuasiTxn q;
    q.origin_txn = writer;
    q.fragment = 0;
    q.seq = 1;
    q.origin_node = 0;
    q.writes = {{0, static_cast<Value>(writer)}};
    b.h.RecordInstall(node, q, 50, incarnation);
  }
  HistoryBuilder b;
};

TEST(DecidedInstallsTest, InstallsOfTheDecidedValuePass) {
  DecidedSlotHistory d;
  d.Install(0, 1);
  d.Install(1, 1);
  d.Install(2, 1);
  // An amnesia crash wiped node 0's install; it installs again afterwards.
  d.Install(0, 1, /*incarnation=*/1);
  EXPECT_TRUE(CheckDecidedInstalls(d.b.h).ok);
  EXPECT_TRUE(CheckCommitAtomicity(d.b.h).ok);
}

TEST(DecidedInstallsTest, InstallOfAnotherTxnAtADecidedSlotFails) {
  // Node 2 filled the slot with T5's writes although every decision
  // record names T1: two values for one slot.
  DecidedSlotHistory d;
  d.b.Txn(5, 0, 0);
  d.Install(0, 1);
  d.Install(1, 1);
  d.Install(2, 5);
  CheckReport report = CheckDecidedInstalls(d.b.h);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.detail.find("N2 installed T5 at F0 seq 1"),
            std::string::npos)
      << report.detail;
  EXPECT_FALSE(CheckCommitAtomicity(d.b.h).ok);
}

TEST(DecidedInstallsTest, DoubleInstallInOneLifetimeFails) {
  DecidedSlotHistory d;
  d.Install(0, 1);
  d.Install(1, 1);
  d.Install(1, 1);
  CheckReport report = CheckDecidedInstalls(d.b.h);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.detail.find("N1 installed F0 seq 1 twice"),
            std::string::npos)
      << report.detail;
}

TEST(DecidedInstallsTest, UndecidedSlotsAreNotChecked) {
  DecidedSlotHistory d;
  d.b.Write(9, 0, 2, {{0, 9}});
  d.b.Write(9, 0, 2, {{0, 9}});
  EXPECT_TRUE(CheckDecidedInstalls(d.b.h).ok);
}

// The first-failure choices, pinned: the first wrong install in record
// order, the first repeated install in slot order, the first clashing
// decision in record order.

void InstallAt(History* h, NodeId node, SeqNum seq, TxnId writer,
               int incarnation = 0) {
  QuasiTxn q;
  q.origin_txn = writer;
  q.fragment = 0;
  q.seq = seq;
  q.origin_node = 0;
  q.writes = {{0, static_cast<Value>(writer)}};
  h->RecordInstall(node, q, 50, incarnation);
}

// Slots (F0, 1) and (F0, 2) decided T1 and T2 at nodes 0 and 1.
HistoryBuilder TwoDecidedSlots() {
  HistoryBuilder b;
  for (TxnId id : {1, 2}) {
    b.Txn(id, 0, 0);
    b.Commit(id, id);
    b.h.RecordDecision(Decision(0, id, id, true));
    b.h.RecordDecision(Decision(1, id, id, true));
  }
  return b;
}

TEST(DecidedInstallsTest, ReportsTheFirstWrongInstallInRecordOrder) {
  HistoryBuilder b = TwoDecidedSlots();
  b.Txn(5, 0, 0);
  b.Txn(6, 0, 0);
  InstallAt(&b.h, 1, 1, 1);
  InstallAt(&b.h, 3, 2, 5);  // slot 2 before slot 1, in record order
  InstallAt(&b.h, 2, 1, 6);
  CheckReport report = CheckDecidedInstalls(b.h);
  EXPECT_EQ(report.detail,
            "N3 installed T5 at F0 seq 2, but the slot decided T2");
  EXPECT_EQ(report.witnesses, (std::vector<TxnId>{5, 2}));
  EXPECT_EQ(CheckCommitAtomicity(b.h).detail, report.detail);
}

TEST(DecidedInstallsTest, ReportsTheFirstDoubleInstallInSlotOrder) {
  HistoryBuilder b = TwoDecidedSlots();
  InstallAt(&b.h, 2, 2, 2);
  InstallAt(&b.h, 2, 2, 2);  // recorded first, but slot 2
  InstallAt(&b.h, 3, 1, 1);
  InstallAt(&b.h, 1, 1, 1, /*incarnation=*/1);
  InstallAt(&b.h, 3, 1, 1);  // slot 1, node 3
  InstallAt(&b.h, 1, 1, 1, /*incarnation=*/1);  // slot 1, node 1: first
  CheckReport report = CheckDecidedInstalls(b.h);
  EXPECT_EQ(report.detail,
            "N1 installed F0 seq 1 twice in one lifetime (incarnation 1)");
  EXPECT_EQ(report.witnesses, (std::vector<TxnId>{1}));
  EXPECT_EQ(CheckCommitAtomicity(b.h).detail, report.detail);
}

TEST(CommitAtomicityTest, ReportsTheFirstClashInRecordOrder) {
  HistoryBuilder b;
  b.Txn(1, 0, 0);
  b.Commit(1, 1);
  b.Txn(2, 0, 0);
  b.Commit(2, 2);
  b.h.RecordDecision(Decision(0, 1, 1, true));
  b.h.RecordDecision(Decision(2, 2, 2, false));
  b.h.RecordDecision(Decision(0, 2, 2, true));  // slot 2 clashes first
  b.h.RecordDecision(Decision(1, 1, 1, false));
  b.h.RecordDecision(Decision(3, 2, 2, true));
  CheckReport report = CheckCommitAtomicity(b.h);
  EXPECT_EQ(report.detail,
            "commit decision for F0 seq 2 disagrees: N2 decided abort, N0 "
            "decided commit");
  EXPECT_EQ(report.witnesses, (std::vector<TxnId>{2, 2}));
}

// The sort-based CheckCommitAtomicity and CheckDecidedInstalls that
// CheckInstallsAgainst's radix grouping replaced: stable sorts of the
// decisions by slot and of the installs by node lifetime.
struct RefSlots {
  std::vector<const CommitDecisionRecord*> first;
  const CommitDecisionRecord* clash = nullptr;
  const CommitDecisionRecord* clash_first = nullptr;
};

RefSlots RefGroupDecisions(const History& h) {
  std::vector<const CommitDecisionRecord*> sorted;
  for (const CommitDecisionRecord& d : h.decisions()) sorted.push_back(&d);
  std::stable_sort(sorted.begin(), sorted.end(), [](auto* a, auto* b) {
    return std::tie(a->fragment, a->seq) < std::tie(b->fragment, b->seq);
  });
  RefSlots slots;
  for (size_t i = 0; i < sorted.size();) {
    const CommitDecisionRecord* first = sorted[i];
    slots.first.push_back(first);
    for (; i < sorted.size() && sorted[i]->fragment == first->fragment &&
           sorted[i]->seq == first->seq;
         ++i) {
      const CommitDecisionRecord* d = sorted[i];
      if (d->commit != first->commit &&
          (slots.clash == nullptr || d < slots.clash)) {
        slots.clash = d;
        slots.clash_first = first;
      }
    }
  }
  return slots;
}

CheckReport RefInstallsAgainst(const History& h, const RefSlots& decided) {
  if (decided.first.empty()) return CheckReport::Pass();
  std::vector<const InstallRecord*> sorted;
  for (const InstallRecord& rec : h.installs()) sorted.push_back(&rec);
  auto lifetime = [](const InstallRecord* r) {
    return std::tie(r->fragment, r->seq, r->node, r->incarnation);
  };
  std::stable_sort(sorted.begin(), sorted.end(), [&](auto* a, auto* b) {
    return lifetime(a) < lifetime(b);
  });
  const InstallRecord* wrong = nullptr;
  const CommitDecisionRecord* wrong_slot = nullptr;
  const InstallRecord* twice = nullptr;
  const CommitDecisionRecord* twice_slot = nullptr;
  size_t s = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const InstallRecord& rec = *sorted[i];
    while (s < decided.first.size() &&
           std::tie(decided.first[s]->fragment, decided.first[s]->seq) <
               std::tie(rec.fragment, rec.seq)) {
      ++s;
    }
    if (s == decided.first.size()) break;
    const CommitDecisionRecord& d = *decided.first[s];
    if (d.fragment != rec.fragment || d.seq != rec.seq) continue;
    if (!d.commit || rec.writer != d.txn) {
      if (wrong == nullptr || &rec < wrong) {
        wrong = &rec;
        wrong_slot = &d;
      }
      continue;
    }
    if (twice == nullptr && i > 0 &&
        lifetime(sorted[i - 1]) == lifetime(&rec)) {
      twice = &rec;
      twice_slot = &d;
    }
  }
  if (wrong != nullptr) {
    return CheckReport::Fail(
        "N" + std::to_string(wrong->node) + " installed T" +
            std::to_string(wrong->writer) + " at F" +
            std::to_string(wrong->fragment) + " seq " +
            std::to_string(wrong->seq) + ", but the slot decided " +
            (wrong_slot->commit ? "T" + std::to_string(wrong_slot->txn)
                                : std::string("abort")),
        {wrong->writer, wrong_slot->txn});
  }
  if (twice != nullptr) {
    return CheckReport::Fail(
        "N" + std::to_string(twice->node) + " installed F" +
            std::to_string(twice->fragment) + " seq " +
            std::to_string(twice->seq) +
            " twice in one lifetime (incarnation " +
            std::to_string(twice->incarnation) + ")",
        {twice_slot->txn});
  }
  return CheckReport::Pass();
}

CheckReport RefCommitAtomicity(const History& h) {
  const RefSlots slots = RefGroupDecisions(h);
  if (slots.clash != nullptr) {
    const CommitDecisionRecord* head = slots.clash_first;
    const CommitDecisionRecord* d = slots.clash;
    return CheckReport::Fail(
        "commit decision for F" + std::to_string(d->fragment) + " seq " +
            std::to_string(d->seq) + " disagrees: N" +
            std::to_string(head->node) + " decided " +
            (head->commit ? "commit" : "abort") + ", N" +
            std::to_string(d->node) + " decided " +
            (d->commit ? "commit" : "abort"),
        {head->txn, d->txn});
  }
  for (const CommitDecisionRecord* d : slots.first) {
    if (!d->commit || d->txn == kInvalidTxn) continue;
    const TxnRecord* rec = h.FindTxn(d->txn);
    if (rec == nullptr || !rec->committed) {
      return CheckReport::Fail(
          "F" + std::to_string(d->fragment) + " seq " +
              std::to_string(d->seq) + " decided commit for T" +
              std::to_string(d->txn) +
              " but the history does not mark it committed",
          {d->txn});
    }
  }
  return RefInstallsAgainst(h, slots);
}

void ExpectSameReport(const CheckReport& got, const CheckReport& want) {
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.detail, want.detail);
  EXPECT_EQ(got.witnesses, want.witnesses);
}

TEST(CommitAtomicityTest, MatchesSortedReferenceOverRandomHistories) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Every fourth history spreads its sequence numbers over 2^60, past
    // what a 64-bit packed key holds next to a record index.
    const bool wide = seed % 4 == 0;
    const int fragments = 1 + static_cast<int>(rng.NextBelow(3));
    const int seqs = 1 + static_cast<int>(rng.NextBelow(40));
    const double abort_p = seed % 3 == 0 ? 0.0 : 0.002;
    const double wrong_p = seed % 5 < 2 ? 0.0 : 0.002;
    auto seq_of = [&](int k) {
      return static_cast<SeqNum>(wide && k % 2 == 1 ? (SeqNum{1} << 60) + k
                                                    : k + 1);
    };
    auto txn_of = [](FragmentId f, SeqNum seq) {
      return static_cast<TxnId>(1 + f + 3 * (seq % 1000));
    };
    HistoryBuilder b;
    for (int f = 0; f < fragments; ++f) {
      for (int k = 0; k < seqs; ++k) {
        const TxnId id = txn_of(f, seq_of(k));
        if (b.h.FindTxn(id) != nullptr) continue;
        b.Txn(id, f, 0);
        if (rng.NextBool(0.995)) b.Commit(id, seq_of(k));
      }
    }
    const int decisions = 200 + static_cast<int>(rng.NextBelow(1300));
    for (int i = 0; i < decisions; ++i) {
      CommitDecisionRecord d;
      d.node = static_cast<NodeId>(rng.NextBelow(8));
      d.fragment = static_cast<FragmentId>(rng.NextBelow(fragments));
      d.seq = seq_of(static_cast<int>(rng.NextBelow(seqs)));
      d.txn = txn_of(d.fragment, d.seq);
      d.commit = !rng.NextBool(abort_p);
      b.h.RecordDecision(d);
    }
    const int installs = 200 + static_cast<int>(rng.NextBelow(1300));
    for (int i = 0; i < installs; ++i) {
      const FragmentId f = static_cast<FragmentId>(rng.NextBelow(fragments));
      const SeqNum seq = seq_of(static_cast<int>(rng.NextBelow(seqs + 2)));
      QuasiTxn q;
      q.origin_txn = rng.NextBool(wrong_p) ? 999 : txn_of(f, seq);
      q.fragment = f;
      q.seq = seq;
      q.writes = {{f, 1}};
      b.h.RecordInstall(static_cast<NodeId>(rng.NextBelow(8)), q, 0,
                        static_cast<int>(rng.NextBelow(3)));
    }
    ExpectSameReport(CheckCommitAtomicity(b.h), RefCommitAtomicity(b.h));
    ExpectSameReport(CheckDecidedInstalls(b.h),
                     RefInstallsAgainst(b.h, RefGroupDecisions(b.h)));
  }
}

// --------------------------------------------------------------------------
// FifoOrderChecker
// --------------------------------------------------------------------------

Message Delivery(NodeId from, NodeId to, SimTime sent_at) {
  Message m;
  m.from = from;
  m.to = to;
  m.sent_at = sent_at;
  return m;
}

TEST(FifoOrderCheckerTest, InOrderDeliveriesPass) {
  FifoOrderChecker fifo;
  for (SimTime t : {10, 20, 20, 35}) fifo.Observe(Delivery(0, 1, t));
  // Channels are independent: an earlier stamp on another channel (or the
  // reverse direction) is no reordering.
  fifo.Observe(Delivery(2, 1, 5));
  fifo.Observe(Delivery(1, 0, 1));
  fifo.Observe(Delivery(7, 3, 0));
  EXPECT_TRUE(fifo.Report().ok);
  EXPECT_EQ(fifo.observed(), 7u);
  EXPECT_EQ(fifo.violations(), 0u);
}

TEST(FifoOrderCheckerTest, OneReorderedDeliveryFailsWithTheExactMessage) {
  FifoOrderChecker fifo;
  fifo.Observe(Delivery(2, 1, 100));
  fifo.Observe(Delivery(2, 1, 300));
  fifo.Observe(Delivery(2, 1, 200));  // overtaken by the 300us send
  fifo.Observe(Delivery(2, 1, 250));  // still behind the highest stamp
  fifo.Observe(Delivery(2, 1, 400));
  CheckReport report = fifo.Report();
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.detail,
            "2 of 5 deliveries out of FIFO order; first: channel 2->1 "
            "delivered sent_at=200us after sent_at=300us");
  EXPECT_EQ(fifo.observed(), 5u);
  EXPECT_EQ(fifo.violations(), 2u);
}

}  // namespace
}  // namespace fragdb

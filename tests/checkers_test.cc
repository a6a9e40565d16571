#include "verify/checkers.h"

#include <gtest/gtest.h>

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

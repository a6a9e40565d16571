#include "cc/scheduler.h"

#include <gtest/gtest.h>

#include <vector>

namespace fragdb {
namespace {

struct SchedFixture : ::testing::Test {
  SchedFixture() {
    f0 = catalog.AddFragment("F0");
    f1 = catalog.AddFragment("F1");
    a = *catalog.AddObject(f0, "a", 100);
    b = *catalog.AddObject(f1, "b", 200);
    store = std::make_unique<ObjectStore>(&catalog);
    Scheduler::Hooks hooks;
    hooks.on_read = [this](TxnId txn, ObjectId o, const VersionInfo& v,
                           SimTime) {
      reads_seen.push_back({txn, o, v.value});
    };
    hooks.on_install = [this](NodeId n, const QuasiTxn& q, SimTime) {
      installs.push_back({n, q.fragment, q.seq});
    };
    Scheduler::Config cfg;
    cfg.exec_time = Micros(100);
    cfg.install_time = Micros(50);
    sched = std::make_unique<Scheduler>(0, &engine, store.get(), &locks, cfg,
                                        hooks);
  }

  SeqNum NextSeq() { return ++seq; }

  struct SeenRead {
    TxnId txn;
    ObjectId object;
    Value value;
  };
  struct SeenInstall {
    NodeId node;
    FragmentId fragment;
    SeqNum seq;
  };

  Catalog catalog;
  FragmentId f0, f1;
  ObjectId a, b;
  SimEngine engine{1};
  LockManager locks;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<Scheduler> sched;
  std::vector<SeenRead> reads_seen;
  std::vector<SeenInstall> installs;
  SeqNum seq = 0;
};

TEST_F(SchedFixture, UpdateTransactionCommitsAndApplies) {
  TxnSpec spec;
  spec.agent = 0;
  spec.write_fragment = f0;
  spec.read_set = {a};
  spec.body = [this](const std::vector<Value>& r)
      -> Result<std::vector<WriteOp>> {
    EXPECT_EQ(r[0], 100);
    return std::vector<WriteOp>{{a, r[0] - 40}};
  };
  TxnResult out;
  sched->RunLocal(1, spec, false, [this] { return NextSeq(); },
                  [&](TxnResult r) { out = std::move(r); });
  engine.RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.frag_seq, 1);
  EXPECT_EQ(out.finished_at, Micros(100));
  EXPECT_EQ(store->Read(a), 60);
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_EQ(installs[0].fragment, f0);
  EXPECT_EQ(locks.held_count(), 0u);  // released after commit
}

TEST_F(SchedFixture, BodyDeclineLeavesNoTrace) {
  TxnSpec spec;
  spec.agent = 0;
  spec.write_fragment = f0;
  spec.read_set = {a};
  spec.body = [](const std::vector<Value>&) -> Result<std::vector<WriteOp>> {
    return Status::FailedPrecondition("insufficient funds");
  };
  TxnResult out;
  sched->RunLocal(1, spec, false, [this] { return NextSeq(); },
                  [&](TxnResult r) { out = std::move(r); });
  engine.RunToQuiescence();
  EXPECT_TRUE(out.status.IsFailedPrecondition());
  EXPECT_EQ(store->Read(a), 100);
  EXPECT_TRUE(installs.empty());
  EXPECT_EQ(seq, 0);  // no sequence consumed
}

TEST_F(SchedFixture, InitiationRequirementEnforced) {
  TxnSpec spec;
  spec.agent = 0;
  spec.write_fragment = f0;
  spec.body = [this](const std::vector<Value>&)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{b, 1}};  // b is in f1!
  };
  TxnResult out;
  sched->RunLocal(1, spec, false, [this] { return NextSeq(); },
                  [&](TxnResult r) { out = std::move(r); });
  engine.RunToQuiescence();
  EXPECT_TRUE(out.status.IsPermissionDenied());
  EXPECT_EQ(store->Read(b), 200);
}

TEST_F(SchedFixture, ReadOnlyCannotWrite) {
  TxnSpec spec;
  spec.agent = 0;
  spec.write_fragment = kInvalidFragment;
  spec.body = [this](const std::vector<Value>&)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{a, 1}};
  };
  TxnResult out;
  sched->RunLocal(1, spec, false, nullptr,
                  [&](TxnResult r) { out = std::move(r); });
  engine.RunToQuiescence();
  EXPECT_TRUE(out.status.IsPermissionDenied());
}

TEST_F(SchedFixture, ReadOnlySeesValuesAndRecordsReads) {
  TxnSpec spec;
  spec.agent = 0;
  spec.write_fragment = kInvalidFragment;
  spec.read_set = {a, b};
  TxnResult out;
  sched->RunLocal(5, spec, false, nullptr,
                  [&](TxnResult r) { out = std::move(r); });
  engine.RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  ASSERT_EQ(out.reads.size(), 2u);
  EXPECT_EQ(out.reads[0], 100);
  EXPECT_EQ(out.reads[1], 200);
  ASSERT_EQ(reads_seen.size(), 2u);
  EXPECT_EQ(reads_seen[0].txn, 5);
}

TEST_F(SchedFixture, UpdatesOnSameFragmentSerialize) {
  // Two updates to f0 must run one after the other under the fragment
  // exclusive lock.
  std::vector<SimTime> commit_times;
  for (TxnId id = 1; id <= 2; ++id) {
    TxnSpec spec;
    spec.agent = 0;
    spec.write_fragment = f0;
    spec.read_set = {a};
    spec.body = [this](const std::vector<Value>& r)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{a, r[0] + 1}};
    };
    sched->RunLocal(id, spec, false, [this] { return NextSeq(); },
                    [&](TxnResult r) { commit_times.push_back(r.finished_at); });
  }
  engine.RunToQuiescence();
  ASSERT_EQ(commit_times.size(), 2u);
  EXPECT_EQ(commit_times[0], Micros(100));
  EXPECT_EQ(commit_times[1], Micros(200));
  EXPECT_EQ(store->Read(a), 102);
}

TEST_F(SchedFixture, InstallAppliesQuasiAtomically) {
  QuasiTxn q;
  q.origin_txn = 77;
  q.fragment = f0;
  q.seq = 1;
  q.origin_node = 3;
  q.writes = {{a, 55}};
  bool done = false;
  sched->Install(q, 1000, [&] { done = true; });
  engine.RunToQuiescence();
  EXPECT_TRUE(done);
  EXPECT_EQ(store->Read(a), 55);
  EXPECT_EQ(store->Info(a).writer, 77);
  EXPECT_EQ(store->Info(a).frag_seq, 1);
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_EQ(installs[0].node, 0);
}

TEST_F(SchedFixture, InstallWaitsForLocalTransaction) {
  // A local f0 update holds the lock; the install must wait for commit.
  TxnSpec spec;
  spec.agent = 0;
  spec.write_fragment = f0;
  spec.body = [this](const std::vector<Value>&)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{a, 1}};
  };
  SimTime txn_done = -1, install_done = -1;
  sched->RunLocal(1, spec, false, [this] { return NextSeq(); },
                  [&](TxnResult r) { txn_done = r.finished_at; });
  QuasiTxn q;
  q.origin_txn = 88;
  q.fragment = f0;
  q.seq = 2;
  q.writes = {{a, 9}};
  sched->Install(q, 1000, [&] { install_done = engine.Now(); });
  engine.RunToQuiescence();
  EXPECT_GE(install_done, txn_done);
  EXPECT_EQ(store->Read(a), 9);  // install applied after the local commit
}

TEST_F(SchedFixture, PrepareDoesNotApplyUntilCommit) {
  TxnSpec spec;
  spec.agent = 0;
  spec.write_fragment = f0;
  spec.read_set = {a};
  spec.body = [this](const std::vector<Value>& r)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{a, r[0] * 2}};
  };
  TxnResult prep;
  sched->Prepare(1, spec, false, [&](TxnResult r) { prep = std::move(r); });
  engine.RunToQuiescence();
  ASSERT_TRUE(prep.status.ok());
  EXPECT_EQ(store->Read(a), 100);            // not yet applied
  EXPECT_GE(locks.held_count(), 1u);         // lock still held
  sched->CommitPrepared(1, f0, prep.writes, 4, /*release_locks=*/true);
  EXPECT_EQ(store->Read(a), 200);
  EXPECT_EQ(store->Info(a).frag_seq, 4);
  EXPECT_EQ(locks.held_count(), 0u);
  ASSERT_EQ(installs.size(), 1u);
}

TEST_F(SchedFixture, AbortPreparedReleasesWithoutApplying) {
  TxnSpec spec;
  spec.agent = 0;
  spec.write_fragment = f0;
  spec.body = [this](const std::vector<Value>&)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{a, 0}};
  };
  TxnResult prep;
  sched->Prepare(1, spec, false, [&](TxnResult r) { prep = std::move(r); });
  engine.RunToQuiescence();
  sched->AbortPrepared(1, true);
  EXPECT_EQ(store->Read(a), 100);
  EXPECT_EQ(locks.held_count(), 0u);
  EXPECT_TRUE(installs.empty());
}

TEST_F(SchedFixture, ZeroWriteUpdateStillConsumesSequence) {
  TxnSpec spec;
  spec.agent = 0;
  spec.write_fragment = f0;
  spec.body = [](const std::vector<Value>&) -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{};
  };
  TxnResult out;
  sched->RunLocal(1, spec, false, [this] { return NextSeq(); },
                  [&](TxnResult r) { out = std::move(r); });
  engine.RunToQuiescence();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.frag_seq, 1);
}

}  // namespace
}  // namespace fragdb

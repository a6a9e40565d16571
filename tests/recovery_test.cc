// The durability & crash-recovery subsystem: WAL framing, the simulated
// fsync window, checkpoint encode/commit, and full amnesia-crash recovery
// (checkpoint load + WAL replay + §4.4-style peer catch-up).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "recovery/checkpoint.h"
#include "recovery/node_durability.h"
#include "recovery/stable_storage.h"
#include "recovery/wal.h"
#include "verify/checkers.h"

namespace fragdb {
namespace {

// --------------------------------------------------------------------------
// StableStorage
// --------------------------------------------------------------------------

TEST(StableStorageTest, BasicFileOperations) {
  StableStorage st;
  EXPECT_FALSE(st.Exists("wal"));
  EXPECT_EQ(st.Read("wal"), "");
  EXPECT_EQ(st.Size("wal"), 0u);

  st.Write("wal", "abc");
  st.Append("wal", "def");
  EXPECT_EQ(st.Read("wal"), "abcdef");
  EXPECT_EQ(st.Size("wal"), 6u);
  EXPECT_EQ(st.bytes_written(), 6u);

  st.Write("wal", "x");  // atomic replace
  EXPECT_EQ(st.Read("wal"), "x");

  st.Write("checkpoint.pending", "img");
  st.Rename("checkpoint.pending", "checkpoint");
  EXPECT_FALSE(st.Exists("checkpoint.pending"));
  EXPECT_EQ(st.Read("checkpoint"), "img");
  EXPECT_EQ(st.TotalBytes(), 4u);  // "x" + "img"

  st.Delete("checkpoint");
  EXPECT_FALSE(st.Exists("checkpoint"));
}

// --------------------------------------------------------------------------
// WAL framing
// --------------------------------------------------------------------------

QuasiTxn MakeQuasi(SeqNum seq, std::vector<WriteOp> writes) {
  QuasiTxn q;
  q.origin_txn = 100 + seq;
  q.fragment = 0;
  q.seq = seq;
  q.origin_node = 2;
  q.origin_time = 1000 * seq;
  q.writes = std::move(writes);
  return q;
}

TEST(WalTest, FramingRoundTrip) {
  WalRecord r1;
  r1.type = WalRecord::Type::kQuasi;
  r1.fragment = 0;
  r1.epoch = 3;
  r1.quasi = MakeQuasi(7, {{0, 42}, {1, -5}});

  WalRecord r2;
  r2.type = WalRecord::Type::kEpochChange;
  r2.fragment = 1;
  r2.epoch = 4;
  r2.epoch_base = 12;

  std::string bytes = EncodeWalRecord(r1) + EncodeWalRecord(r2);
  WalScan scan = ScanWal(bytes);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, bytes.size());
  ASSERT_EQ(scan.records.size(), 2u);

  const WalRecord& a = scan.records[0];
  EXPECT_EQ(a.type, WalRecord::Type::kQuasi);
  EXPECT_EQ(a.fragment, 0);
  EXPECT_EQ(a.epoch, 3);
  EXPECT_EQ(a.quasi.origin_txn, 107);
  EXPECT_EQ(a.quasi.seq, 7);
  EXPECT_EQ(a.quasi.origin_node, 2);
  EXPECT_EQ(a.quasi.origin_time, 7000);
  EXPECT_EQ(a.quasi.writes, (std::vector<WriteOp>{{0, 42}, {1, -5}}));

  const WalRecord& b = scan.records[1];
  EXPECT_EQ(b.type, WalRecord::Type::kEpochChange);
  EXPECT_EQ(b.fragment, 1);
  EXPECT_EQ(b.epoch, 4);
  EXPECT_EQ(b.epoch_base, 12);
}

TEST(WalTest, EmptyLogScansClean) {
  WalScan scan = ScanWal("");
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(WalTest, TruncatedTailStopsScan) {
  WalRecord r;
  r.quasi = MakeQuasi(1, {{0, 1}});
  std::string one = EncodeWalRecord(r);
  // A torn write: the second record lost its last byte.
  std::string bytes = one + one.substr(0, one.size() - 1);
  WalScan scan = ScanWal(bytes);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, one.size());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].quasi.seq, 1);
}

TEST(WalTest, CorruptChecksumStopsScan) {
  WalRecord r;
  r.quasi = MakeQuasi(1, {{0, 1}});
  std::string bytes = EncodeWalRecord(r) + EncodeWalRecord(r);
  bytes[bytes.size() - 2] ^= 0x5a;  // flip a payload byte of record 2
  WalScan scan = ScanWal(bytes);
  EXPECT_TRUE(scan.torn);
  ASSERT_EQ(scan.records.size(), 1u);
}

TEST(WalTest, WriterGroupCommitsAfterFsyncDelay) {
  SimEngine engine(1);
  StableStorage st;
  WalWriter w(0, &engine, &st, "wal", Micros(500));
  WalRecord r;
  r.quasi = MakeQuasi(1, {{0, 1}});
  w.Append(r);
  r.quasi.seq = 2;
  w.Append(r);
  // Staged, not durable, until the single sync event fires.
  EXPECT_GT(w.staged_bytes(), 0u);
  EXPECT_EQ(st.Size("wal"), 0u);
  engine.RunToQuiescence();
  EXPECT_EQ(w.staged_bytes(), 0u);
  WalScan scan = ScanWal(st.Read("wal"));
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1].quasi.seq, 2);
  EXPECT_EQ(w.records_appended(), 2u);
}

TEST(WalTest, CrashInsideFsyncWindowLosesStagedSuffix) {
  SimEngine engine(1);
  StableStorage st;
  {
    WalWriter w(0, &engine, &st, "wal", Micros(500));
    WalRecord r;
    r.quasi = MakeQuasi(1, {{0, 1}});
    w.Append(r);
    w.SyncNow();  // first record made durable by an explicit fsync
    r.quasi.seq = 2;
    w.Append(r);  // still staged when the writer dies
  }
  engine.RunToQuiescence();  // the orphaned sync event must be a no-op
  WalScan scan = ScanWal(st.Read("wal"));
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].quasi.seq, 1);
}

// --------------------------------------------------------------------------
// Checkpoint images
// --------------------------------------------------------------------------

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  CheckpointImage image;
  image.taken_at = 12345;
  image.versions = {{7, 101, 3, 99}, {-2, kInvalidTxn, 0, 0}};
  StreamCheckpoint stream;
  stream.fragment = 0;
  stream.epoch = 2;
  stream.epoch_base = 5;
  stream.applied_seq = 9;
  stream.next_seq = 10;
  QuasiTxn applied;
  applied.origin_txn = 41;
  applied.seq = 9;
  applied.origin_node = 1;
  applied.origin_time = 777;
  applied.writes = {{3, 64}, {4, -1}};
  stream.log.push_back(applied);
  image.streams = {stream};

  CheckpointImage out;
  ASSERT_TRUE(CheckpointImage::Decode(image.Encode(), &out));
  EXPECT_EQ(out.taken_at, 12345);
  ASSERT_EQ(out.versions.size(), 2u);
  EXPECT_EQ(out.versions[0].value, 7);
  EXPECT_EQ(out.versions[0].writer, 101);
  EXPECT_EQ(out.versions[0].frag_seq, 3);
  EXPECT_EQ(out.versions[1].value, -2);
  ASSERT_EQ(out.streams.size(), 1u);
  EXPECT_EQ(out.StreamFor(0).epoch, 2);
  EXPECT_EQ(out.StreamFor(0).epoch_base, 5);
  EXPECT_EQ(out.StreamFor(0).applied_seq, 9);
  EXPECT_EQ(out.StreamFor(0).next_seq, 10);
  // The applied lineage rides along so a revived node can serve suffixes.
  ASSERT_EQ(out.streams[0].log.size(), 1u);
  EXPECT_EQ(out.streams[0].log[0].origin_txn, 41);
  EXPECT_EQ(out.streams[0].log[0].fragment, 0);
  EXPECT_EQ(out.streams[0].log[0].seq, 9);
  EXPECT_EQ(out.streams[0].log[0].origin_node, 1);
  EXPECT_EQ(out.streams[0].log[0].origin_time, 777);
  ASSERT_EQ(out.streams[0].log[0].writes.size(), 2u);
  EXPECT_EQ(out.streams[0].log[0].writes[1].object, 4);
  EXPECT_EQ(out.streams[0].log[0].writes[1].value, -1);
  // Absent fragments decode to defaults.
  EXPECT_EQ(out.StreamFor(3).epoch, 0);
}

TEST(CheckpointTest, CorruptImageRefusesToDecode) {
  CheckpointImage image;
  image.versions = {{7, 101, 3, 99}};
  std::string bytes = image.Encode();
  bytes[bytes.size() / 2] ^= 0x01;
  CheckpointImage out;
  EXPECT_FALSE(CheckpointImage::Decode(bytes, &out));
  EXPECT_FALSE(CheckpointImage::Decode("", &out));
  EXPECT_FALSE(CheckpointImage::Decode("short", &out));
}

// --------------------------------------------------------------------------
// Cluster-level amnesia crashes
// --------------------------------------------------------------------------

struct RecoveryFixture : ::testing::Test {
  void Build(MoveProtocol protocol = MoveProtocol::kForbidden,
             bool durable = true,
             SimTime checkpoint_interval = 0,
             SimTime wal_fsync_time = Micros(500)) {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    config.move_protocol = protocol;
    config.durability.enabled = durable;
    config.durability.checkpoint_interval = checkpoint_interval;
    config.durability.wal_fsync_time = wal_fsync_time;
    cluster = std::make_unique<Cluster>(config,
                                        Topology::FullMesh(5, Millis(5)));
    frag = cluster->DefineFragment("F");
    x = *cluster->DefineObject(frag, "x", 0);
    agent = cluster->DefineUserAgent("owner");
    ASSERT_TRUE(cluster->AssignToken(frag, agent).ok());
    ASSERT_TRUE(cluster->SetAgentHome(agent, 0).ok());
    ASSERT_TRUE(cluster->Start().ok());
  }
  void Update(Value v, TxnResult* out = nullptr) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = frag;
    ObjectId obj = x;
    spec.read_set = {obj};
    spec.body = [obj, v](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{obj, reads[0] + v}};
    };
    cluster->Submit(spec, [this, out](const TxnResult& r) {
      ++callbacks;
      if (out) *out = r;
    });
  }
  void ExpectAllReplicasRead(Value v) {
    for (NodeId n = 0; n < 5; ++n) {
      EXPECT_EQ(cluster->ReadAt(n, x), v) << "node " << n;
    }
    EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  }
  std::unique_ptr<Cluster> cluster;
  FragmentId frag;
  ObjectId x;
  AgentId agent;
  int callbacks = 0;
};

TEST_F(RecoveryFixture, AmnesiaCrashRequiresDurability) {
  Build(MoveProtocol::kForbidden, /*durable=*/false);
  EXPECT_TRUE(cluster->CrashNode(2, CrashMode::kAmnesia)
                  .IsFailedPrecondition());
  EXPECT_EQ(cluster->stable_storage(2), nullptr);
  EXPECT_EQ(cluster->durability(2), nullptr);
}

TEST_F(RecoveryFixture, CrashStopRevivalRunsNoRecovery) {
  Build();
  ASSERT_TRUE(cluster->CrashNode(2, CrashMode::kCrashStop).ok());
  EXPECT_FALSE(cluster->IsAmnesiaDown(2));
  bool fired = false;
  RecoveryStats stats;
  ASSERT_TRUE(cluster
                  ->ReviveNode(2,
                               [&](const RecoveryStats& s) {
                                 fired = true;
                                 stats = s;
                               })
                  .ok());
  EXPECT_TRUE(fired);
  EXPECT_FALSE(stats.ran);  // state survived; nothing was recovered
}

TEST_F(RecoveryFixture, CrashBeforeFirstCheckpointReplaysWalOnly) {
  Build();
  for (int i = 0; i < 5; ++i) Update(1);
  cluster->RunToQuiescence();
  ExpectAllReplicasRead(5);

  ASSERT_TRUE(cluster->CrashNode(3, CrashMode::kAmnesia).ok());
  EXPECT_TRUE(cluster->IsAmnesiaDown(3));
  EXPECT_EQ(cluster->ReadAt(3, x), 0);  // volatile replica is gone

  RecoveryStats stats;
  ASSERT_TRUE(cluster->ReviveNode(3, [&](const RecoveryStats& s) {
    stats = s;
  }).ok());
  cluster->RunToQuiescence();

  EXPECT_TRUE(stats.ran);
  EXPECT_FALSE(stats.checkpoint_loaded);  // no checkpoint was ever taken
  EXPECT_EQ(stats.wal_records_replayed, 5u);
  EXPECT_EQ(stats.peer_quasis_fetched, 0u);  // the WAL already had it all
  EXPECT_FALSE(cluster->IsAmnesiaDown(3));
  EXPECT_GT(stats.Duration(), 0);
  ASSERT_NE(cluster->LastRecovery(3), nullptr);
  EXPECT_EQ(cluster->LastRecovery(3)->wal_records_replayed, 5u);
  ExpectAllReplicasRead(5);
}

TEST_F(RecoveryFixture, FsyncWindowLossIsClosedByPeerCatchUp) {
  // A slow disk: nothing appended to the WAL becomes durable before the
  // crash, so recovery must rebuild the replica entirely from peers.
  Build(MoveProtocol::kForbidden, /*durable=*/true,
        /*checkpoint_interval=*/0, /*wal_fsync_time=*/Millis(50));
  for (int i = 0; i < 4; ++i) Update(1);
  cluster->RunFor(Millis(20));  // installs done (~5ms), fsync (~55ms) not
  ASSERT_TRUE(cluster->CrashNode(3, CrashMode::kAmnesia).ok());
  EXPECT_EQ(cluster->stable_storage(3)->Size(kWalFile), 0u);

  RecoveryStats stats;
  ASSERT_TRUE(cluster->ReviveNode(3, [&](const RecoveryStats& s) {
    stats = s;
  }).ok());
  cluster->RunToQuiescence();

  EXPECT_TRUE(stats.ran);
  EXPECT_EQ(stats.wal_records_replayed, 0u);
  EXPECT_GE(stats.peer_quasis_fetched, 4u);
  EXPECT_EQ(stats.peers_queried, 4);
  EXPECT_EQ(stats.peers_replied, 4);
  ExpectAllReplicasRead(4);
}

TEST_F(RecoveryFixture, CrashWithInFlightQuasisConverges) {
  Build();
  for (int i = 0; i < 3; ++i) Update(1);
  cluster->RunFor(Millis(3));  // committed at home; propagation in flight
  EXPECT_EQ(cluster->ReadAt(0, x), 3);
  EXPECT_EQ(cluster->ReadAt(4, x), 0);

  // The in-flight installs must not leak into the wiped node.
  ASSERT_TRUE(cluster->CrashNode(4, CrashMode::kAmnesia).ok());
  cluster->RunFor(Millis(10));
  EXPECT_EQ(cluster->ReadAt(4, x), 0);

  ASSERT_TRUE(cluster->ReviveNode(4, nullptr).ok());
  cluster->RunToQuiescence();
  ASSERT_NE(cluster->LastRecovery(4), nullptr);
  EXPECT_GE(cluster->LastRecovery(4)->peer_quasis_fetched, 3u);
  ExpectAllReplicasRead(3);
}

TEST_F(RecoveryFixture, CrashMidCheckpointFallsBackToFullWal) {
  Build();
  for (int i = 0; i < 4; ++i) Update(1);
  cluster->RunToQuiescence();

  // Begin a checkpoint but crash inside checkpoint_write_time: the intent
  // marker is on disk, the image is not.
  cluster->durability(2)->ForceCheckpoint();
  cluster->RunFor(Millis(1));
  EXPECT_TRUE(cluster->stable_storage(2)->Exists(kCheckpointPendingFile));
  EXPECT_FALSE(cluster->stable_storage(2)->Exists(kCheckpointFile));
  ASSERT_TRUE(cluster->CrashNode(2, CrashMode::kAmnesia).ok());
  cluster->RunToQuiescence();  // the orphaned commit event must not publish
  EXPECT_FALSE(cluster->stable_storage(2)->Exists(kCheckpointFile));

  RecoveryStats stats;
  ASSERT_TRUE(cluster->ReviveNode(2, [&](const RecoveryStats& s) {
    stats = s;
  }).ok());
  cluster->RunToQuiescence();

  EXPECT_FALSE(stats.checkpoint_loaded);  // the pending image never counts
  EXPECT_EQ(stats.wal_records_replayed, 4u);
  EXPECT_FALSE(cluster->stable_storage(2)->Exists(kCheckpointPendingFile));
  // Recovery ends with a fresh checkpoint to bound the next replay.
  EXPECT_TRUE(cluster->stable_storage(2)->Exists(kCheckpointFile));
  ExpectAllReplicasRead(4);
}

TEST_F(RecoveryFixture, PeriodicCheckpointTruncatesWal) {
  Build(MoveProtocol::kForbidden, /*durable=*/true,
        /*checkpoint_interval=*/Millis(10));
  for (int i = 0; i < 6; ++i) Update(1);
  cluster->RunToQuiescence();

  const NodeDurability::Stats& d = cluster->durability(1)->stats();
  EXPECT_GE(d.checkpoints_committed, 1u);
  EXPECT_GT(d.wal_bytes_truncated, 0u);
  // Everything the WAL held is covered by the checkpoint image.
  EXPECT_TRUE(
      ScanWal(cluster->stable_storage(1)->Read(kWalFile)).records.empty());

  ASSERT_TRUE(cluster->CrashNode(1, CrashMode::kAmnesia).ok());
  RecoveryStats stats;
  ASSERT_TRUE(cluster->ReviveNode(1, [&](const RecoveryStats& s) {
    stats = s;
  }).ok());
  cluster->RunToQuiescence();

  EXPECT_TRUE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.wal_records_replayed, 0u);
  EXPECT_EQ(stats.peer_quasis_fetched, 0u);
  ExpectAllReplicasRead(6);
}

TEST_F(RecoveryFixture, HomeNodeAmnesiaCrashResumesItsStream) {
  Build(MoveProtocol::kMajorityCommit);
  TxnResult t1;
  for (int i = 0; i < 2; ++i) Update(1, &t1);
  cluster->RunToQuiescence();
  ASSERT_TRUE(t1.status.ok());
  EXPECT_EQ(t1.frag_seq, 2);

  // The fragment agent's home node loses everything, including the
  // stream's next_seq. The durable WAL must restore it: a fresh update
  // after recovery continues the sequence instead of reusing it.
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  TxnResult down;
  Update(1, &down);
  cluster->RunToQuiescence();
  EXPECT_TRUE(down.status.IsUnavailable());

  ASSERT_TRUE(cluster->ReviveNode(0, nullptr).ok());
  cluster->RunToQuiescence();
  ASSERT_NE(cluster->LastRecovery(0), nullptr);
  EXPECT_TRUE(cluster->LastRecovery(0)->ran);

  TxnResult t2;
  Update(10, &t2);
  cluster->RunToQuiescence();
  ASSERT_TRUE(t2.status.ok());
  EXPECT_EQ(t2.frag_seq, 3);  // continues where the durable stream ended
  ExpectAllReplicasRead(12);
}

TEST_F(RecoveryFixture, HomeAmnesiaCrashDropsPendingMajorityAckWait) {
  Build(MoveProtocol::kMajorityCommit);
  TxnResult t1;
  Update(1, &t1);
  cluster->RunToQuiescence();
  ASSERT_TRUE(t1.status.ok());
  ASSERT_EQ(t1.frag_seq, 1);

  // 5 ms links: at +2 ms the prepare for seq 2 is out and no ack is back.
  // The crash takes the ack wait with it, so the client never hears back.
  // Nothing may act on the wait after revival: a late ack would commit the
  // lost transaction, and its timeout would roll next_seq back.
  Update(1);
  cluster->RunFor(Millis(2));
  ASSERT_EQ(callbacks, 1);  // the second update is waiting for acks
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  ASSERT_TRUE(cluster->ReviveNode(0, nullptr).ok());
  cluster->RunToQuiescence();
  EXPECT_EQ(callbacks, 1);

  TxnResult t2;
  Update(10, &t2);
  cluster->RunToQuiescence();
  ASSERT_TRUE(t2.status.ok()) << t2.status.ToString();
  EXPECT_EQ(t2.frag_seq, 2);  // continues the durable stream
  ExpectAllReplicasRead(11);
}

TEST_F(RecoveryFixture, UpdatesCommittedDuringOutageAreFetchedFromPeers) {
  Build();
  Update(1);
  cluster->RunToQuiescence();

  ASSERT_TRUE(cluster->CrashNode(3, CrashMode::kAmnesia).ok());
  for (int i = 0; i < 4; ++i) Update(1);
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->ReadAt(0, x), 5);

  RecoveryStats stats;
  ASSERT_TRUE(cluster->ReviveNode(3, [&](const RecoveryStats& s) {
    stats = s;
  }).ok());
  cluster->RunToQuiescence();

  // The WAL replays the pre-crash prefix; the outage window arrives either
  // through peer catch-up replies or the network's store-and-forward queue.
  EXPECT_EQ(stats.wal_records_replayed, 1u);
  ExpectAllReplicasRead(5);
}

TEST_F(RecoveryFixture, RepeatedCrashesOfTheSameNodeConverge) {
  Build(MoveProtocol::kForbidden, /*durable=*/true,
        /*checkpoint_interval=*/Millis(8));
  Value total = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) Update(1), ++total;
    cluster->RunToQuiescence();
    ASSERT_TRUE(cluster->CrashNode(2, CrashMode::kAmnesia).ok());
    for (int i = 0; i < 2; ++i) Update(1), ++total;
    cluster->RunToQuiescence();
    ASSERT_TRUE(cluster->ReviveNode(2, nullptr).ok());
    cluster->RunToQuiescence();
    ASSERT_NE(cluster->LastRecovery(2), nullptr);
    EXPECT_TRUE(cluster->LastRecovery(2)->ran);
  }
  ExpectAllReplicasRead(total);
}

TEST_F(RecoveryFixture, SetNodeUpRoutesAmnesiaNodesThroughRecovery) {
  Build();
  for (int i = 0; i < 3; ++i) Update(1);
  cluster->RunToQuiescence();
  ASSERT_TRUE(cluster->CrashNode(4, CrashMode::kAmnesia).ok());
  // The legacy revival API must not skip recovery once state is lost.
  ASSERT_TRUE(cluster->SetNodeUp(4, true).ok());
  cluster->RunToQuiescence();
  ASSERT_NE(cluster->LastRecovery(4), nullptr);
  EXPECT_TRUE(cluster->LastRecovery(4)->ran);
  ExpectAllReplicasRead(3);
}

}  // namespace
}  // namespace fragdb

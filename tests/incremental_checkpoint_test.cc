// Incremental checkpoints: the checkpoint file is a base frame followed by
// delta frames, and folding them must give back exactly the image a full
// capture takes. The differential suite checks that at every checkpoint
// commit of seeded runs with amnesia crashes (some in the middle of a
// checkpoint), §4.4.3 epoch transitions, §4.4.2A snapshot adoptions and
// Paxos slots in flight.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "recovery/checkpoint.h"
#include "recovery/node_durability.h"

namespace fragdb {
namespace {

QuasiRef Quasi(FragmentId fragment, SeqNum seq, ObjectId object, Value v) {
  auto q = std::make_shared<QuasiTxn>();
  q->fragment = fragment;
  q->origin_txn = 100 + seq;
  q->seq = seq;
  q->origin_node = 1;
  q->origin_time = Millis(seq);
  q->writes = {{object, v}};
  return q;
}

/// The first difference between two images, or "" if they are equal.
std::string ImageDiff(const CheckpointImage& want, const CheckpointImage& got) {
  if (want.taken_at != got.taken_at) {
    return "taken_at " + std::to_string(want.taken_at) + " vs " +
           std::to_string(got.taken_at);
  }
  if (want.versions.size() != got.versions.size()) return "version count";
  for (size_t o = 0; o < want.versions.size(); ++o) {
    if (!(want.versions[o] == got.versions[o])) {
      return "version of object " + std::to_string(o);
    }
  }
  if (want.streams.size() != got.streams.size()) return "stream count";
  for (size_t i = 0; i < want.streams.size(); ++i) {
    const StreamCheckpoint& a = want.streams[i];
    const StreamCheckpoint& b = got.streams[i];
    const std::string f = "F" + std::to_string(a.fragment) + " ";
    if (a.fragment != b.fragment) return "stream " + std::to_string(i);
    if (a.epoch != b.epoch) return f + "epoch";
    if (a.epoch_base != b.epoch_base) return f + "epoch_base";
    if (a.applied_seq != b.applied_seq) return f + "applied_seq";
    if (a.next_seq != b.next_seq) return f + "next_seq";
    if (a.log.size() != b.log.size()) {
      return f + "log length " + std::to_string(a.log.size()) + " vs " +
             std::to_string(b.log.size());
    }
    for (size_t j = 0; j < a.log.size(); ++j) {
      if (!(*a.log[j] == *b.log[j])) {
        return f + "log entry " + std::to_string(j) + ": T" +
               std::to_string(a.log[j]->origin_txn) + " seq " +
               std::to_string(a.log[j]->seq) + " vs T" +
               std::to_string(b.log[j]->origin_txn) + " seq " +
               std::to_string(b.log[j]->seq);
      }
    }
  }
  return "";
}

// --------------------------------------------------------------------------
// Frame format
// --------------------------------------------------------------------------

struct CheckpointFrameTest : ::testing::Test {
  void SetUp() override {
    base.taken_at = 10;
    base.versions = {{1, 101, 1, 5}, {0, kInvalidTxn, 0, 0}};
    StreamCheckpoint s;
    s.fragment = 0;
    s.applied_seq = 1;
    s.next_seq = 2;
    s.log = {Quasi(0, 1, 0, 1)};
    base.streams = {s};
    // Twenty milliseconds later: object 1 was written, seq 2 applied.
    delta = base;
    delta.taken_at = 30;
    delta.versions[1] = {9, 102, 2, 25};
    delta.streams[0].applied_seq = 2;
    delta.streams[0].next_seq = 3;
    delta.streams[0].log = {Quasi(0, 2, 1, 9)};
    bytes = base.Encode() + delta.EncodeDelta(base.versions);
  }
  CheckpointImage base;
  CheckpointImage delta;
  std::string bytes;
};

TEST_F(CheckpointFrameTest, DeltaFramesFoldIntoTheFullImage) {
  CheckpointImage full = delta;
  full.streams[0].log = {Quasi(0, 1, 0, 1), Quasi(0, 2, 1, 9)};
  CheckpointImage out;
  ASSERT_TRUE(CheckpointImage::Decode(bytes, &out));
  EXPECT_EQ(ImageDiff(full, out), "");
  // The delta carries only what changed: one version and one log entry.
  EXPECT_LT(delta.EncodeDelta(base.versions).size(), base.Encode().size());
}

TEST_F(CheckpointFrameTest, CorruptDeltaFrameRefusesToDecode) {
  const size_t base_size = base.Encode().size();
  CheckpointImage out;
  // A flipped bit anywhere in the delta frame: header, payload, checksum.
  for (size_t i = base_size; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] ^= 0x10;
    EXPECT_FALSE(CheckpointImage::Decode(bad, &out)) << "byte " << i;
  }
  // A torn delta frame.
  EXPECT_FALSE(
      CheckpointImage::Decode(bytes.substr(0, bytes.size() - 1), &out));
  EXPECT_FALSE(CheckpointImage::Decode(bytes + "x", &out));
  // A delta frame without a base before it.
  EXPECT_FALSE(CheckpointImage::Decode(bytes.substr(base_size), &out));
  // A delta whose log does not extend the previous frame's.
  CheckpointImage overlap = delta;
  overlap.streams[0].log = {Quasi(0, 1, 1, 9)};
  EXPECT_FALSE(CheckpointImage::Decode(
      base.Encode() + overlap.EncodeDelta(base.versions), &out));
}

// --------------------------------------------------------------------------
// Differential: the stable file against a full capture
// --------------------------------------------------------------------------

enum class Schedule {
  kFragmentwise,  // two homes, amnesia crashes
  kQuorum,        // majority quorums, amnesia crashes
  kOmitPrep,      // §4.4.3 moves across partitions, amnesia crashes
  kMoveWithData,  // §4.4.2A moves, amnesia crashes
  kPaxos,         // Paxos Commit with several slots in flight, crashes
};

struct DiffParam {
  Schedule schedule;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<DiffParam>& info) {
  static const char* const kNames[] = {"Fragmentwise", "Quorum", "OmitPrep",
                                       "MoveWithData", "Paxos"};
  return std::string(kNames[static_cast<int>(info.param.schedule)]) + "_" +
         std::to_string(info.param.seed);
}

class CheckpointDifferential : public ::testing::TestWithParam<DiffParam> {};

TEST_P(CheckpointDifferential, StableImageEqualsFullCaptureAtEveryCommit) {
  const Schedule schedule = GetParam().schedule;
  const uint64_t seed = GetParam().seed;
  Rng rng(seed);
  const int kNodes = 5;
  const int kFragments = 2;
  ClusterConfig config;
  config.control = schedule == Schedule::kQuorum ? ControlOption::kQuorum
                                                 : ControlOption::kFragmentwise;
  config.read_quorum = 2;
  config.write_quorum = 4;
  switch (schedule) {
    case Schedule::kOmitPrep:
      config.move_protocol = MoveProtocol::kOmitPrep;
      break;
    case Schedule::kMoveWithData:
      config.move_protocol = MoveProtocol::kMoveWithData;
      break;
    case Schedule::kPaxos:
      config.move_protocol = MoveProtocol::kPaxosCommit;
      break;
    case Schedule::kFragmentwise:
    case Schedule::kQuorum:
      break;
  }
  config.durability.enabled = true;
  config.durability.checkpoint_interval = Millis(20);
  Cluster cluster(config, Topology::FullMesh(kNodes, Millis(4)));

  std::vector<FragmentId> frags;
  std::vector<std::vector<ObjectId>> objs(kFragments);
  std::vector<AgentId> agents;
  for (int i = 0; i < kFragments; ++i) {
    FragmentId f = cluster.DefineFragment("F" + std::to_string(i));
    frags.push_back(f);
    for (int k = 0; k < 3; ++k) {
      objs[i].push_back(*cluster.DefineObject(
          f, "o" + std::to_string(i) + "_" + std::to_string(k), 0));
    }
    AgentId a = cluster.DefineUserAgent("a" + std::to_string(i));
    agents.push_back(a);
    ASSERT_TRUE(cluster.AssignToken(f, a).ok());
    ASSERT_TRUE(cluster.SetAgentHome(a, i).ok());
  }

  // Per node: the full capture taken with the in-flight frame, whether
  // the next capture should trigger a crash, and the base frames seen in
  // the current incarnation. Only the node's own events touch its slot.
  struct NodeWatch {
    CheckpointImage expected;
    bool have_expected = false;
    bool crash_at_next_capture = false;
    uint64_t bases_seen = 0;
  };
  std::vector<NodeWatch> watch(kNodes);
  int commits = 0, delta_commits = 0, truncations = 0, slots_in_flight = 0;
  int mid_checkpoint_crashes = 0, moves = 0;
  std::vector<std::string> mismatches;

  auto crash = [&cluster, &watch, &mid_checkpoint_crashes](NodeId victim) {
    if (!cluster.topology().IsNodeUp(victim)) return;
    if (cluster.stable_storage(victim)->Exists(kCheckpointPendingFile)) {
      ++mid_checkpoint_crashes;
    }
    ASSERT_TRUE(cluster.CrashNode(victim, CrashMode::kAmnesia).ok());
    watch[victim] = NodeWatch{};
  };

  cluster.SetCheckpointObserver([&](NodeId n,
                                    NodeDurability::CheckpointStep step) {
    NodeWatch& w = watch[n];
    if (step == NodeDurability::CheckpointStep::kCaptured) {
      CheckpointImage full = cluster.CaptureCheckpoint(n);
      if (w.have_expected) {
        // A log entry of the previous frame that is gone or different now:
        // an epoch transition truncated the log between the two frames.
        for (size_t i = 0; i < full.streams.size(); ++i) {
          const StreamCheckpoint& before = w.expected.StreamFor(
              full.streams[i].fragment);
          const std::vector<QuasiRef>& now = full.streams[i].log;
          for (size_t j = 0; j < before.log.size(); ++j) {
            if (j >= now.size() || !(*before.log[j] == *now[j])) {
              ++truncations;
              break;
            }
          }
        }
      }
      for (const StreamCheckpoint& s : full.streams) {
        if (s.next_seq > s.applied_seq + 1) ++slots_in_flight;
      }
      w.expected = std::move(full);
      w.have_expected = true;
      if (w.crash_at_next_capture) {
        w.crash_at_next_capture = false;
        cluster.engine()->AtGlobal(cluster.Now() + Millis(1),
                                   [&crash, n] { crash(n); });
      }
      return;
    }
    ++commits;
    const uint64_t bases = cluster.durability(n)->stats().base_frames;
    if (bases == w.bases_seen) ++delta_commits;
    w.bases_seen = bases;
    CheckpointImage stable;
    if (!CheckpointImage::Decode(
            cluster.stable_storage(n)->Read(kCheckpointFile), &stable)) {
      mismatches.push_back("N" + std::to_string(n) + " at " +
                           std::to_string(cluster.Now()) + ": undecodable");
      return;
    }
    std::string diff = ImageDiff(w.expected, stable);
    if (!diff.empty()) {
      mismatches.push_back("N" + std::to_string(n) + " at " +
                           std::to_string(cluster.Now()) + ": " + diff);
    }
  });
  ASSERT_TRUE(cluster.Start().ok());

  const SimTime kEnd = Millis(1500);
  const bool paxos = schedule == Schedule::kPaxos;
  const SimTime every = paxos ? Millis(2) : Millis(10);
  for (SimTime t = 0; t < kEnd; t += every) {
    const int i = paxos ? 0 : static_cast<int>(rng.NextBelow(kFragments));
    const int k = static_cast<int>(rng.NextBelow(3));
    const Value v = 1 + static_cast<Value>(rng.NextBelow(9));
    cluster.engine()->AtGlobal(t, [&cluster, &agents, &frags, &objs, i, k,
                                   v] {
      TxnSpec spec;
      spec.agent = agents[i];
      spec.write_fragment = frags[i];
      ObjectId obj = objs[i][k];
      spec.read_set = {obj};
      spec.body = [obj, v](const std::vector<Value>& reads)
          -> Result<std::vector<WriteOp>> {
        return std::vector<WriteOp>{{obj, reads[0] + v}};
      };
      cluster.Submit(spec, nullptr);
    });
  }

  // Amnesia episodes: half strike at a random instant, half wait for the
  // victim's next checkpoint capture and strike while it is in flight.
  for (int episode = 0; episode < 8; ++episode) {
    const NodeId victim = static_cast<NodeId>(rng.NextBelow(kNodes));
    const SimTime at = static_cast<SimTime>(rng.NextBelow(kEnd - Millis(250)));
    const SimTime downtime =
        Millis(10 + static_cast<SimTime>(rng.NextBelow(190)));
    if (episode % 2 == 0) {
      cluster.engine()->AtGlobal(at, [&crash, victim] { crash(victim); });
    } else {
      cluster.engine()->AtGlobal(at, [&watch, victim] {
        watch[victim].crash_at_next_capture = true;
      });
    }
    cluster.engine()->AtGlobal(at + downtime, [&cluster, victim] {
      if (!cluster.IsAmnesiaDown(victim)) return;
      Status st = cluster.ReviveNode(victim, nullptr);
      ASSERT_TRUE(st.ok() || st.IsFailedPrecondition()) << st.ToString();
    });
  }

  if (schedule == Schedule::kOmitPrep ||
      schedule == Schedule::kMoveWithData) {
    for (int i = 0; i < 6; ++i) {
      const SimTime at = Millis(100) + Millis(200) * i;
      const AgentId agent = agents[rng.NextBelow(kFragments)];
      const NodeId to = static_cast<NodeId>(rng.NextBelow(kNodes));
      // §4.4.3 truncates the logs of replicas that ran ahead of the new
      // home: cut the new home off for a while around the move.
      cluster.engine()->AtGlobal(at - Millis(30), [&cluster, to] {
        std::vector<NodeId> rest;
        for (NodeId n = 0; n < kNodes; ++n) {
          if (n != to) rest.push_back(n);
        }
        (void)cluster.Partition({{to}, rest});
      });
      cluster.engine()->AtGlobal(at, [&cluster, &moves, agent, to] {
        (void)cluster.MoveAgent(agent, to, [&moves](Status st) {
          if (st.ok()) ++moves;
        });
      });
      cluster.engine()->AtGlobal(at + Millis(40),
                                 [&cluster] { cluster.HealAll(); });
    }
  }

  cluster.RunUntil(kEnd);
  cluster.HealAll();
  cluster.RunToQuiescence();
  for (NodeId n = 0; n < kNodes; ++n) {
    if (cluster.IsAmnesiaDown(n)) {
      ASSERT_TRUE(cluster.ReviveNode(n, nullptr).ok());
    }
  }
  cluster.RunToQuiescence();

  for (const std::string& m : mismatches) ADD_FAILURE() << m;
  EXPECT_GT(commits, 0);
  EXPECT_GT(delta_commits, 0);
  EXPECT_GT(mid_checkpoint_crashes, 0);
  if (schedule == Schedule::kOmitPrep) {
    EXPECT_GT(truncations, 0);
  }
  if (schedule == Schedule::kOmitPrep ||
      schedule == Schedule::kMoveWithData) {
    EXPECT_GT(moves, 0);
  }
  if (paxos) {
    EXPECT_GT(slots_in_flight, 0);
  }
}

std::vector<DiffParam> DiffParams() {
  std::vector<DiffParam> params;
  for (Schedule s : {Schedule::kFragmentwise, Schedule::kQuorum,
                     Schedule::kOmitPrep, Schedule::kMoveWithData,
                     Schedule::kPaxos}) {
    for (uint64_t seed : {3, 17, 29, 41}) params.push_back({s, seed});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Schedules, CheckpointDifferential,
                         ::testing::ValuesIn(DiffParams()), ParamName);

}  // namespace
}  // namespace fragdb

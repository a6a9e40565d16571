#include "verify/history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "verify/checkers.h"

namespace fragdb {
namespace {

QuasiTxn MakeQuasi(TxnId txn, FragmentId f, SeqNum seq,
                   std::vector<WriteOp> writes) {
  QuasiTxn q;
  q.origin_txn = txn;
  q.fragment = f;
  q.seq = seq;
  q.origin_node = 0;
  q.writes = std::move(writes);
  return q;
}

TEST(HistoryTest, RegisterAndCommit) {
  History h;
  TxnRecord rec;
  rec.id = 1;
  rec.agent = 0;
  rec.type_fragment = 0;
  rec.home = 0;
  h.RegisterTxn(rec);
  EXPECT_FALSE(h.FindTxn(1)->committed);
  h.MarkCommitted(1, 5);
  EXPECT_TRUE(h.FindTxn(1)->committed);
  EXPECT_EQ(h.FindTxn(1)->frag_seq, 5);
  EXPECT_EQ(h.FindTxn(99), nullptr);
}

TEST(HistoryTest, TxnIndexFindsSparseAndNegativeIds) {
  // The O(1) index buckets ids by range; ids far apart, negative ones and
  // a striped run must all resolve, and ids between them must not.
  const std::vector<TxnId> ids = {-7,      3,         4,
                                  1 << 20, TxnId{1} << 40, TxnId{1} << 62};
  const std::vector<TxnId> striped = [] {
    std::vector<TxnId> out;
    for (TxnId k = 0; k < 200; ++k) out.push_back(1 + k * 49 + k % 49);
    return out;
  }();
  for (const std::vector<TxnId>* set : {&ids, &striped}) {
    History h;
    for (TxnId id : *set) {
      TxnRecord rec;
      rec.id = id;
      rec.label = "T" + std::to_string(id);
      h.RegisterTxn(rec);
    }
    for (bool built : {false, true}) {
      if (built) h.PrepareLookups({});
      for (size_t i = 0; i < set->size(); ++i) {
        const TxnId id = (*set)[i];
        ASSERT_NE(h.FindTxn(id), nullptr) << id;
        EXPECT_EQ(h.FindTxn(id)->label, "T" + std::to_string(id));
        EXPECT_EQ(h.txns()[h.TxnIndex(id)].first, id);
        for (TxnId miss : {id - 1, id + 1}) {
          if (std::find(set->begin(), set->end(), miss) != set->end()) {
            continue;
          }
          EXPECT_EQ(h.FindTxn(miss), nullptr) << miss;
          EXPECT_EQ(h.TxnIndex(miss), History::kNoTxn) << miss;
        }
      }
      EXPECT_EQ(h.FindTxn(std::numeric_limits<TxnId>::max()), nullptr);
      EXPECT_EQ(h.FindTxn(std::numeric_limits<TxnId>::min()), nullptr);
    }
  }
}

TEST(HistoryTest, InstallOrderPerNode) {
  History h;
  h.RecordInstall(0, MakeQuasi(1, 0, 1, {{0, 1}}), 10);
  h.RecordInstall(1, MakeQuasi(1, 0, 1, {{0, 1}}), 20);
  h.RecordInstall(0, MakeQuasi(2, 0, 2, {{0, 2}}), 30);
  ASSERT_EQ(h.installs().size(), 3u);
  EXPECT_EQ(h.installs()[0].node_order, 0);
  EXPECT_EQ(h.installs()[1].node_order, 0);  // separate counter per node
  EXPECT_EQ(h.installs()[2].node_order, 1);
}

TEST(HistoryTest, UpdatersOfFiltersByFragmentAndCommit) {
  History h;
  for (TxnId id = 1; id <= 3; ++id) {
    TxnRecord rec;
    rec.id = id;
    rec.type_fragment = (id == 3) ? 1 : 0;
    h.RegisterTxn(rec);
  }
  h.MarkCommitted(1, 1);
  h.MarkCommitted(3, 1);
  // txn 2 uncommitted, txn 3 wrong fragment
  EXPECT_EQ(h.UpdatersOf(0), (std::vector<TxnId>{1}));
  EXPECT_EQ(h.UpdatersOf(1), (std::vector<TxnId>{3}));
}

TEST(HistoryTest, UpdatersExcludeReadOnly) {
  History h;
  TxnRecord rec;
  rec.id = 1;
  rec.type_fragment = 0;
  rec.read_only = true;
  h.RegisterTxn(rec);
  h.MarkCommitted(1, 0);
  EXPECT_TRUE(h.UpdatersOf(0).empty());
}

TEST(HistoryTest, WritesOfReturnsFirstInstallWriteSet) {
  History h;
  h.RecordInstall(0, MakeQuasi(1, 0, 1, {{0, 5}, {1, 6}}), 10);
  h.RecordInstall(2, MakeQuasi(1, 0, 1, {{0, 5}, {1, 6}}), 20);
  auto writes = h.WritesOf(1);
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_EQ(writes[0].object, 0);
  EXPECT_TRUE(h.WritesOf(42).empty());
}

TEST(HistoryTest, VersionsOfOrdersBySeqAndDedups) {
  History h;
  // Install the same versions at two nodes; chain must appear once.
  for (NodeId n = 0; n < 2; ++n) {
    h.RecordInstall(n, MakeQuasi(10, 0, 2, {{7, 20}}), 10);
    h.RecordInstall(n, MakeQuasi(9, 0, 1, {{7, 10}}), 5);
  }
  auto versions = h.VersionsOf(7);
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].first, 9);
  EXPECT_EQ(versions[0].second, 1);
  EXPECT_EQ(versions[1].first, 10);
  EXPECT_EQ(versions[1].second, 2);
}

TEST(HistoryTest, ReadsAccumulate) {
  History h;
  ReadRecord r;
  r.reader = 1;
  r.object = 3;
  r.version_writer = kInvalidTxn;
  r.version_seq = 0;
  h.RecordRead(r);
  EXPECT_EQ(h.reads().size(), 1u);
}

TEST(HistoryTest, LookupAfterMutationSeesTheMutation) {
  History h;
  TxnRecord w;
  w.id = 1;
  w.type_fragment = 0;
  h.RegisterTxn(w);
  h.MarkCommitted(1, 1);
  h.RecordInstall(0, MakeQuasi(1, 0, 1, {{10, 5}, {11, 6}}), 100);
  TxnRecord r;
  r.id = 2;
  r.read_only = true;
  h.RegisterTxn(r);
  h.MarkCommitted(2, 0);
  h.RecordRead({2, 1, 10, 1, 1, 200});
  EXPECT_TRUE(CheckProperty2(h, 0).ok);
  EXPECT_EQ(h.ReadsOn(0).size(), 1u);
  // T2 now misses T1's other write: a partial effect the next lookup
  // must see.
  h.RecordRead({2, 1, 11, kInvalidTxn, 0, 200});
  EXPECT_EQ(h.ReadsOn(0).size(), 2u);
  EXPECT_FALSE(CheckProperty2(h, 0).ok);
}

TEST(HistoryTest, CopiesAndMovesAnswerFromTheirOwnRecords) {
  History h;
  h.RecordInstall(0, MakeQuasi(1, 0, 1, {{10, 5}}), 100);
  h.RecordRead({2, 1, 10, 1, 1, 200});
  ASSERT_EQ(h.ReadsOn(0).size(), 1u);
  History copy = h;
  ASSERT_EQ(copy.ReadsOn(0).size(), 1u);
  EXPECT_EQ(copy.ReadsOn(0)[0], &copy.reads()[0]);
  // The copy's write sets live in its own arena, not the source's.
  EXPECT_EQ(copy.WritesOf(1).data(),
            copy.WritesOf(copy.installs()[0]).data());
  EXPECT_NE(copy.WritesOf(1).data(), h.WritesOf(1).data());
  History moved = std::move(copy);
  ASSERT_EQ(moved.ReadsOn(0).size(), 1u);
  EXPECT_EQ(moved.ReadsOn(0)[0], &moved.reads()[0]);
  copy = h;
  copy.RecordRead({3, 1, 10, kInvalidTxn, 0, 300});
  EXPECT_EQ(copy.ReadsOn(0).size(), 2u);
  EXPECT_EQ(h.ReadsOn(0).size(), 1u);
}

// ---------------------------------------------------------------------------
// Differential collapse: the compact History against a map-based model of
// the shard merge it replaces.
// ---------------------------------------------------------------------------

struct RefInstall {
  NodeId node;
  int incarnation;
  TxnId writer;
  FragmentId fragment;
  SeqNum seq;
  std::vector<WriteOp> writes;
  SimTime at;
  int64_t node_order;
  NodeId origin_node;
  SimTime origin_time;
};

// Every shard upserts its own map; absorbing merges records field-wise.
struct RefHistory {
  std::map<TxnId, TxnRecord> txns;
  std::vector<ReadRecord> reads;
  std::vector<RefInstall> installs;
  std::vector<CommitDecisionRecord> decisions;
  std::map<NodeId, int64_t> next_node_order;

  void Register(const TxnRecord& rec) { txns[rec.id] = rec; }
  void Mark(TxnId id, SeqNum seq) {
    TxnRecord& rec = txns[id];
    rec.id = id;
    rec.committed = true;
    rec.frag_seq = seq;
  }
  void Install(NodeId node, const QuasiTxn& q, SimTime at, int incarnation) {
    installs.push_back({node, incarnation, q.origin_txn, q.fragment, q.seq,
                        q.writes, at, next_node_order[node]++, q.origin_node,
                        q.origin_time});
  }
  // Returns the ids the shard marked committed.
  std::vector<TxnId> Absorb(RefHistory* shard) {
    std::vector<TxnId> committed;
    for (auto& [id, rec] : shard->txns) {
      if (rec.committed) committed.push_back(id);
      auto [it, inserted] = txns.try_emplace(id, rec);
      if (inserted) continue;
      TxnRecord& dst = it->second;
      if (rec.registered()) {
        const bool was_committed = dst.committed;
        const SeqNum was_seq = dst.frag_seq;
        dst = rec;
        if (was_committed && !dst.committed) {
          dst.committed = true;
          dst.frag_seq = was_seq;
        }
      } else if (rec.committed) {
        dst.committed = true;
        dst.frag_seq = rec.frag_seq;
      }
    }
    shard->txns.clear();
    reads.insert(reads.end(), shard->reads.begin(), shard->reads.end());
    shard->reads.clear();
    installs.insert(installs.end(), shard->installs.begin(),
                    shard->installs.end());
    shard->installs.clear();
    decisions.insert(decisions.end(), shard->decisions.begin(),
                     shard->decisions.end());
    shard->decisions.clear();
    for (const auto& [node, count] : shard->next_node_order) {
      next_node_order[node] = std::max(next_node_order[node], count);
    }
    return committed;
  }

  // The lookups, by brute force.
  std::vector<std::pair<TxnId, SeqNum>> VersionsOf(ObjectId object) const {
    std::set<std::pair<SeqNum, TxnId>> seen;
    for (const RefInstall& in : installs) {
      for (const WriteOp& w : in.writes) {
        if (w.object == object) seen.emplace(in.seq, in.writer);
      }
    }
    std::vector<std::pair<TxnId, SeqNum>> out;
    for (const auto& [seq, writer] : seen) out.emplace_back(writer, seq);
    return out;
  }
  std::vector<WriteOp> WritesOf(TxnId writer) const {
    for (const RefInstall& in : installs) {
      if (in.writer == writer) return in.writes;
    }
    return {};
  }
  std::vector<TxnId> UpdatersOf(FragmentId f) const {
    std::vector<TxnId> out;
    for (const auto& [id, rec] : txns) {
      if (rec.committed && !rec.read_only && rec.type_fragment == f) {
        out.push_back(id);
      }
    }
    return out;
  }
  std::set<FragmentId> FragmentsOf(ObjectId object) const {
    std::set<FragmentId> out;
    for (const RefInstall& in : installs) {
      for (const WriteOp& w : in.writes) {
        if (w.object == object) out.insert(in.fragment);
      }
    }
    return out;
  }
  std::string DebugString() const {
    std::string out;
    for (const auto& [id, rec] : txns) {
      out += "T" + std::to_string(id);
      if (!rec.label.empty()) out += " \"" + rec.label + "\"";
      out += rec.read_only ? " [ro]" : "";
      if (rec.type_fragment != kInvalidFragment) {
        out += " tp=F" + std::to_string(rec.type_fragment);
      }
      out += " home=N" + std::to_string(rec.home);
      out += rec.committed ? " committed seq=" + std::to_string(rec.frag_seq)
                           : " uncommitted";
      out += " writes=" + std::to_string(WritesOf(id).size()) + "\n";
    }
    return out;
  }
};

// Sparse, striped-looking ids, so nothing can index an array by them.
constexpr TxnId kTxnPool[] = {1, 2, 17, 33, 49, 1000003, 1000019};
constexpr ObjectId kObjectPool[] = {0, 5, 64, 900001, 123456789};

// Random records applied alike to a compact history and to the model.
struct Recorder {
  Rng rng;
  std::span<const TxnId> txn_pool = kTxnPool;
  std::span<const ObjectId> object_pool = kObjectPool;
  template <typename T>
  T Pick(std::span<const T> pool) {
    return pool[rng.NextBelow(pool.size())];
  }
  void Step(NodeId node, History* h, RefHistory* ref) {
    const TxnId id = Pick(txn_pool);
    switch (rng.NextBelow(5)) {
      case 0: {  // registration (a re-registration, when the id repeats)
        TxnRecord rec;
        rec.id = id;
        if (rng.NextBool(0.8)) rec.home = node;
        if (rng.NextBool(0.5)) rec.agent = static_cast<AgentId>(id % 3);
        if (rng.NextBool(0.7)) {
          rec.type_fragment = static_cast<FragmentId>(id % 3);
        }
        rec.read_only = rng.NextBool(0.2);
        if (rng.NextBool(0.2)) rec.label = "t" + std::to_string(id);
        rec.committed = rng.NextBool(0.2);
        rec.frag_seq = static_cast<SeqNum>(rng.NextBelow(4));
        h->RegisterTxn(rec);
        ref->Register(rec);
        break;
      }
      case 1: {  // commit mark, possibly repeating with another seq
        const SeqNum seq = static_cast<SeqNum>(1 + rng.NextBelow(9));
        h->MarkCommittedPartial(id, seq);
        ref->Mark(id, seq);
        break;
      }
      case 2: {
        QuasiTxn q;
        q.origin_txn = id;
        q.fragment = static_cast<FragmentId>(rng.NextBelow(3));
        q.seq = static_cast<SeqNum>(1 + rng.NextBelow(4));
        q.origin_node = static_cast<NodeId>(rng.NextBelow(3));
        q.origin_time = static_cast<SimTime>(rng.NextBelow(100));
        const size_t writes = rng.NextBelow(3);
        for (size_t i = 0; i < writes; ++i) {
          q.writes.push_back({Pick(object_pool),
                              static_cast<Value>(rng.NextBelow(50))});
        }
        const SimTime at = 100 + static_cast<SimTime>(rng.NextBelow(100));
        const int incarnation = static_cast<int>(rng.NextBelow(2));
        h->RecordInstall(node, q, at, incarnation);
        ref->Install(node, q, at, incarnation);
        break;
      }
      case 3: {
        ReadRecord r{id, node, Pick(object_pool), Pick(txn_pool),
                     static_cast<SeqNum>(rng.NextBelow(5)),
                     static_cast<SimTime>(rng.NextBelow(300))};
        h->RecordRead(r);
        ref->reads.push_back(r);
        break;
      }
      default: {
        CommitDecisionRecord d{node, static_cast<FragmentId>(id % 3),
                               static_cast<SeqNum>(rng.NextBelow(4)), id,
                               rng.NextBool(0.9),
                               static_cast<SimTime>(rng.NextBelow(300))};
        h->RecordDecision(d);
        ref->decisions.push_back(d);
        break;
      }
    }
  }
};

void ExpectSameHistory(const History& h, const RefHistory& ref,
                       std::span<const TxnId> txn_pool = kTxnPool,
                       std::span<const ObjectId> object_pool = kObjectPool) {
  ASSERT_EQ(h.txns().size(), ref.txns.size());
  auto it = ref.txns.begin();
  for (const auto& [id, rec] : h.txns()) {
    const TxnRecord& want = (it++)->second;
    EXPECT_EQ(id, want.id);
    EXPECT_EQ(rec.id, want.id);
    EXPECT_EQ(rec.agent, want.agent);
    EXPECT_EQ(rec.type_fragment, want.type_fragment);
    EXPECT_EQ(rec.home, want.home);
    EXPECT_EQ(rec.read_only, want.read_only);
    EXPECT_EQ(rec.committed, want.committed) << "T" << id;
    EXPECT_EQ(rec.frag_seq, want.frag_seq) << "T" << id;
    EXPECT_EQ(rec.label, want.label);
  }
  EXPECT_EQ(h.DebugString(), ref.DebugString());
  ASSERT_EQ(h.installs().size(), ref.installs.size());
  for (size_t i = 0; i < ref.installs.size(); ++i) {
    const InstallRecord& in = h.installs()[i];
    const RefInstall& want = ref.installs[i];
    EXPECT_EQ(in.node, want.node);
    EXPECT_EQ(in.incarnation, want.incarnation);
    EXPECT_EQ(in.writer, want.writer);
    EXPECT_EQ(in.fragment, want.fragment);
    EXPECT_EQ(in.seq, want.seq);
    std::span<const WriteOp> writes = h.WritesOf(in);
    EXPECT_EQ(std::vector<WriteOp>(writes.begin(), writes.end()),
              want.writes);
    EXPECT_EQ(in.at, want.at);
    EXPECT_EQ(in.node_order, want.node_order);
    EXPECT_EQ(in.origin_node, want.origin_node);
    EXPECT_EQ(in.origin_time, want.origin_time);
  }
  ASSERT_EQ(h.reads().size(), ref.reads.size());
  for (size_t i = 0; i < ref.reads.size(); ++i) {
    EXPECT_EQ(h.reads()[i].reader, ref.reads[i].reader);
    EXPECT_EQ(h.reads()[i].object, ref.reads[i].object);
    EXPECT_EQ(h.reads()[i].at, ref.reads[i].at);
  }
  ASSERT_EQ(h.decisions().size(), ref.decisions.size());
  for (size_t i = 0; i < ref.decisions.size(); ++i) {
    EXPECT_EQ(h.decisions()[i].node, ref.decisions[i].node);
    EXPECT_EQ(h.decisions()[i].txn, ref.decisions[i].txn);
    EXPECT_EQ(h.decisions()[i].at, ref.decisions[i].at);
  }
  for (ObjectId o : object_pool) {
    using Chain = std::vector<std::pair<TxnId, SeqNum>>;
    std::span<const std::pair<TxnId, SeqNum>> chain = h.VersionsOf(o);
    EXPECT_EQ(Chain(chain.begin(), chain.end()), ref.VersionsOf(o));
  }
  for (TxnId id : txn_pool) {
    std::span<const WriteOp> writes = h.WritesOf(id);
    EXPECT_EQ(std::vector<WriteOp>(writes.begin(), writes.end()),
              ref.WritesOf(id));
  }
  for (FragmentId f = kInvalidFragment; f < 3; ++f) {
    EXPECT_EQ(h.UpdatersOf(f), ref.UpdatersOf(f));
    std::vector<ObjectId> objects;
    for (ObjectId o : object_pool) {
      if (ref.FragmentsOf(o).count(f) > 0) objects.push_back(o);
    }
    std::sort(objects.begin(), objects.end());
    EXPECT_EQ(h.ObjectsOf(f), objects);
    std::vector<const ReadRecord*> reads;
    for (const ReadRecord& r : h.reads()) {
      std::set<FragmentId> fragments = ref.FragmentsOf(r.object);
      if (fragments.count(f) > 0 ||
          (fragments.empty() && f == kInvalidFragment)) {
        reads.push_back(&r);
      }
    }
    EXPECT_EQ(h.ReadsOn(f), reads);
  }
}

TEST(HistoryCollapseTest, MatchesMapMergeOverRandomShardSchedules) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Recorder rec{Rng(seed)};
    const size_t shard_count = rec.rng.NextBelow(5);  // 0..4, some empty
    History merged;
    std::vector<History> shards(shard_count);
    RefHistory ref_merged;
    std::vector<RefHistory> ref_shards(shard_count);
    // Two runs, so the second merge lands on a non-empty table and the
    // shards' install counters carry over.
    for (int run = 0; run < 2; ++run) {
      const size_t steps = rec.rng.NextBelow(40);
      for (size_t i = 0; i < steps; ++i) {
        // The merged history also records directly (global contexts).
        const size_t sink = rec.rng.NextBelow(shard_count + 1);
        if (sink == shard_count) {
          rec.Step(kInvalidNode, &merged, &ref_merged);
        } else {
          rec.Step(static_cast<NodeId>(sink), &shards[sink],
                   &ref_shards[sink]);
        }
      }
      const TxnId unregistered = merged.AbsorbShards(shards);
      std::vector<TxnId> committed;
      for (RefHistory& shard : ref_shards) {
        for (TxnId id : ref_merged.Absorb(&shard)) committed.push_back(id);
      }
      TxnId want = kInvalidTxn;
      for (TxnId id : committed) {
        if (!ref_merged.txns.at(id).registered() &&
            (want == kInvalidTxn || id < want)) {
          want = id;
        }
      }
      EXPECT_EQ(unregistered, want);
      ExpectSameHistory(merged, ref_merged);
      for (const History& shard : shards) {
        EXPECT_TRUE(shard.txns().empty());
        EXPECT_TRUE(shard.installs().empty());
      }
    }
  }
}

// The same model check on histories large enough for the collapse and
// lookup sorts to take their radix path, and, with ids spread over 2^62,
// their comparison-sort fallback (the packed key no longer fits in 64
// bits next to a record index).
TEST(HistoryCollapseTest, MatchesMapMergeOverLargeAndWideShardSchedules) {
  constexpr TxnId kWideTxnPool[] = {-5, 1, 2, 17, 1000003, TxnId{1} << 62};
  constexpr ObjectId kWideObjectPool[] = {-1, 0, 5, ObjectId{1} << 61};
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Recorder rec{Rng(seed)};
    if (seed % 2 == 0) {
      rec.txn_pool = kWideTxnPool;
      rec.object_pool = kWideObjectPool;
    }
    const size_t shard_count = 1 + rec.rng.NextBelow(4);
    History merged;
    std::vector<History> shards(shard_count);
    RefHistory ref_merged;
    std::vector<RefHistory> ref_shards(shard_count);
    for (int run = 0; run < 2; ++run) {
      const size_t steps = 600 + rec.rng.NextBelow(900);
      for (size_t i = 0; i < steps; ++i) {
        const size_t sink = rec.rng.NextBelow(shard_count + 1);
        if (sink == shard_count) {
          rec.Step(kInvalidNode, &merged, &ref_merged);
        } else {
          rec.Step(static_cast<NodeId>(sink), &shards[sink],
                   &ref_shards[sink]);
        }
      }
      merged.AbsorbShards(shards);
      for (RefHistory& shard : ref_shards) ref_merged.Absorb(&shard);
      ExpectSameHistory(merged, ref_merged, rec.txn_pool, rec.object_pool);
    }
  }
}

TEST(HistoryCollapseTest, CommitBeforeRegistrationInAnotherShard) {
  std::vector<History> shards(2);
  shards[0].MarkCommittedPartial(7, 4);
  TxnRecord rec;
  rec.id = 7;
  rec.home = 1;
  rec.type_fragment = 0;
  shards[1].RegisterTxn(rec);
  History merged;
  EXPECT_EQ(merged.AbsorbShards(shards), kInvalidTxn);
  ASSERT_NE(merged.FindTxn(7), nullptr);
  EXPECT_TRUE(merged.FindTxn(7)->committed);
  EXPECT_EQ(merged.FindTxn(7)->frag_seq, 4);
  EXPECT_EQ(merged.FindTxn(7)->home, 1);
}

}  // namespace
}  // namespace fragdb

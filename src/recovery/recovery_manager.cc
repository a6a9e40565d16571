#include "recovery/recovery_manager.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "core/cluster.h"
#include "recovery/checkpoint.h"
#include "recovery/node_durability.h"
#include "recovery/wal.h"

namespace fragdb {

void RecoveryManager::StartRecovery(NodeId node, RecoveryCallback done) {
  FRAGDB_CHECK(sessions_.count(node) == 0);
  Session& session = sessions_[node];
  session.id = next_recovery_id_++;
  session.done = std::move(done);
  session.stats.ran = true;
  session.stats.started_at = cluster_->engine()->Now();

  // Charge the simulated cost of reading stable storage up front, then
  // restore in one event. The node stays off the network until then, so
  // no traffic can interleave with a half-restored replica.
  const DurabilityConfig& cfg = cluster_->cfg().durability;
  StableStorage* stable = cluster_->stable_storage(node);
  SimTime load_delay = 0;
  if (stable->Exists(kCheckpointFile)) load_delay += cfg.checkpoint_load_time;
  WalScan scan = ScanWal(stable->Read(kWalFile));
  load_delay +=
      static_cast<SimTime>(scan.records.size()) * cfg.wal_replay_time_per_record;

  int64_t id = session.id;
  // The load completion rejoins the topology — shared state — so it runs
  // as a global event. StartRecovery itself is a global (revival is a
  // scenario/operator action), so the time is exact, and the stale-id
  // guard in LoadDone replaces event cancellation on Abort.
  SimEngine* engine = cluster_->engine();
  engine->AtGlobal(engine->Now() + load_delay,
                   [this, node, id] { LoadDone(node, id); });
}

void RecoveryManager::LoadDone(NodeId node, int64_t id) {
  auto it = sessions_.find(node);
  if (it == sessions_.end() || it->second.id != id) return;
  Session& s = it->second;
  RestoreLocal(node, &s);
  s.local_replay_done = true;
  s.stats.local_replay_done_at = cluster_->engine()->Now();
  cluster_->OnLocalReplayDone(node);  // node rejoins the network
  SendQueries(node, &s);
  MaybeFinish(node);
}

void RecoveryManager::RestoreLocal(NodeId node, Session* session) {
  StableStorage* stable = cluster_->stable_storage(node);
  NodeRuntime& rt = cluster_->runtime(node);
  SimTime now = cluster_->engine()->Now();

  // An interrupted checkpoint left its intent marker; the image it never
  // published is simply absent, so the marker is only cleaned up here.
  stable->Delete(kCheckpointPendingFile);

  CheckpointImage image;
  if (CheckpointImage::Decode(stable->Read(kCheckpointFile), &image)) {
    session->stats.checkpoint_loaded = true;
    rt.store().RestoreAll(image.versions);
    for (StreamCheckpoint& sc : image.streams) {
      FragmentStream& s = rt.stream(sc.fragment);
      s.epoch = sc.epoch;
      s.epoch_base = sc.epoch_base;
      s.applied_seq = sc.applied_seq;
      s.next_seq = sc.next_seq;
      // Reseat the applied lineage so the revived node can serve catch-up
      // suffixes (recovery replies, gap repair) for pre-crash seqs again.
      for (QuasiRef& q : sc.log) s.log.Put(std::move(q));
    }
  }

  WalScan scan = ScanWal(stable->Read(kWalFile));
  session->stats.wal_torn_tail = scan.torn;
  // The decoded records are this replay's own: their quasis move into the
  // shared records the stream log and Paxos slots keep.
  for (WalRecord& record : scan.records) {
    FragmentStream& s = rt.stream(record.fragment);
    if (record.type == WalRecord::Type::kEpochChange) {
      if (record.epoch <= s.epoch) {
        ++session->stats.wal_records_skipped;
        continue;
      }
      s.epoch = record.epoch;
      s.epoch_base = record.epoch_base;
      s.log.EraseGreaterThan(record.epoch_base);
      s.applied_seq = std::min(s.applied_seq, record.epoch_base);
      ++session->stats.wal_records_replayed;
      continue;
    }
    if (record.type == WalRecord::Type::kPaxosSlot) {
      // A proposer allocated this seq before the crash; acceptors may hold
      // its value, so the revived home must never hand the slot out again —
      // and until the slot's outcome lands, conflicting new work on the
      // fragment stays blocked (the slot's locks died with the crash). The
      // record carries the value, so the home can drive the decision even
      // when the crash beat the accept broadcast.
      if (record.epoch == s.epoch && record.quasi.seq > s.applied_seq) {
        s.next_seq = std::max(s.next_seq, record.quasi.seq + 1);
        cluster_->NotePaxosInDoubt(
            node, std::make_shared<const QuasiTxn>(std::move(record.quasi)),
            record.epoch);
        ++session->stats.wal_records_replayed;
      } else {
        ++session->stats.wal_records_skipped;
      }
      continue;
    }
    const QuasiTxn& q = record.quasi;
    if (record.epoch != s.epoch || q.seq <= s.applied_seq) {
      ++session->stats.wal_records_skipped;  // covered by the checkpoint
      continue;
    }
    // Replay writes the store directly: no scheduler, no history hooks, no
    // re-logging — the record is already durable.
    for (const WriteOp& w : q.writes) {
      rt.store().Write(w.object, w.value, q.origin_txn, q.seq, now);
    }
    s.applied_seq = q.seq;
    s.log.Put(std::make_shared<const QuasiTxn>(std::move(record.quasi)));
    ++session->stats.wal_records_replayed;
  }
  for (FragmentId f = 0; f < cluster_->catalog().fragment_count(); ++f) {
    FragmentStream& s = rt.stream(f);
    s.next_seq = std::max(s.next_seq, s.applied_seq + 1);
  }
}

void RecoveryManager::SendQueries(NodeId node, Session* session) {
  auto query = std::make_shared<RecoveryQuery>();
  query->requester = node;
  query->recovery_id = session->id;
  for (FragmentId f = 0; f < cluster_->catalog().fragment_count(); ++f) {
    if (!cluster_->catalog().ReplicatedAt(f, node)) continue;
    const FragmentStream& s = cluster_->runtime(node).stream(f);
    query->have.push_back({f, s.epoch, s.applied_seq});
  }
  for (NodeId peer = 0; peer < cluster_->node_count(); ++peer) {
    if (peer == node || !cluster_->topology().IsNodeUp(peer)) continue;
    ++session->expected_replies;
    ++session->stats.peers_queried;
    cluster_->network().Send(node, peer, query);
  }
  if (cluster_->tracing_active()) {
    cluster_->Trace("catch-up-start", node, kInvalidFragment, kInvalidTxn, 0,
                    "N" + std::to_string(node) + " querying " +
                        std::to_string(session->stats.peers_queried) +
                        " peers");
  }
  if (session->expected_replies == 0) {
    session->replies_closed = true;
    return;
  }
  int64_t id = session->id;
  session->pending_event = cluster_->engine()->AfterNode(
      node, cluster_->cfg().durability.recovery_reply_timeout,
      [this, node, id] {
        auto it = sessions_.find(node);
        if (it == sessions_.end() || it->second.id != id) return;
        it->second.replies_closed = true;
        MaybeFinish(node);
      });
}

void RecoveryManager::OnReply(NodeId node, const RecoveryReply& msg) {
  auto it = sessions_.find(node);
  if (it == sessions_.end() || msg.recovery_id != it->second.id) return;
  Session& session = it->second;
  ++session.stats.peers_replied;
  NodeRuntime& rt = cluster_->runtime(node);
  for (const RecoveryFragmentState& fs : msg.fragments) {
    if (!rt.ApplyCatchUpState(msg.replier, fs)) continue;
    session.stats.peer_quasis_fetched += fs.quasis.size();
    auto target = std::make_pair(fs.epoch, fs.applied_seq);
    auto& slot = session.targets[fs.fragment];
    slot = std::max(slot, target);
  }

  if (session.stats.peers_replied >= session.expected_replies) {
    session.replies_closed = true;
  }
  MaybeFinish(node);
}

void RecoveryManager::OnAppliedAdvanced(NodeId node, FragmentId fragment) {
  (void)fragment;
  if (sessions_.count(node) > 0) MaybeFinish(node);
}

bool RecoveryManager::TargetsMet(NodeId node, const Session& session) const {
  for (const auto& [fragment, target] : session.targets) {
    const FragmentStream& s = cluster_->runtime(node).stream(fragment);
    if (std::make_pair(s.epoch, s.applied_seq) < target) return false;
  }
  return true;
}

void RecoveryManager::MaybeFinish(NodeId node) {
  auto it = sessions_.find(node);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  if (!session.local_replay_done || !session.replies_closed) return;
  if (!TargetsMet(node, session)) return;

  // Completion touches cross-session maps and fires cluster callbacks:
  // hand off to a global event (once).
  if (session.finishing) return;
  session.finishing = true;
  SimEngine* engine = cluster_->engine();
  int64_t id = session.id;
  engine->AtGlobal(engine->Now(),
                   [this, node, id] { FinishSession(node, id); });
}

void RecoveryManager::FinishSession(NodeId node, int64_t id) {
  auto it = sessions_.find(node);
  if (it == sessions_.end() || it->second.id != id) return;
  Session& session = it->second;

  cluster_->engine()->CancelNode(node, session.pending_event);
  NodeRuntime& rt = cluster_->runtime(node);
  for (FragmentId f = 0; f < cluster_->catalog().fragment_count(); ++f) {
    FragmentStream& s = rt.stream(f);
    s.next_seq = std::max(s.next_seq, s.applied_seq + 1);
  }
  session.stats.finished_at = cluster_->engine()->Now();
  if (NodeDurability* d = cluster_->durability(node)) {
    d->ForceCheckpoint();  // bound the next recovery's WAL replay
  }
  cluster_->Trace(
      "recover", node, kInvalidFragment, kInvalidTxn, 0,
      "N" + std::to_string(node) + " replayed " +
          std::to_string(session.stats.wal_records_replayed) + " wal + " +
          std::to_string(session.stats.peer_quasis_fetched) + " peer quasis");

  RecoveryStats stats = session.stats;
  RecoveryCallback done = std::move(session.done);
  last_stats_[node] = stats;
  sessions_.erase(it);
  if (done) done(stats);
}

void RecoveryManager::Abort(NodeId node) {
  auto it = sessions_.find(node);
  if (it == sessions_.end()) return;
  cluster_->engine()->CancelNode(node, it->second.pending_event);
  sessions_.erase(it);
}

const RecoveryStats* RecoveryManager::LastStats(NodeId node) const {
  auto it = last_stats_.find(node);
  return it == last_stats_.end() ? nullptr : &it->second;
}

}  // namespace fragdb

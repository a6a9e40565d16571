#include "core/node.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "core/cluster.h"
#include "recovery/node_durability.h"
#include "recovery/recovery_manager.h"

namespace fragdb {

NodeRuntime::NodeRuntime(Cluster* cluster, NodeId id)
    : cluster_(cluster), id_(id) {
  store_ = std::make_unique<ObjectStore>(&cluster->catalog());
  locks_ = std::make_unique<LockManager>();
  Scheduler::Hooks hooks;
  hooks.on_read = [this](TxnId txn, ObjectId object, const VersionInfo& seen,
                         SimTime at) {
    ReadRecord r;
    r.reader = txn;
    r.node = id_;
    r.object = object;
    r.version_writer = seen.writer;
    r.version_seq = seen.frag_seq;
    r.at = at;
    cluster_->HistorySink(id_).RecordRead(r);
    if (ClusterInstruments* ins = cluster_->instruments()) {
      // Staleness is the age of the version served; initial values (never
      // written) carry no install time and are skipped.
      if (seen.writer != kInvalidTxn) {
        ins->ReadStaleness(id_)->Observe(at - seen.installed_at);
      }
    }
  };
  hooks.on_install = [this](NodeId node, const QuasiTxn& quasi, SimTime at,
                            SimTime origin_time) {
    cluster_->HistorySink(id_).RecordInstall(node, quasi, at, incarnation_,
                                             origin_time);
  };
  scheduler_ = std::make_unique<Scheduler>(id, cluster->engine(), store_.get(),
                                           locks_.get(),
                                           cluster->cfg().scheduler, hooks);
  streams_.resize(cluster->catalog().fragment_count());
  gap_repair_armed_.assign(streams_.size(), 0);
  gap_repair_strikes_.assign(streams_.size(), 0);
  if (ClusterInstruments* ins = cluster->instruments()) {
    LockManager::Observer lock_obs;
    lock_obs.now = [cluster] { return cluster->engine()->Now(); };
    lock_obs.on_grant = [h = ins->LockWait(id)](ResourceId, LockMode,
                                                SimTime waited) {
      h->Observe(waited);
    };
    lock_obs.on_release = [h = ins->LockHold(id)](ResourceId, SimTime held) {
      h->Observe(held);
    };
    locks_->SetObserver(std::move(lock_obs));
  }
}

namespace {
/// One visitor from a set of lambdas, one per payload type.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;
}  // namespace

void NodeRuntime::HandleMessage(const Message& msg) {
  const NodeId from = msg.from;
  Cluster* c = cluster_;
  const bool known = VisitCorePayload(
      *msg.payload,
      Overloaded{
          [&](const QuasiTxnMsg& m) { OnQuasi(m); },
          [&](const ReadLockRequest& m) { OnReadLockRequest(from, m); },
          [&](const ReadLockGrant& m) { c->OnRemoteLockGrant(id_, from, m); },
          [&](const ReadLockRelease& m) { OnReadLockRelease(m); },
          [&](const QuasiPrepare& m) { OnPrepare(from, m); },
          [&](const QuasiAck& m) { c->OnMajorityAck(id_, m); },
          [&](const QuasiCommit& m) { OnCommit(m); },
          [&](const M0Msg& m) { OnM0(m); },
          [&](const ForwardMissing& m) { OnForwardMissing(m); },
          [&](const RecoveryQuery& m) { OnRecoveryQuery(m); },
          [&](const RecoveryReply& m) { OnRecoveryReply(m); },
          [&](const QuorumReadRequest& m) { OnQuorumReadRequest(m); },
          [&](const QuorumReadReply& m) { c->OnQuorumReadReply(id_, m); },
          [&](const QuorumAppliedAck& m) { c->OnQuorumAppliedAck(id_, m); },
          [&](const PaxosAccept& m) { c->OnPaxosAccept(id_, m); },
          [&](const PaxosAccepted& m) { c->OnPaxosAccepted(id_, m); },
          [&](const PaxosOutcome& m) { c->OnPaxosOutcome(id_, m); },
      });
  if (!known) {
    FRAGDB_LOG(kWarning) << "node " << id_ << ": unknown message payload";
  }
}

// --------------------------------------------------------------------------
// Update stream machinery
// --------------------------------------------------------------------------

void NodeRuntime::OnQuasi(const QuasiTxnMsg& msg) {
  EnqueueQuasi(msg.quasi, msg.epoch);
}

void NodeRuntime::EnqueueQuasi(const QuasiRef& ref, Epoch epoch) {
  const QuasiTxn& quasi = *ref;
  FragmentStream& s = streams_[quasi.fragment];
  if (epoch < s.epoch) {
    // §4.4.3: an old-stream straggler arriving after the epoch moved on.
    Result<NodeId> home = cluster_->catalog().HomeOfFragment(quasi.fragment);
    if (home.ok() && *home == id_) {
      RepackageMissing(ref);
    } else if (home.ok()) {
      auto fwd = std::make_shared<ForwardMissing>();
      fwd->quasi = ref;
      fwd->old_epoch = epoch;
      cluster_->network().Send(id_, *home, fwd);
    }
    return;
  }
  if (epoch > s.epoch) {
    // New-epoch traffic before the M0 that opens the epoch (defensive:
    // per-channel FIFO normally prevents this).
    s.future[epoch].push_back(ref);
    return;
  }
  // During a pending transition, old-stream transactions past the base are
  // already doomed; forward them to the new home (§4.4.3 B(2)).
  if (s.transition.active && quasi.seq > s.transition.base_seq) {
    auto fwd = std::make_shared<ForwardMissing>();
    fwd->quasi = ref;
    fwd->old_epoch = epoch;
    cluster_->network().Send(id_, s.transition.new_home, fwd);
    return;
  }
  if (quasi.seq <= s.applied_seq || s.log.Contains(quasi.seq) ||
      s.holdback.Contains(quasi.seq)) {
    return;  // duplicate
  }
  s.holdback.Put(ref);
  gap_repair_strikes_[quasi.fragment] = 0;  // new evidence; repair retries
  if (ClusterInstruments* ins = cluster_->instruments()) {
    ins->HoldbackDepth(id_, quasi.fragment)
        ->Set(static_cast<int64_t>(s.holdback.size()));
  }
  TryInstallNext(quasi.fragment);
}

void NodeRuntime::TryInstallNext(FragmentId f) {
  FragmentStream& s = streams_[f];
  if (s.install_in_flight) return;
  QuasiRef next = s.holdback.Take(s.applied_seq + 1);
  if (!next) {
    // Later sequences are waiting but the next expected one is missing —
    // with a lossy network that may be a dropped message, never to arrive.
    if (!s.holdback.empty()) MaybeScheduleGapRepair(f);
    UpdateGapState(f);
    return;
  }
  s.install_in_flight = true;
  UpdateGapState(f);
  TxnId install_id = cluster_->NewTxnId();
  scheduler_->Install(std::move(next), install_id, [this, f](QuasiRef quasi) {
    FragmentStream& stream = streams_[f];
    const SeqNum seq = quasi->seq;
    const TxnId origin_txn = quasi->origin_txn;
    const NodeId origin_node = quasi->origin_node;
    const SimTime origin_time = quasi->origin_time;
    stream.applied_seq = seq;
    const QuasiTxn& logged = *quasi;  // the log keeps the record alive
    stream.log.Put(std::move(quasi));
    stream.install_in_flight = false;
    if (durability_) durability_->OnQuasiApplied(logged, stream.epoch);
    // Replication lag: commit at the origin to install here. The home's
    // own (re)install of its quasi-transaction is not replication.
    if (origin_node != id_) {
      // Quorum writes count applied replicas, not received ones: the home
      // defers the client until W replicas have actually installed, so the
      // ack only leaves here once the install callback has run.
      if (cluster_->ControlFor(f) == ControlOption::kQuorum) {
        auto ack = std::make_shared<QuorumAppliedAck>();
        ack->txn = origin_txn;
        ack->fragment = f;
        ack->seq = seq;
        ack->acker = id_;
        cluster_->network().Send(id_, origin_node, ack);
      }
      SimTime lag = cluster_->engine()->Now() - origin_time;
      if (ClusterInstruments* ins = cluster_->instruments()) {
        ins->ReplicationLag(id_, f)->Observe(lag);
      }
      if (ClusterTimelines* tl = cluster_->timelines()) {
        tl->ReplicationLag(id_).Observe(cluster_->engine()->Now(), lag);
      }
      if (AvailabilityTracker* av = cluster_->availability()) {
        av->OnInstallLag(id_, f, cluster_->engine()->Now(), lag);
      }
    }
    if (ClusterInstruments* ins = cluster_->instruments()) {
      ins->AppliedSeq(id_, f)->Set(stream.applied_seq);
      ins->HoldbackDepth(id_, f)
          ->Set(static_cast<int64_t>(stream.holdback.size()));
    }
    if (ClusterTimelines* tl = cluster_->timelines()) {
      tl->HoldbackDepth(id_).Observe(
          cluster_->engine()->Now(),
          static_cast<int64_t>(stream.holdback.size()));
    }
    if (cluster_->tracing_active()) {
      cluster_->Trace(TraceDetail::kInstall, id_, f, origin_txn, seq);
    }
    OnAppliedAdvanced(f);
    TryInstallNext(f);
  });
}

void NodeRuntime::UpdateGapState(FragmentId f) {
  AvailabilityTracker* av = cluster_->availability();
  if (av == nullptr) return;
  const FragmentStream& s = streams_[f];
  bool gap = !s.install_in_flight && !s.holdback.empty() &&
             s.holdback.Find(s.applied_seq + 1) == nullptr;
  av->SetGap(id_, f, cluster_->engine()->Now(), gap);
}

void NodeRuntime::OnAppliedAdvanced(FragmentId f) {
  gap_repair_strikes_[f] = 0;  // the stream moved; repair retries afresh
  MaybeCompleteTransition(f);
  if (!catchups_.empty()) {
    // A finishing session leaves the map, so walk a copy of the ids.
    std::vector<int64_t> ids;
    for (const auto& [id, session] : catchups_) ids.push_back(id);
    for (int64_t id : ids) MaybeFinishCatchUp(id);
  }
  cluster_->OnAppliedAdvanced(id_, f);
}

void NodeRuntime::MaybeCompleteTransition(FragmentId f) {
  FragmentStream& s = streams_[f];
  FragmentStream::PendingTransition& t = s.transition;
  if (!t.active) return;
  if (s.applied_seq < t.base_seq) {
    TryInstallNext(f);
    return;
  }
  // Old-stream holdback entries past the base leave the lineage: forward
  // them to the new home so it can repackage (§4.4.3 B(2)).
  for (const QuasiRef& quasi : s.holdback) {
    if (quasi->seq > t.base_seq) {
      auto fwd = std::make_shared<ForwardMissing>();
      fwd->quasi = quasi;
      fwd->old_epoch = s.epoch;
      cluster_->network().Send(id_, t.new_home, fwd);
    }
  }
  s.holdback.clear();
  // If this replica ran ahead of the new home, its extra installs are no
  // longer part of the official lineage; the new stream overwrites them.
  s.log.EraseGreaterThan(t.base_seq);
  s.applied_seq = std::min(s.applied_seq, t.base_seq);
  s.epoch = t.new_epoch;
  s.epoch_base = t.base_seq;
  // Prepared-but-uncommitted entries and early commit commands belong to
  // the abandoned stream.
  s.prepared.clear();
  s.early_commits.clear();
  t.active = false;
  if (durability_) durability_->OnEpochChanged(f, s.epoch, s.epoch_base);
  auto fut = s.future.find(s.epoch);
  if (fut != s.future.end()) {
    for (const QuasiRef& quasi : fut->second) {
      if (quasi->seq > s.applied_seq && !s.holdback.Contains(quasi->seq)) {
        s.holdback.Put(quasi);
      }
    }
    s.future.erase(fut);
  }
  TryInstallNext(f);
}

void NodeRuntime::RecordLocalCommit(const QuasiRef& quasi) {
  const FragmentId f = quasi->fragment;
  FragmentStream& s = streams_[f];
  s.log.Put(quasi);
  s.applied_seq = std::max(s.applied_seq, quasi->seq);
  if (durability_) durability_->OnQuasiApplied(*quasi, s.epoch);
  if (ClusterInstruments* ins = cluster_->instruments()) {
    ins->AppliedSeq(id_, f)->Set(s.applied_seq);
  }
}

// --------------------------------------------------------------------------
// §4.1 remote read locks
// --------------------------------------------------------------------------

void NodeRuntime::OnReadLockRequest(NodeId from, const ReadLockRequest& msg) {
  TxnId txn = msg.txn;
  FragmentId fragment = msg.fragment;
  locks_->Acquire(
      txn, FragmentResource(fragment), LockMode::kShared,
      [this, from, txn, fragment](Status st) {
        if (!st.ok()) return;  // released/cancelled before grant
        auto grant = std::make_shared<ReadLockGrant>();
        grant->txn = txn;
        grant->fragment = fragment;
        cluster_->network().Send(id_, from, grant);
      });
}

void NodeRuntime::OnReadLockRelease(const ReadLockRelease& msg) {
  if (!locks_->CancelWait(msg.txn, FragmentResource(msg.fragment))) {
    locks_->Release(msg.txn, FragmentResource(msg.fragment));
  }
}

// --------------------------------------------------------------------------
// §4.4.1 majority commit
// --------------------------------------------------------------------------

void NodeRuntime::OnPrepare(NodeId from, const QuasiPrepare& msg) {
  const QuasiTxn& quasi = *msg.quasi;
  FragmentStream& s = streams_[quasi.fragment];
  SeqNum seq = quasi.seq;
  if (seq <= s.applied_seq || s.log.Contains(seq)) {
    // Already installed (duplicate); still acknowledge.
  } else if (s.early_commits.count(seq) > 0) {
    s.early_commits.erase(seq);
    s.holdback.Put(msg.quasi);
    TryInstallNext(quasi.fragment);
  } else {
    s.prepared.Put(msg.quasi);
  }
  auto ack = std::make_shared<QuasiAck>();
  ack->txn = quasi.origin_txn;
  ack->fragment = quasi.fragment;
  ack->seq = seq;
  ack->acker = id_;
  cluster_->network().Send(id_, from, ack);
}

void NodeRuntime::OnCommit(const QuasiCommit& msg) {
  FragmentStream& s = streams_[msg.fragment];
  QuasiRef quasi = s.prepared.Take(msg.seq);
  if (!quasi) {
    if (msg.seq > s.applied_seq && !s.log.Contains(msg.seq)) {
      s.early_commits.insert(msg.seq);
    }
    return;
  }
  if (quasi->seq > s.applied_seq && !s.holdback.Contains(quasi->seq) &&
      !s.log.Contains(quasi->seq)) {
    s.holdback.Put(std::move(quasi));
  }
  TryInstallNext(msg.fragment);
}

// --------------------------------------------------------------------------
// §4.4.3 omit-prep move
// --------------------------------------------------------------------------

void NodeRuntime::BeginOmitPrepEpoch(FragmentId fragment) {
  FragmentStream& s = streams_[fragment];
  // This node is the new home. Seal its view of the old stream: the
  // contiguously applied prefix becomes the new base.
  s.epoch += 1;
  s.epoch_base = s.applied_seq;
  s.next_seq = s.applied_seq + 1;
  s.prepared.clear();
  s.early_commits.clear();
  // Holdback entries beyond the contiguous prefix are old-stream
  // transactions with gaps before them; they are "missing transactions
  // that have just been found" (§4.4.3 A(2)) and get repackaged.
  QuasiSeqMap leftover;
  leftover.swap(s.holdback);
  s.transition.active = false;
  if (durability_) durability_->OnEpochChanged(fragment, s.epoch, s.epoch_base);

  auto m0 = std::make_shared<M0Msg>();
  m0->fragment = fragment;
  m0->new_home = id_;
  m0->new_epoch = s.epoch;
  m0->base_seq = s.epoch_base;
  for (const QuasiRef& quasi : s.log) {
    if (quasi->seq <= s.epoch_base) m0->old_stream.push_back(quasi);
  }
  Status st = cluster_->SendToReplicas(id_, fragment, m0);
  FRAGDB_CHECK(st.ok());

  for (const QuasiRef& quasi : leftover) RepackageMissing(quasi);
}

void NodeRuntime::OnM0(const M0Msg& msg) {
  BeginEpochTransition(msg.fragment, msg.new_epoch, msg.base_seq,
                       msg.new_home, msg.old_stream);
}

bool NodeRuntime::BeginEpochTransition(
    FragmentId fragment, Epoch new_epoch, SeqNum base_seq, NodeId new_home,
    const std::vector<QuasiRef>& old_stream) {
  FragmentStream& s = streams_[fragment];
  if (new_epoch <= s.epoch) return false;  // duplicate / superseded
  if (s.transition.active && new_epoch <= s.transition.new_epoch) {
    return false;
  }
  s.transition.new_epoch = new_epoch;
  s.transition.base_seq = base_seq;
  s.transition.new_home = new_home;
  s.transition.active = true;
  // Catch up from the M0 content (§4.4.3 B(1)).
  for (const QuasiRef& quasi : old_stream) {
    if (quasi->seq > s.applied_seq && !s.log.Contains(quasi->seq) &&
        !s.holdback.Contains(quasi->seq)) {
      s.holdback.Put(quasi);
    }
  }
  MaybeCompleteTransition(fragment);
  return true;
}

void NodeRuntime::OnForwardMissing(const ForwardMissing& msg) {
  Result<NodeId> home =
      cluster_->catalog().HomeOfFragment(msg.quasi->fragment);
  if (!home.ok()) return;
  if (*home == id_) {
    RepackageMissing(msg.quasi);
  } else {
    // The agent moved again; pass it along.
    auto fwd = std::make_shared<ForwardMissing>(msg);
    cluster_->network().Send(id_, *home, fwd);
  }
}

void NodeRuntime::RepackageMissing(const QuasiRef& ref) {
  const QuasiTxn& missing = *ref;
  if (repackaged_.count(missing.origin_txn) > 0) return;
  repackaged_.insert(missing.origin_txn);
  FragmentId f = missing.fragment;
  FragmentStream& s = streams_[f];
  // §4.4.3 A(2): drop updates to items already overwritten by more recent
  // transactions. "More recent" means written by the new stream (frag_seq
  // beyond the epoch base) or by a later old-stream transaction.
  std::vector<WriteOp> kept;
  for (const WriteOp& w : missing.writes) {
    const VersionInfo& current = store_->Info(w.object);
    if (current.frag_seq <= s.epoch_base && current.frag_seq < missing.seq) {
      kept.push_back(w);
    }
  }
  cluster_->CommitRepackaged(id_, f, ref, std::move(kept));
}

// --------------------------------------------------------------------------
// §4.4.2A move-with-data
// --------------------------------------------------------------------------

void NodeRuntime::AdoptSnapshot(const ObjectStore::FragmentSnapshot& snapshot,
                                SeqNum applied_seq, QuasiSeqMap log) {
  FragmentId f = snapshot.fragment;
  FragmentStream& s = streams_[f];
  // The carried copy is at least as fresh as anything this replica has
  // (it came from the fragment's only update source).
  store_->InstallSnapshot(snapshot);
  s.applied_seq = std::max(s.applied_seq, applied_seq);
  s.next_seq = s.applied_seq + 1;
  s.log = std::move(log);
  // Quasi-transactions the snapshot already covers are duplicates now.
  s.holdback.EraseLessEqual(s.applied_seq);
  // The adopted contents never went through the WAL; checkpoint them so
  // a crash right after the move does not roll the fragment back.
  if (durability_) durability_->ForceCheckpoint();
  TryInstallNext(f);
}

// --------------------------------------------------------------------------
// §4.4.1 move catch-up
// --------------------------------------------------------------------------

void NodeRuntime::MajorityCatchUp(const std::vector<FragmentId>& tokens,
                                  std::function<void()> done) {
  const int64_t id = NextQueryId();
  CatchUpSession& session = catchups_[id];
  session.done = std::move(done);
  auto query = std::make_shared<RecoveryQuery>();
  query->requester = id_;
  query->recovery_id = id;
  std::set<NodeId> peers;
  for (FragmentId f : tokens) {
    const FragmentStream& s = streams_[f];
    session.tokens.push_back({f, 1, {s.epoch, s.applied_seq}});
    query->have.push_back({f, s.epoch, s.applied_seq});
    peers.insert(cluster_->replicas_[f].begin(), cluster_->replicas_[f].end());
  }
  peers.erase(id_);
  for (NodeId peer : peers) cluster_->network().Send(id_, peer, query);
  MaybeFinishCatchUp(id);
}

void NodeRuntime::OnCatchUpReply(CatchUpSession& session,
                                 const RecoveryReply& msg) {
  for (const RecoveryFragmentState& fs : msg.fragments) {
    const bool current = ApplyCatchUpState(msg.replier, fs);
    for (CatchUpSession::Token& t : session.tokens) {
      if (t.fragment != fs.fragment) continue;
      ++t.replies;
      if (current) {
        t.target = std::max(t.target, std::make_pair(fs.epoch, fs.applied_seq));
      }
    }
  }
}

void NodeRuntime::MaybeFinishCatchUp(int64_t id) {
  auto it = catchups_.find(id);
  if (it == catchups_.end()) return;
  for (const CatchUpSession::Token& t : it->second.tokens) {
    const FragmentStream& s = streams_[t.fragment];
    if (t.replies < cluster_->MajoritySizeFor(t.fragment) ||
        std::make_pair(s.epoch, s.applied_seq) < t.target) {
      return;
    }
  }
  for (const CatchUpSession::Token& t : it->second.tokens) {
    FragmentStream& s = streams_[t.fragment];
    s.next_seq = s.applied_seq + 1;
  }
  std::function<void()> done = std::move(it->second.done);
  catchups_.erase(it);
  if (done) done();
}

// --------------------------------------------------------------------------
// Crash recovery
// --------------------------------------------------------------------------

void NodeRuntime::WipeVolatile() {
  store_->Reset();
  locks_->Clear();
  scheduler_->Reset();
  streams_.assign(cluster_->catalog().fragment_count(), FragmentStream{});
  if (AvailabilityTracker* av = cluster_->availability()) {
    // Holdback evidence died with the volatile state; the node-down flag
    // carries the unavailability from here.
    for (FragmentId f = 0; f < cluster_->catalog().fragment_count(); ++f) {
      av->SetGap(id_, f, cluster_->engine()->Now(), false);
    }
  }
  catchups_.clear();
  repackaged_.clear();
  durability_ = nullptr;
  gap_repair_armed_.assign(streams_.size(), 0);
  gap_repair_strikes_.assign(streams_.size(), 0);
  ++incarnation_;
}

void NodeRuntime::OnRecoveryQuery(const RecoveryQuery& msg) {
  auto reply = std::make_shared<RecoveryReply>();
  reply->replier = id_;
  reply->recovery_id = msg.recovery_id;
  for (const RecoveryPosition& pos : msg.have) {
    if (!cluster_->catalog().ReplicatedAt(pos.fragment, id_)) continue;
    const FragmentStream& s = streams_[pos.fragment];
    RecoveryFragmentState state;
    state.fragment = pos.fragment;
    state.epoch = s.epoch;
    state.epoch_base = s.epoch_base;
    state.applied_seq = s.applied_seq;
    // If the requester's durable position is in an older epoch, its
    // sequence only orders the shared prefix (up to the transition base):
    // everything past that must be resent.
    SeqNum from = pos.epoch == s.epoch
                      ? pos.applied_seq
                      : std::min(pos.applied_seq, s.epoch_base);
    state.quasis.assign(s.log.UpperBound(from), s.log.end());
    reply->fragments.push_back(std::move(state));
  }
  cluster_->network().Send(id_, msg.requester, reply);
}

void NodeRuntime::OnRecoveryReply(const RecoveryReply& msg) {
  if (msg.recovery_id > 0) {
    if (RecoveryManager* rm = cluster_->recovery_manager()) {
      rm->OnReply(id_, msg);
    }
    return;
  }
  auto it = catchups_.find(msg.recovery_id);
  if (it != catchups_.end()) {
    OnCatchUpReply(it->second, msg);
    MaybeFinishCatchUp(msg.recovery_id);
    return;
  }
  // Gap repair, or a catch-up that already finished: the suffix is still
  // worth installing.
  for (const RecoveryFragmentState& fs : msg.fragments) {
    ApplyCatchUpState(msg.replier, fs);
  }
}

bool NodeRuntime::ApplyCatchUpState(NodeId replier,
                                    const RecoveryFragmentState& fs) {
  FragmentStream& s = streams_[fs.fragment];
  Epoch local_epoch = s.transition.active ? s.transition.new_epoch : s.epoch;
  if (fs.epoch < local_epoch) return false;  // the peer is the stale one
  if (fs.epoch > local_epoch) {
    // The fragment moved epochs while this node was down or cut off. Adopt
    // the peer's epoch through the ordinary §4.4.3 transition machinery
    // (an M0 equivalent with no old-stream content; the reply's quasis
    // carry it instead).
    Result<NodeId> home = cluster_->catalog().HomeOfFragment(fs.fragment);
    BeginEpochTransition(fs.fragment, fs.epoch, fs.epoch_base,
                         home.ok() ? *home : replier, {});
  }
  for (const QuasiRef& q : fs.quasis) {
    // Old-lineage entries enqueue under the node's current epoch,
    // new-stream entries under the reply's; EnqueueQuasi's epoch rules
    // route both correctly (including mid-transition).
    Epoch at = (fs.epoch > s.epoch && q->seq <= fs.epoch_base) ? s.epoch
                                                               : fs.epoch;
    EnqueueQuasi(q, at);
  }
  return true;
}

void NodeRuntime::OnQuorumReadRequest(const QuorumReadRequest& msg) {
  auto reply = std::make_shared<QuorumReadReply>();
  reply->txn = msg.txn;
  reply->fragment = msg.fragment;
  reply->replier = id_;
  reply->objects = msg.objects;
  for (ObjectId o : msg.objects) {
    const VersionInfo& info = store_->Info(o);
    reply->values.push_back(info.value);
    reply->seqs.push_back(info.frag_seq);
    reply->writers.push_back(info.writer);
  }
  cluster_->network().Send(id_, msg.requester, reply);
}

// --------------------------------------------------------------------------
// Loss gap repair
// --------------------------------------------------------------------------

namespace {
/// Consecutive fruitless repair ticks before the repairer stops retrying a
/// fragment (until new stream activity resets the count). Keeps an
/// unresolvable gap from keeping the event queue non-empty forever.
constexpr int kGapRepairMaxStrikes = 64;
}  // namespace

void NodeRuntime::MaybeScheduleGapRepair(FragmentId f) {
  SimTime interval = cluster_->cfg().gap_repair_interval;
  if (interval <= 0) return;
  if (gap_repair_armed_[f] || gap_repair_strikes_[f] >= kGapRepairMaxStrikes) {
    return;
  }
  FragmentStream& s = streams_[f];
  if (s.install_in_flight || s.transition.active) return;
  if (s.holdback.empty() || s.holdback.Find(s.applied_seq + 1) != nullptr) {
    return;  // no gap
  }
  Result<NodeId> home = cluster_->catalog().HomeOfFragment(f);
  if (!home.ok() || *home == id_) return;  // nobody upstream to ask
  gap_repair_armed_[f] = 1;
  cluster_->engine()->AfterNode(id_, interval, [this, f] { GapRepairTick(f); });
}

void NodeRuntime::GapRepairTick(FragmentId f) {
  if (!gap_repair_armed_[f]) return;  // canceled (e.g. by WipeVolatile)
  gap_repair_armed_[f] = 0;
  FragmentStream& s = streams_[f];
  if (s.install_in_flight || s.transition.active || s.holdback.empty() ||
      s.holdback.Find(s.applied_seq + 1) != nullptr) {
    TryInstallNext(f);  // the gap closed (or is closing) on its own
    return;
  }
  Result<NodeId> home = cluster_->catalog().HomeOfFragment(f);
  if (!home.ok() || *home == id_) return;
  ++gap_repair_strikes_[f];
  SendGapRepairQuery(*home, {RecoveryPosition{f, s.epoch, s.applied_seq}});
  MaybeScheduleGapRepair(f);  // re-arm: the query or reply may be lost too
}

void NodeRuntime::SendGapRepairQuery(NodeId home,
                                     std::vector<RecoveryPosition> have) {
  auto query = std::make_shared<RecoveryQuery>();
  query->requester = id_;
  query->recovery_id = NextQueryId();
  query->have = std::move(have);
  cluster_->network().Send(id_, home, query);
}

void NodeRuntime::GapRepairSweep() {
  std::map<NodeId, std::vector<RecoveryPosition>> by_home;
  const Catalog& catalog = cluster_->catalog();
  for (FragmentId f = 0; f < catalog.fragment_count(); ++f) {
    if (!catalog.ReplicatedAt(f, id_)) continue;
    Result<NodeId> home = catalog.HomeOfFragment(f);
    if (!home.ok() || *home == id_) continue;
    const FragmentStream& s = streams_[f];
    by_home[*home].push_back(RecoveryPosition{f, s.epoch, s.applied_seq});
  }
  for (auto& [home, have] : by_home) {
    SendGapRepairQuery(home, std::move(have));
  }
}

}  // namespace fragdb

#include "cc/scheduler.h"

#include <utility>

#include "common/logging.h"

namespace fragdb {

Scheduler::Scheduler(NodeId node, SimEngine* engine, ObjectStore* store,
                     LockManager* locks, Config config, Hooks hooks)
    : node_(node),
      engine_(engine),
      store_(store),
      locks_(locks),
      config_(config),
      hooks_(std::move(hooks)) {}

void Scheduler::Prepare(TxnId id, TxnSpec spec, bool write_lock_preacquired,
                        std::function<void(TxnResult)> prepared) {
  const bool take_lock = !spec.read_only() && !write_lock_preacquired;
  const ResourceId resource = FragmentResource(spec.write_fragment);
  // One closure owns the spec and the continuation until the result is
  // handed over. It runs once — with the lock grant's status, or with Ok
  // when no lock is taken — and moves both on into the exec event.
  auto run = [this, id, spec = std::move(spec),
              prepared = std::move(prepared)](Status granted) mutable {
    if (!granted.ok()) {
      TxnResult result;
      result.id = id;
      result.status = std::move(granted);
      result.finished_at = engine_->Now();
      prepared(std::move(result));
      return;
    }
    engine_->AfterNode(node_, config_.exec_time,
                       [this, gen = generation_, id, spec = std::move(spec),
                        prepared = std::move(prepared)] {
                         // The node crashed meanwhile.
                         if (gen != generation_) return;
                         prepared(Execute(id, spec));
                       });
  };
  if (!take_lock) {
    run(Status::Ok());
    return;
  }
  locks_->Acquire(id, resource, LockMode::kExclusive, std::move(run));
}

TxnResult Scheduler::Execute(TxnId id, const TxnSpec& spec) {
  TxnResult result;
  result.id = id;
  // Read the declared read set from the local replica, atomically (this
  // whole function runs inside one simulator event).
  result.reads.reserve(spec.read_set.size());
  for (ObjectId o : spec.read_set) {
    const VersionInfo& seen = store_->Info(o);
    result.reads.push_back(seen.value);
    if (hooks_.on_read) hooks_.on_read(id, o, seen, engine_->Now());
  }
  Result<std::vector<WriteOp>> body_out = spec.body
      ? spec.body(result.reads)
      : Result<std::vector<WriteOp>>(std::vector<WriteOp>{});
  result.finished_at = engine_->Now();
  if (!body_out.ok()) {
    result.status = body_out.status();
    return result;
  }
  if (spec.read_only() && !body_out->empty()) {
    result.status =
        Status::PermissionDenied("read-only transaction attempted to write");
    return result;
  }
  // Initiation requirement (paper §3.2): every object modified must be
  // contained in the initiating agent's fragment.
  for (const WriteOp& w : *body_out) {
    if (!store_->catalog()->ValidObject(w.object) ||
        store_->catalog()->FragmentOf(w.object) != spec.write_fragment) {
      result.status = Status::PermissionDenied(
          "write outside the initiating agent's fragment");
      return result;
    }
  }
  result.writes = std::move(*body_out);
  return result;
}

void Scheduler::CommitPrepared(TxnId id, FragmentId fragment,
                               const std::vector<WriteOp>& writes, SeqNum seq,
                               bool release_locks) {
  QuasiTxn quasi;
  quasi.origin_txn = id;
  quasi.fragment = fragment;
  quasi.seq = seq;
  quasi.origin_node = node_;
  quasi.origin_time = engine_->Now();
  quasi.writes = writes;
  for (const WriteOp& w : writes) {
    store_->Write(w.object, w.value, id, seq, engine_->Now());
  }
  if (hooks_.on_install) hooks_.on_install(node_, quasi, engine_->Now());
  if (release_locks) locks_->ReleaseAll(id);
}

void Scheduler::AbortPrepared(TxnId id, bool release_locks) {
  if (release_locks) locks_->ReleaseAll(id);
}

void Scheduler::Reset() {
  ++generation_;
  installs_.clear();
  free_installs_.clear();
}

void Scheduler::Install(QuasiTxn quasi, TxnId install_id, InstallDone done) {
  uint32_t slot;
  if (free_installs_.empty()) {
    slot = static_cast<uint32_t>(installs_.size());
    installs_.emplace_back();
  } else {
    slot = free_installs_.back();
    free_installs_.pop_back();
  }
  const ResourceId resource = FragmentResource(quasi.fragment);
  PendingInstall& pending = installs_[slot];
  pending.quasi = std::move(quasi);
  pending.install_id = install_id;
  pending.done = std::move(done);
  locks_->Acquire(install_id, resource, LockMode::kExclusive,
                  [this, slot](Status st) {
                    // Quasi-transactions are never deadlock victims: they
                    // request a single resource, so they cannot close a
                    // waits-for cycle.
                    FRAGDB_CHECK(st.ok());
                    engine_->AfterNode(node_, config_.install_time,
                                       [this, gen = generation_, slot] {
                                         // The node crashed meanwhile.
                                         if (gen != generation_) return;
                                         FinishInstall(slot);
                                       });
                  });
}

void Scheduler::FinishInstall(uint32_t slot) {
  PendingInstall p = std::move(installs_[slot]);
  free_installs_.push_back(slot);
  const QuasiTxn& quasi = p.quasi;
  for (const WriteOp& w : quasi.writes) {
    store_->Write(w.object, w.value, quasi.origin_txn, quasi.seq,
                  engine_->Now());
  }
  if (hooks_.on_install) hooks_.on_install(node_, quasi, engine_->Now());
  locks_->Release(p.install_id, FragmentResource(quasi.fragment));
  p.done(std::move(p.quasi));
}

}  // namespace fragdb

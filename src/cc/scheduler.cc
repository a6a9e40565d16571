#include "cc/scheduler.h"

#include <utility>

#include "common/logging.h"

namespace fragdb {

namespace {
/// A free slot of `slots` (reused from `free` when one is), grown by one
/// default entry otherwise.
template <typename T>
uint32_t TakeSlot(std::vector<T>& slots, std::vector<uint32_t>& free) {
  if (free.empty()) {
    slots.emplace_back();
    return static_cast<uint32_t>(slots.size() - 1);
  }
  const uint32_t slot = free.back();
  free.pop_back();
  return slot;
}
}  // namespace

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
  const uint32_t slot = TakeSlot(prepares_, free_prepares_);
  PendingPrepare& pending = prepares_[slot];
  pending.id = id;
  pending.spec = std::move(spec);
  pending.prepared = std::move(prepared);
  if (!take_lock) {
    ScheduleExecute(slot);
    return;
  }
  locks_->Acquire(id, resource, LockMode::kExclusive,
                  [this, slot](Status granted) {
                    if (granted.ok()) {
                      ScheduleExecute(slot);
                      return;
                    }
                    TxnResult result;
                    result.id = prepares_[slot].id;
                    result.status = std::move(granted);
                    result.finished_at = engine_->Now();
                    FinishPrepare(slot, std::move(result));
                  });
}

void Scheduler::ScheduleExecute(uint32_t slot) {
  engine_->AfterNode(node_, config_.exec_time,
                     [this, gen = generation_, slot] {
                       // The node crashed meanwhile.
                       if (gen != generation_) return;
                       const PendingPrepare& p = prepares_[slot];
                       FinishPrepare(slot, Execute(p.id, p.spec));
                     });
}

void Scheduler::FinishPrepare(uint32_t slot, TxnResult result) {
  PendingPrepare p = std::move(prepares_[slot]);
  free_prepares_.push_back(slot);
  p.prepared(std::move(result));
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

void Scheduler::CommitPrepared(const QuasiTxn& quasi, bool release_locks) {
  const SimTime now = engine_->Now();
  for (const WriteOp& w : quasi.writes) {
    store_->Write(w.object, w.value, quasi.origin_txn, quasi.seq, now);
  }
  if (hooks_.on_install) hooks_.on_install(node_, quasi, now, now);
  if (release_locks) locks_->ReleaseAll(quasi.origin_txn);
}

void Scheduler::AbortPrepared(TxnId id, bool release_locks) {
  if (release_locks) locks_->ReleaseAll(id);
}

void Scheduler::Reset() {
  ++generation_;
  installs_.clear();
  free_installs_.clear();
  prepares_.clear();
  free_prepares_.clear();
}

void Scheduler::Install(QuasiRef quasi, TxnId install_id, InstallDone done) {
  const uint32_t slot = TakeSlot(installs_, free_installs_);
  const ResourceId resource = FragmentResource(quasi->fragment);
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
  const QuasiTxn& quasi = *p.quasi;
  for (const WriteOp& w : quasi.writes) {
    store_->Write(w.object, w.value, quasi.origin_txn, quasi.seq,
                  engine_->Now());
  }
  if (hooks_.on_install) {
    hooks_.on_install(node_, quasi, engine_->Now(), quasi.origin_time);
  }
  locks_->Release(p.install_id, FragmentResource(quasi.fragment));
  p.done(std::move(p.quasi));
}

}  // namespace fragdb

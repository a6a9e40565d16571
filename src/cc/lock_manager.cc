#include "cc/lock_manager.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.h"

namespace fragdb {

void LockManager::WaitQueue::pop_front() {
  ++head_;
  if (head_ == items_.size()) {
    clear();
  } else if (2 * head_ >= items_.size()) {
    items_.erase(items_.begin(), items_.begin() + head_);
    head_ = 0;
  }
}

LockManager::Holder* LockManager::Entry::FindHolder(TxnId txn) {
  for (Holder& h : holders) {
    if (h.txn == txn) return &h;
  }
  return nullptr;
}

size_t LockManager::ActiveLowerBound(ResourceId resource) const {
  return static_cast<size_t>(
      std::lower_bound(active_.begin(), active_.end(), resource,
                       [](const std::pair<ResourceId, uint32_t>& a,
                          ResourceId r) { return a.first < r; }) -
      active_.begin());
}

LockManager::Entry* LockManager::Find(ResourceId resource) {
  size_t i = ActiveLowerBound(resource);
  if (i == active_.size() || active_[i].first != resource) return nullptr;
  return &entries_[active_[i].second];
}

LockManager::Entry& LockManager::FindOrCreate(ResourceId resource) {
  size_t i = ActiveLowerBound(resource);
  if (i < active_.size() && active_[i].first == resource) {
    return entries_[active_[i].second];
  }
  uint32_t index;
  if (free_entries_.empty()) {
    index = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  } else {
    index = free_entries_.back();
    free_entries_.pop_back();
  }
  active_.insert(active_.begin() + i, {resource, index});
  return entries_[index];
}

void LockManager::Drop(ResourceId resource) {
  size_t i = ActiveLowerBound(resource);
  FRAGDB_CHECK(i < active_.size() && active_[i].first == resource);
  uint32_t index = active_[i].second;
  entries_[index].holders.clear();
  entries_[index].waiters.clear();
  free_entries_.push_back(index);
  active_.erase(active_.begin() + i);
}

void LockManager::Clear() {
  active_.clear();
  entries_.clear();
  free_entries_.clear();
}

bool LockManager::Compatible(const Entry& e, TxnId txn, LockMode mode) const {
  for (const Holder& h : e.holders) {
    if (h.txn == txn) continue;  // own locks never conflict
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void LockManager::ObserveGrant(Holder* fresh, ResourceId resource,
                               LockMode mode, SimTime enqueued) {
  if (!observer_.now) return;
  SimTime now = observer_.now();
  if (fresh != nullptr) fresh->granted_at = now;
  if (observer_.on_grant) {
    observer_.on_grant(resource, mode, enqueued < 0 ? 0 : now - enqueued);
  }
}

void LockManager::ObserveRelease(const Holder& h, ResourceId resource) {
  if (!observer_.now || !observer_.on_release) return;
  observer_.on_release(resource, observer_.now() - h.granted_at);
}

void LockManager::Acquire(TxnId txn, ResourceId resource, LockMode mode,
                          GrantCallback cb) {
  Entry& e = FindOrCreate(resource);
  if (Holder* held = e.FindHolder(txn)) {
    // Already held. Same or stronger mode => immediate grant.
    if (held->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      cb(Status::Ok());
      return;
    }
    // Upgrade S -> X: immediate if sole holder and nothing incompatible.
    if (e.holders.size() == 1 && Compatible(e, txn, mode)) {
      held->mode = LockMode::kExclusive;
      ObserveGrant(nullptr, resource, mode, -1);
      cb(Status::Ok());
      return;
    }
    // Queue the upgrade. It is granted when the other holders drain.
    e.waiters.push_back(Request{txn, mode, std::move(cb), ObservedNow()});
    return;
  }
  // FIFO fairness: do not jump over existing waiters even if compatible,
  // except that a fresh shared request may join shared holders when no
  // exclusive waiter is queued ahead (prevents needless serialization).
  bool exclusive_waiter_ahead =
      std::any_of(e.waiters.begin(), e.waiters.end(), [](const Request& r) {
        return r.mode == LockMode::kExclusive;
      });
  if (Compatible(e, txn, mode) &&
      (e.waiters.empty() ||
       (mode == LockMode::kShared && !exclusive_waiter_ahead))) {
    e.holders.push_back(Holder{txn, mode});
    ObserveGrant(&e.holders.back(), resource, mode, -1);
    cb(Status::Ok());
    return;
  }
  e.waiters.push_back(Request{txn, mode, std::move(cb), ObservedNow()});
}

void LockManager::PumpQueue(ResourceId resource) {
  // Grant callbacks may reenter the lock manager (commit handlers release
  // other locks, drains capture state, ...), so never hold an entry
  // pointer across a callback: mutate first, fire, then re-find the entry.
  while (true) {
    Entry* e = Find(resource);
    if (e == nullptr) return;
    if (e->waiters.empty()) {
      if (e->holders.empty()) Drop(resource);
      return;
    }
    Request& front = e->waiters.front();
    TxnId txn = front.txn;
    LockMode mode = front.mode;
    SimTime enqueued = front.enqueued;
    GrantCallback cb;
    if (Holder* held = e->FindHolder(txn)) {
      // Upgrade request: grantable when requester is the sole holder.
      if (e->holders.size() != 1) return;
      held->mode = LockMode::kExclusive;
      cb = std::move(front.cb);
      e->waiters.pop_front();
      ObserveGrant(nullptr, resource, mode, enqueued);
    } else if (Compatible(*e, txn, mode)) {
      cb = std::move(front.cb);
      e->waiters.pop_front();
      e->holders.push_back(Holder{txn, mode});
      ObserveGrant(&e->holders.back(), resource, mode, enqueued);
    } else {
      return;
    }
    cb(Status::Ok());
  }
}

void LockManager::Release(TxnId txn, ResourceId resource) {
  Entry* e = Find(resource);
  if (e == nullptr) return;
  Holder* h = e->FindHolder(txn);
  if (h == nullptr) return;
  ObserveRelease(*h, resource);
  e->holders.erase(e->holders.begin() + (h - e->holders.data()));
  PumpQueue(resource);
}

void LockManager::DropTxn(
    TxnId txn, std::vector<std::pair<ResourceId, GrantCallback>>* cancelled) {
  // Collect affected resources first; PumpQueue may drop entries.
  std::vector<ResourceId> held;
  for (const auto& [resource, index] : active_) {
    Entry& e = entries_[index];
    for (auto wit = e.waiters.begin(); wit != e.waiters.end();) {
      if (wit->txn == txn) {
        cancelled->emplace_back(resource, std::move(wit->cb));
        wit = e.waiters.erase(wit);
      } else {
        ++wit;
      }
    }
    if (e.FindHolder(txn) != nullptr) held.push_back(resource);
  }
  for (ResourceId r : held) Release(txn, r);
}

void LockManager::ReleaseAll(TxnId txn) {
  std::vector<std::pair<ResourceId, GrantCallback>> cancelled;
  DropTxn(txn, &cancelled);
  for (auto& [resource, cb] : cancelled) {
    (void)resource;
    cb(Status::Aborted("lock request cancelled by ReleaseAll"));
  }
}

bool LockManager::CancelWait(TxnId txn, ResourceId resource) {
  Entry* e = Find(resource);
  if (e == nullptr) return false;
  for (auto wit = e->waiters.begin(); wit != e->waiters.end(); ++wit) {
    if (wit->txn == txn) {
      GrantCallback cb = std::move(wit->cb);
      e->waiters.erase(wit);
      PumpQueue(resource);
      cb(Status::TimedOut("lock wait cancelled"));
      return true;
    }
  }
  return false;
}

TxnId LockManager::DetectAndResolveDeadlock() {
  // Build waits-for edges: waiter -> every incompatible current holder.
  std::map<TxnId, std::set<TxnId>> waits_for;
  for (const auto& [resource, index] : active_) {
    (void)resource;
    const Entry& e = entries_[index];
    for (const Request& w : e.waiters) {
      for (const Holder& h : e.holders) {
        if (h.txn == w.txn) continue;
        bool conflict = w.mode == LockMode::kExclusive ||
                        h.mode == LockMode::kExclusive;
        if (conflict) waits_for[w.txn].insert(h.txn);
      }
    }
  }
  // Iterative DFS cycle detection; collect the cycle to pick a victim.
  std::map<TxnId, int> color;  // 0 white, 1 gray, 2 black
  std::vector<TxnId> stack;
  TxnId victim = kInvalidTxn;

  std::function<bool(TxnId)> dfs = [&](TxnId t) -> bool {
    color[t] = 1;
    stack.push_back(t);
    auto it = waits_for.find(t);
    if (it != waits_for.end()) {
      for (TxnId next : it->second) {
        if (color[next] == 1) {
          // Cycle: everything on the stack from `next` onward.
          auto pos = std::find(stack.begin(), stack.end(), next);
          victim = *std::max_element(pos, stack.end());
          return true;
        }
        if (color[next] == 0 && dfs(next)) return true;
      }
    }
    stack.pop_back();
    color[t] = 2;
    return false;
  };
  for (const auto& [t, edges] : waits_for) {
    (void)edges;
    if (color[t] == 0 && dfs(t)) break;
  }
  if (victim == kInvalidTxn) return kInvalidTxn;

  // Abort the victim: cancel its waits (with kAborted) and free its locks.
  std::vector<std::pair<ResourceId, GrantCallback>> cancelled;
  DropTxn(victim, &cancelled);
  for (auto& [resource, cb] : cancelled) {
    (void)resource;
    cb(Status::Aborted("deadlock victim"));
  }
  return victim;
}

bool LockManager::Holds(TxnId txn, ResourceId resource, LockMode mode) const {
  size_t i = ActiveLowerBound(resource);
  if (i == active_.size() || active_[i].first != resource) return false;
  for (const Holder& h : entries_[active_[i].second].holders) {
    if (h.txn == txn) {
      return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
    }
  }
  return false;
}

size_t LockManager::waiting_count() const {
  size_t n = 0;
  for (const auto& [resource, index] : active_) {
    (void)resource;
    n += entries_[index].waiters.size();
  }
  return n;
}

size_t LockManager::held_count() const {
  size_t n = 0;
  for (const auto& [resource, index] : active_) {
    (void)resource;
    n += entries_[index].holders.size();
  }
  return n;
}

}  // namespace fragdb

#ifndef FRAGDB_CC_LOCK_MANAGER_H_
#define FRAGDB_CC_LOCK_MANAGER_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "cc/transaction.h"

namespace fragdb {

enum class LockMode { kShared, kExclusive };

/// Strict two-phase lock table for one node (the paper's per-node "local
/// concurrency control mechanism", §2.2). Shared/exclusive modes, FIFO wait
/// queues, lock upgrade for a sole shared holder, waits-for deadlock
/// detection with youngest-transaction victim selection.
///
/// The lock manager is asynchronous: Acquire() invokes the callback
/// immediately if the lock is granted, otherwise queues the request and
/// invokes the callback when it is granted, cancelled, or chosen as a
/// deadlock victim (Status::Aborted).
class LockManager {
 public:
  using GrantCallback = std::function<void(Status)>;

  /// Observation hooks for the observability layer. `now` supplies the
  /// clock (the simulator's, injected so this layer stays sim-agnostic);
  /// on_grant fires at every grant with the time the request waited,
  /// on_release at every voluntary release with the time the lock was
  /// held. With no observer installed the manager does no timestamping.
  /// Clear() (crash semantics) releases nothing and observes nothing.
  struct Observer {
    std::function<SimTime()> now;
    std::function<void(ResourceId, LockMode, SimTime waited)> on_grant;
    std::function<void(ResourceId, SimTime held)> on_release;
  };

  LockManager() = default;

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests `mode` on `resource` for `txn`. Re-acquiring a held lock in
  /// the same or weaker mode grants immediately; requesting kExclusive
  /// while being the sole kShared holder upgrades (waiting if needed).
  void Acquire(TxnId txn, ResourceId resource, LockMode mode,
               GrantCallback cb);

  /// Releases every lock held by `txn` and cancels its waiting requests
  /// (their callbacks fire with Status::Aborted). Grants any now-eligible
  /// waiters, in FIFO order.
  void ReleaseAll(TxnId txn);

  /// Releases one lock held by `txn`. No-op if not held.
  void Release(TxnId txn, ResourceId resource);

  /// Cancels a pending (not yet granted) request; its callback fires with
  /// Status::TimedOut. Returns false if no such waiting request exists.
  bool CancelWait(TxnId txn, ResourceId resource);

  /// Builds the waits-for graph and, if it has a cycle, aborts the
  /// youngest (largest-id) transaction on the cycle by cancelling all its
  /// waits with Status::Aborted and releasing its held locks. Returns the
  /// victim, or kInvalidTxn if no deadlock exists.
  ///
  /// The built-in cluster strategies acquire resources in globally sorted
  /// order and never deadlock; this exists for standalone library use and
  /// is exercised by tests.
  TxnId DetectAndResolveDeadlock();

  /// Drops the entire lock table without invoking any waiter callbacks —
  /// the semantics of a node crash, where pending requests simply die with
  /// the process. Continuations that would have fired are the caller's
  /// problem (the scheduler invalidates its own in the same wipe).
  void Clear();

  /// True if `txn` currently holds `resource` in at least `mode`.
  bool Holds(TxnId txn, ResourceId resource, LockMode mode) const;

  size_t waiting_count() const;
  size_t held_count() const;

  void SetObserver(Observer observer) { observer_ = std::move(observer); }

 private:
  struct Request {
    TxnId txn;
    LockMode mode;
    GrantCallback cb;
    SimTime enqueued = 0;  // meaningful only while an observer is set
  };
  struct Holder {
    TxnId txn;
    LockMode mode;
    // Stamped at grant while an observer is set (0 otherwise); upgrades
    // keep the original stamp so hold time covers the whole S->X span.
    SimTime granted_at = 0;
  };
  /// FIFO of waiting requests in one vector. Popping the front only
  /// advances `head_`; the dead prefix is dropped once it is half the
  /// vector, so a long convoy costs amortized O(1) per grant and the
  /// storage is reused.
  class WaitQueue {
   public:
    using iterator = std::vector<Request>::iterator;
    using const_iterator = std::vector<Request>::const_iterator;

    bool empty() const { return head_ == items_.size(); }
    size_t size() const { return items_.size() - head_; }
    iterator begin() { return items_.begin() + head_; }
    iterator end() { return items_.end(); }
    const_iterator begin() const { return items_.begin() + head_; }
    const_iterator end() const { return items_.end(); }
    Request& front() { return items_[head_]; }
    void push_back(Request r) { items_.push_back(std::move(r)); }
    void pop_front();
    iterator erase(iterator it) { return items_.erase(it); }
    void clear() {
      items_.clear();
      head_ = 0;
    }

   private:
    std::vector<Request> items_;
    size_t head_ = 0;
  };
  /// One locked resource. Flat storage, and entries are pooled: a
  /// resource that drains returns its entry (with the vectors' capacity)
  /// for reuse, so a steady grant/release cycle allocates nothing.
  struct Entry {
    // Current holders, unordered. Invariant: either one exclusive holder
    // or any number of shared holders.
    std::vector<Holder> holders;
    WaitQueue waiters;

    Holder* FindHolder(TxnId txn);
  };

  /// The entry of `resource`, or nullptr when nothing holds or awaits it.
  /// Pointers stay valid until the next entry is created (never hold one
  /// across a grant callback).
  Entry* Find(ResourceId resource);
  Entry& FindOrCreate(ResourceId resource);
  /// Returns `resource`'s (drained) entry to the pool.
  void Drop(ResourceId resource);
  /// Index into active_ of the first resource >= `resource`.
  size_t ActiveLowerBound(ResourceId resource) const;

  /// Grants eligible waiters at the front of the queue.
  void PumpQueue(ResourceId resource);
  bool Compatible(const Entry& e, TxnId txn, LockMode mode) const;
  /// Cancels every waiting request of `txn` (collecting the callbacks in
  /// resource order into `cancelled`), then releases its held locks,
  /// granting the waiters they unblock. The caller fires `cancelled`.
  void DropTxn(TxnId txn,
               std::vector<std::pair<ResourceId, GrantCallback>>* cancelled);

  SimTime ObservedNow() const { return observer_.now ? observer_.now() : 0; }
  /// Stamps the fresh hold (when given) and reports the wait; `enqueued`
  /// is the queue-entry time, or negative for an immediate grant (zero
  /// wait, no second clock read).
  void ObserveGrant(Holder* fresh, ResourceId resource, LockMode mode,
                    SimTime enqueued);
  void ObserveRelease(const Holder& h, ResourceId resource);

  /// Resources with a holder or a waiter, ascending, each with the index
  /// of its entry in entries_.
  std::vector<std::pair<ResourceId, uint32_t>> active_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> free_entries_;
  Observer observer_;
};

}  // namespace fragdb

#endif  // FRAGDB_CC_LOCK_MANAGER_H_

#ifndef FRAGDB_CC_SCHEDULER_H_
#define FRAGDB_CC_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cc/lock_manager.h"
#include "cc/transaction.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/engine.h"
#include "storage/object_store.h"

namespace fragdb {

/// One node's local transaction scheduler (paper §2.2): executes locally
/// initiated transactions under strict 2PL at fragment granularity, and
/// installs quasi-transactions from remote agents atomically. The caller
/// (the core node runtime) is responsible for submitting a fragment's
/// quasi-transactions in sequence order; the scheduler guarantees each
/// install is atomic with respect to local transactions.
class Scheduler {
 public:
  struct Config {
    /// Simulated latency of executing a transaction body (lock grant to
    /// commit).
    SimTime exec_time = Micros(100);
    /// Simulated latency of installing one quasi-transaction.
    SimTime install_time = Micros(50);
  };

  /// Observation hooks, wired to the verification history by the cluster.
  struct Hooks {
    /// A local transaction body observed `seen` for `object`.
    std::function<void(TxnId txn, ObjectId object, const VersionInfo& seen,
                       SimTime at)>
        on_read;
    /// A (quasi-)transaction's writes were installed in this replica.
    /// Fires at the home node for the original commit and at every remote
    /// node when the quasi-transaction is applied. `origin_time` is the
    /// commit instant: `at` itself for the home's commit (which may come
    /// after the quasi was built and sent, as in §4.4.1 and durable Paxos
    /// Commit), the record's origin_time for a replica's install.
    std::function<void(NodeId node, const QuasiTxn& quasi, SimTime at,
                       SimTime origin_time)>
        on_install;
  };

  Scheduler(NodeId node, SimEngine* engine, ObjectStore* store,
            LockManager* locks, Config config, Hooks hooks);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Continuation of an install; receives the installed quasi-transaction.
  using InstallDone = std::function<void(QuasiRef)>;

  /// Atomically installs a quasi-transaction: exclusive fragment lock,
  /// Config::install_time, apply, hook, release, done. `install_id` is a
  /// fresh transaction id naming the install in the lock table (the
  /// paper's "write-only transaction local to the receiving node"). The
  /// shared record waits in a slot through the lock grant and the install
  /// event, then moves into `done`.
  void Install(QuasiRef quasi, TxnId install_id, InstallDone done);

  /// Runs the front half of a locally initiated transaction — the one
  /// execution path every home-side transaction takes:
  ///  1. for an update, acquires the exclusive fragment lock, unless
  ///     `write_lock_preacquired` (the §4.1 lock plan acquires every lock
  ///     up front in global order);
  ///  2. after Config::exec_time, reads the declared read set from the
  ///     local replica and runs the body;
  ///  3. rejects writes from a read-only transaction and writes outside
  ///     `spec.write_fragment` (the initiation requirement);
  ///  4. hands `prepared` the tentative result (body status, computed
  ///     writes, observed reads; frag_seq unset), in the body's event.
  /// Nothing is applied or released. The caller follows an update with
  /// CommitPrepared or AbortPrepared, releasing the fragment lock there
  /// exactly when this call took it; locks the caller acquired itself
  /// (the §4.1 plan, including a read-only transaction's shared locks)
  /// stay held until the caller releases them.
  void Prepare(TxnId id, TxnSpec spec, bool write_lock_preacquired,
               std::function<void(TxnResult)> prepared);

  /// Applies the prepared transaction `quasi.origin_txn`'s writes under
  /// `quasi.seq`, fires the install hook, and releases the transaction's
  /// local locks if `release_locks`. `quasi` is the record the caller
  /// built at the prepare and ships to the replicas; it is read, not kept.
  void CommitPrepared(const QuasiTxn& quasi, bool release_locks);

  /// Drops a prepared transaction, releasing its local locks if requested.
  void AbortPrepared(TxnId id, bool release_locks);

  /// Amnesia crash: invalidates every in-flight continuation (pending
  /// exec/install events keyed to the old generation become no-ops when
  /// they fire). The caller is responsible for also clearing the lock
  /// table and the store; `done` callbacks of invalidated work never fire.
  void Reset();

  NodeId node() const { return node_; }
  ObjectStore* store() { return store_; }
  LockManager* locks() { return locks_; }
  const Config& config() const { return config_; }

 private:
  /// Reads, runs the body and checks its writes (steps 2–3 of Prepare).
  TxnResult Execute(TxnId id, const TxnSpec& spec);

  /// A Prepare between its call and its continuation. The spec and the
  /// continuation move in once; the lock grant and the exec event name
  /// the prepare by slot, so their closures stay inline.
  struct PendingPrepare {
    TxnId id = kInvalidTxn;
    TxnSpec spec;
    std::function<void(TxnResult)> prepared;
  };
  /// Schedules the exec event of the prepare in `slot` (its lock, if any,
  /// granted).
  void ScheduleExecute(uint32_t slot);
  /// Frees the prepare in `slot` and hands its continuation `result`.
  void FinishPrepare(uint32_t slot, TxnResult result);

  /// An install between Install() and its continuation. The lock grant
  /// and the install event name it by slot, so their closures stay small
  /// (no heap allocation) and the quasi-transaction is never copied.
  struct PendingInstall {
    QuasiRef quasi;
    TxnId install_id = kInvalidTxn;
    InstallDone done;
  };
  /// Applies the install in `slot`, frees the slot, releases the lock and
  /// runs the continuation.
  void FinishInstall(uint32_t slot);

  NodeId node_;
  SimEngine* engine_;
  ObjectStore* store_;
  LockManager* locks_;
  Config config_;
  Hooks hooks_;
  /// Bumped by Reset(); scheduled continuations carry the generation they
  /// were created under and skip themselves if it no longer matches.
  uint64_t generation_ = 0;
  /// Pending installs and prepares by slot, and the free slots (reused,
  /// so a steady stream allocates nothing here). Reset() drops them all.
  std::vector<PendingInstall> installs_;
  std::vector<uint32_t> free_installs_;
  std::vector<PendingPrepare> prepares_;
  std::vector<uint32_t> free_prepares_;
};

}  // namespace fragdb

#endif  // FRAGDB_CC_SCHEDULER_H_

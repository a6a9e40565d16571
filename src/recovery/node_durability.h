#ifndef FRAGDB_RECOVERY_NODE_DURABILITY_H_
#define FRAGDB_RECOVERY_NODE_DURABILITY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "recovery/checkpoint.h"
#include "recovery/stable_storage.h"
#include "recovery/wal.h"
#include "sim/engine.h"

namespace fragdb {

/// Knobs of the durability & recovery subsystem. All times are simulated.
struct DurabilityConfig {
  /// Master switch. Off by default: the cluster then behaves exactly as
  /// before (state survives crash-stops by fiat, amnesia crashes are
  /// unavailable).
  bool enabled = false;

  /// Simulated fsync latency: how long an appended WAL record stays in
  /// the volatile staging buffer before it becomes durable. An amnesia
  /// crash inside this window loses the staged suffix.
  SimTime wal_fsync_time = Micros(500);

  /// Simulated cost of replaying one WAL record at recovery time.
  SimTime wal_replay_time_per_record = Micros(20);

  /// Simulated cost of loading a checkpoint image at recovery time.
  SimTime checkpoint_load_time = Millis(2);

  /// Periodic checkpointing: a checkpoint is taken this long after the
  /// first WAL append since the previous checkpoint (so an idle node
  /// schedules nothing and simulations still quiesce). 0 disables the
  /// timer; checkpoints then happen only via the byte threshold or
  /// ForceCheckpoint().
  SimTime checkpoint_interval = 0;

  /// Simulated cost of writing a checkpoint image to stable storage. The
  /// commit (atomic rename + WAL truncation) happens this long after the
  /// checkpoint begins; a crash in between leaves the previous checkpoint
  /// and the full WAL intact.
  SimTime checkpoint_write_time = Millis(5);

  /// If >0, also checkpoint whenever the durable WAL exceeds this size.
  size_t checkpoint_wal_bytes = 0;

  /// Recovery: how long the recovering node waits for peer catch-up
  /// replies before settling for what has arrived.
  SimTime recovery_reply_timeout = Millis(200);
};

/// Names of the per-node stable-storage files.
inline constexpr const char* kWalFile = "wal";
inline constexpr const char* kCheckpointFile = "checkpoint";
inline constexpr const char* kCheckpointPendingFile = "checkpoint.pending";

/// One node's durability pipeline: appends a WAL record for every applied
/// quasi-transaction and epoch change, and periodically checkpoints the
/// replica and truncates the log.
///
/// Checkpoint/truncate protocol (crash-safe at every step):
///  1. capture the image in memory and write the `checkpoint.pending`
///     marker (statement of intent, observable by tests);
///  2. after `checkpoint_write_time`, publish the image to `checkpoint`,
///     rewrite `wal` keeping only records the image does not cover, and
///     delete the marker.
/// A crash between 1 and 2 loses nothing: recovery ignores the marker and
/// replays the previous checkpoint plus the untruncated WAL.
///
/// Publishing appends a delta frame (see CheckpointImage) holding only what
/// changed since the previous frame, so a checkpoint costs what changed,
/// not the node's whole history. A base frame atomically replaces the file
/// instead when no previous frame can anchor a delta: at the first
/// checkpoint of an incarnation, after an epoch change (which may truncate
/// a stream log), and on ForceCheckpoint (which follows state changes that
/// bypass the WAL, such as a §4.4.2A snapshot adoption).
///
/// The object itself is volatile: an amnesia crash destroys it (staged WAL
/// bytes and the in-flight checkpoint die with it) and the cluster builds
/// a fresh one. Only StableStorage survives.
class NodeDurability {
 public:
  struct Stats {
    uint64_t wal_records = 0;
    uint64_t checkpoints_started = 0;
    uint64_t checkpoints_committed = 0;
    /// Committed checkpoints that wrote a base frame (the rest appended a
    /// delta frame).
    uint64_t base_frames = 0;
    uint64_t wal_bytes_truncated = 0;
  };

  /// Returns the node's current CheckpointImage, except that each stream's
  /// log holds only the entries past that fragment's entry in `marks` (the
  /// whole log for a fragment `marks` lacks), and resets `marks` to where
  /// every log ends now. Invoked at checkpoint begin.
  using Capture = std::function<CheckpointImage(std::vector<LogMark>* marks)>;
  /// Told when a checkpoint was captured and when it was committed.
  enum class CheckpointStep { kCaptured, kCommitted };
  using Observer = std::function<void(CheckpointStep)>;

  NodeDurability(NodeId node, SimEngine* engine, StableStorage* storage,
                 const DurabilityConfig* config, Capture capture,
                 Observer observer = nullptr);

  NodeDurability(const NodeDurability&) = delete;
  NodeDurability& operator=(const NodeDurability&) = delete;

  /// A quasi-transaction was applied to this replica under `epoch`.
  void OnQuasiApplied(const QuasiTxn& quasi, Epoch epoch);

  /// The fragment's stream moved to `new_epoch` with base `epoch_base`.
  /// The next checkpoint writes a base frame.
  void OnEpochChanged(FragmentId fragment, Epoch new_epoch,
                      SeqNum epoch_base);

  /// A Paxos Commit proposer on this node allocated `quasi.seq` and filled
  /// it with `quasi` under `epoch`. Must be appended before the accept
  /// broadcast leaves the node (the caller defers the broadcast past the
  /// fsync window).
  void OnPaxosSlotAllocated(const QuasiTxn& quasi, Epoch epoch);

  /// Begins a checkpoint now (commit still takes checkpoint_write_time).
  /// If one is already in flight, only the next checkpoint is affected:
  /// either way, the next capture writes a base frame.
  void ForceCheckpoint();

  /// Synchronously flushes staged WAL bytes (orderly-shutdown fsync).
  void FlushWal() { wal_.SyncNow(); }

  const Stats& stats() const { return stats_; }
  WalWriter& wal() { return wal_; }

 private:
  /// Logs a kQuasi or kPaxosSlot record, encoded straight from `quasi`.
  void AppendQuasi(WalRecord::Type type, const QuasiTxn& quasi, Epoch epoch);
  void AfterAppend();
  void BeginCheckpoint();
  void CommitCheckpoint(const CheckpointImage& image, bool base);

  NodeId node_;
  SimEngine* engine_;
  StableStorage* storage_;
  const DurabilityConfig* config_;
  Capture capture_;
  Observer observer_;
  WalWriter wal_;
  Stats stats_;
  bool checkpoint_timer_armed_ = false;
  bool checkpoint_in_flight_ = false;
  /// The next capture writes a base frame.
  bool base_due_ = true;
  /// Where each stream log ended in the newest frame captured (the one in
  /// flight, else the last committed), and the versions of the last
  /// committed frame: the anchor of the next delta.
  std::vector<LogMark> marks_;
  std::vector<VersionInfo> versions_;
  /// Expires when this object is destroyed (crash): pending timer and
  /// commit events become no-ops.
  std::shared_ptr<bool> alive_;
};

}  // namespace fragdb

#endif  // FRAGDB_RECOVERY_NODE_DURABILITY_H_

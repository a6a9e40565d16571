#include "recovery/node_durability.h"

#include <utility>

namespace fragdb {

NodeDurability::NodeDurability(NodeId node, SimEngine* engine,
                               StableStorage* storage,
                               const DurabilityConfig* config,
                               Capture capture, Observer observer)
    : node_(node),
      engine_(engine),
      storage_(storage),
      config_(config),
      capture_(std::move(capture)),
      observer_(std::move(observer)),
      wal_(node, engine, storage, kWalFile, config->wal_fsync_time),
      alive_(std::make_shared<bool>(true)) {}

void NodeDurability::OnQuasiApplied(const QuasiTxn& quasi, Epoch epoch) {
  AppendQuasi(WalRecord::Type::kQuasi, quasi, epoch);
}

void NodeDurability::OnEpochChanged(FragmentId fragment, Epoch new_epoch,
                                    SeqNum epoch_base) {
  WalRecord record;
  record.type = WalRecord::Type::kEpochChange;
  record.fragment = fragment;
  record.epoch = new_epoch;
  record.epoch_base = epoch_base;
  base_due_ = true;  // the stream log may have lost its tail
  wal_.Append(record);
  ++stats_.wal_records;
  AfterAppend();
}

void NodeDurability::OnPaxosSlotAllocated(const QuasiTxn& quasi, Epoch epoch) {
  AppendQuasi(WalRecord::Type::kPaxosSlot, quasi, epoch);
}

void NodeDurability::AppendQuasi(WalRecord::Type type, const QuasiTxn& quasi,
                                 Epoch epoch) {
  wal_.AppendEncoded(EncodeQuasiRecord(type, epoch, quasi));
  ++stats_.wal_records;
  AfterAppend();
}

void NodeDurability::AfterAppend() {
  if (checkpoint_in_flight_) return;
  if (config_->checkpoint_wal_bytes > 0 &&
      storage_->Size(kWalFile) + wal_.staged_bytes() >
          config_->checkpoint_wal_bytes) {
    BeginCheckpoint();
    return;
  }
  if (config_->checkpoint_interval <= 0 || checkpoint_timer_armed_) return;
  checkpoint_timer_armed_ = true;
  std::weak_ptr<bool> weak = alive_;
  engine_->AfterNode(node_, config_->checkpoint_interval, [this, weak] {
    if (weak.expired()) return;  // crashed meanwhile
    checkpoint_timer_armed_ = false;
    if (!checkpoint_in_flight_) BeginCheckpoint();
  });
}

void NodeDurability::ForceCheckpoint() {
  base_due_ = true;
  if (!checkpoint_in_flight_) BeginCheckpoint();
}

void NodeDurability::BeginCheckpoint() {
  checkpoint_in_flight_ = true;
  ++stats_.checkpoints_started;
  storage_->Write(kCheckpointPendingFile, "");
  const bool base = base_due_;
  base_due_ = false;
  if (base) marks_.clear();
  CheckpointImage image = capture_(&marks_);
  if (observer_) observer_(CheckpointStep::kCaptured);
  std::weak_ptr<bool> weak = alive_;
  engine_->AfterNode(node_, config_->checkpoint_write_time,
                     [this, weak, base, image = std::move(image)]() mutable {
                       if (weak.expired()) return;  // crash: marker stays
                       CommitCheckpoint(image, base);
                       versions_ = std::move(image.versions);
                       if (observer_) observer_(CheckpointStep::kCommitted);
                     });
}

void NodeDurability::CommitCheckpoint(const CheckpointImage& image,
                                      bool base) {
  if (base) {
    storage_->Write(kCheckpointFile, image.Encode());
    ++stats_.base_frames;
  } else {
    storage_->Append(kCheckpointFile, image.EncodeDelta(versions_));
  }
  // Truncate the WAL: drop every durable record the image covers. Staged
  // (unsynced) bytes are untouched — when their fsync lands they may
  // duplicate covered records, which replay skips as stale.
  WalScan scan = ScanWal(storage_->Read(kWalFile));
  std::string kept;
  for (const WalRecord& record : scan.records) {
    const StreamCheckpoint& pos = image.StreamFor(record.fragment);
    bool covered;
    if (record.type == WalRecord::Type::kEpochChange) {
      covered = record.epoch <= pos.epoch;
    } else {
      // kQuasi and kPaxosSlot alike: covered once the image's applied
      // prefix includes the seq. An in-doubt slot (allocated, not yet
      // applied) must survive truncation — its value may exist nowhere
      // else if the accept broadcast never left the node.
      covered = record.epoch < pos.epoch ||
                (record.epoch == pos.epoch && record.quasi.seq <= pos.applied_seq);
    }
    if (!covered) kept += EncodeWalRecord(record);
  }
  size_t before = storage_->Size(kWalFile);
  storage_->Write(kWalFile, std::move(kept));
  stats_.wal_bytes_truncated += before - storage_->Size(kWalFile);
  storage_->Delete(kCheckpointPendingFile);
  checkpoint_in_flight_ = false;
  ++stats_.checkpoints_committed;
}

}  // namespace fragdb

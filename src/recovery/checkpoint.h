#ifndef FRAGDB_RECOVERY_CHECKPOINT_H_
#define FRAGDB_RECOVERY_CHECKPOINT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "cc/transaction.h"
#include "common/types.h"
#include "storage/object_store.h"

namespace fragdb {

/// Durable position of one fragment's update stream at checkpoint time.
struct StreamCheckpoint {
  FragmentId fragment = kInvalidFragment;
  Epoch epoch = 0;
  SeqNum epoch_base = 0;
  SeqNum applied_seq = 0;
  SeqNum next_seq = 1;
  /// The applied lineage at checkpoint time. Without it, a revived node
  /// could no longer serve catch-up suffixes to replicas that fell behind
  /// before its crash (recovery replies and gap repair both read the
  /// stream log, which is otherwise volatile). In a captured delta, only
  /// the entries past the previous frame's LogMark. Capture shares the
  /// live log's records; Decode builds fresh ones.
  std::vector<QuasiRef> log;
};

/// Where one fragment's stream log ended in the last checkpoint frame: the
/// next delta frame carries only the entries past `high_water`. Valid as
/// long as the log only grew at its end since, under the same epoch.
struct LogMark {
  FragmentId fragment = kInvalidFragment;
  SeqNum high_water = 0;  // seq of the last log entry; 0 for an empty log
};

/// A full snapshot of one node's recoverable state: every object version
/// of the replica plus every fragment stream's position. Restoring the
/// image and replaying the WAL records appended after `taken_at`
/// reconstructs the replica exactly.
///
/// On stable storage the image is a sequence of frames, each
///   [u32 magic][u32 payload length][payload][u32 fnv1a(payload)].
/// The first is a base frame (Encode: the whole image); every later one is
/// a delta frame (EncodeDelta: what changed since the frame before it).
/// Decode folds them back into one image.
struct CheckpointImage {
  SimTime taken_at = 0;
  /// Dense by ObjectId (the catalog's object numbering).
  std::vector<VersionInfo> versions;
  std::vector<StreamCheckpoint> streams;

  /// Stream positions keyed by fragment; defaults if absent.
  const StreamCheckpoint& StreamFor(FragmentId fragment) const;

  /// The base frame: every version and every stream with its whole log.
  std::string Encode() const;
  /// A delta frame over the previous frame, whose versions were
  /// `previous_versions`: `taken_at`, every stream position, the versions
  /// that differ, and each stream's `log`, which must hold only entries
  /// past the previous frame's end of that stream.
  std::string EncodeDelta(
      const std::vector<VersionInfo>& previous_versions) const;
  /// Folds a base frame and the delta frames after it. Returns false if
  /// any frame is torn, fails its checksum or does not fit the image
  /// before it, so a bad checkpoint is never mistaken for a valid one.
  static bool Decode(const std::string& bytes, CheckpointImage* out);
};

}  // namespace fragdb

#endif  // FRAGDB_RECOVERY_CHECKPOINT_H_

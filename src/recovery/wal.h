#ifndef FRAGDB_RECOVERY_WAL_H_
#define FRAGDB_RECOVERY_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cc/transaction.h"
#include "common/types.h"
#include "recovery/stable_storage.h"
#include "sim/engine.h"

namespace fragdb {

/// One write-ahead-log record. Three kinds:
///  * kQuasi — a quasi-transaction was applied to this replica (either a
///    local commit at the home node or a remote install), together with the
///    stream epoch it was applied under;
///  * kEpochChange — the fragment's stream moved to a new epoch with the
///    given base (a §4.4.3 move or token recovery observed by this node);
///  * kPaxosSlot — a Paxos Commit proposer allocated a sequence number and
///    filled it with this value (Gray & Lamport's coordinator "BeginCommit"
///    record, transaction included). It must be durable before any acceptor
///    sees the slot: a prepared-but-undecided slot appears in no kQuasi
///    record, so without it an amnesia-revived home could reuse the seq for
///    a different value and break the one-value-per-slot invariant the
///    protocol rests on. Replay advances next_seq past the slot, marks the
///    fragment in doubt, and re-seats the value so the revived home can
///    drive the slot to a decision itself.
///
/// Replaying the records of a WAL in append order over a checkpoint image
/// reproduces the replica's durable state exactly.
struct WalRecord {
  enum class Type : uint8_t { kQuasi = 1, kEpochChange = 2, kPaxosSlot = 3 };

  Type type = Type::kQuasi;
  FragmentId fragment = kInvalidFragment;
  Epoch epoch = 0;        // kQuasi/kPaxosSlot: epoch the value belongs to;
                          // kEpochChange: the new epoch
  SeqNum epoch_base = 0;  // kEpochChange only
  QuasiTxn quasi;         // kQuasi and kPaxosSlot (quasi.seq is the slot)
};

/// On-disk framing: [u32 payload_len][u32 fnv1a(payload)][payload].
/// A record whose length runs past the end of the file, or whose checksum
/// does not match, is a torn tail: scanning stops there and the valid
/// prefix is what recovery replays.
std::string EncodeWalRecord(const WalRecord& record);
/// The same bytes as EncodeWalRecord of a kQuasi or kPaxosSlot record
/// carrying `quasi` (fragment = quasi.fragment), without copying it into
/// one.
std::string EncodeQuasiRecord(WalRecord::Type type, Epoch epoch,
                              const QuasiTxn& quasi);

struct WalScan {
  std::vector<WalRecord> records;
  size_t valid_bytes = 0;  // length of the well-formed prefix
  bool torn = false;       // true if trailing bytes were unparseable
};

/// Decodes every well-formed record from `bytes`, stopping at the first
/// torn or corrupt record.
WalScan ScanWal(const std::string& bytes);

/// Appends WAL records durably with a simulated fsync delay: Append()
/// stages bytes in volatile memory and arms a single sync event; when the
/// event fires (after `fsync_time`), everything staged so far moves into
/// stable storage in one append (group commit). A crash that destroys the
/// writer before the event fires loses exactly the staged suffix — the
/// semantics of a real write-behind page cache.
class WalWriter {
 public:
  /// The group-commit fsync timer is an event on `node`.
  WalWriter(NodeId node, SimEngine* engine, StableStorage* storage,
            std::string file, SimTime fsync_time);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  void Append(const WalRecord& record);
  /// Appends one record already framed by EncodeWalRecord or
  /// EncodeQuasiRecord.
  void AppendEncoded(const std::string& bytes);

  /// Moves staged bytes to stable storage immediately (a synchronous
  /// fsync; used by tests and by orderly shutdown paths).
  void SyncNow();

  size_t staged_bytes() const { return staging_->buf.size(); }
  uint64_t records_appended() const { return records_appended_; }
  /// Completed fsyncs (group commits that actually moved staged bytes to
  /// stable storage) — the WAL-fsync instrumentation signal.
  uint64_t syncs() const { return staging_->syncs; }
  const std::string& file() const { return file_; }

 private:
  struct Staging {
    std::string buf;
    bool sync_scheduled = false;
    /// Lives in Staging so the in-flight sync event can count completions
    /// without touching the (possibly destroyed) writer.
    uint64_t syncs = 0;
  };

  NodeId node_;
  SimEngine* engine_;
  StableStorage* storage_;
  std::string file_;
  SimTime fsync_time_;
  /// Shared so the in-flight sync event can detect writer destruction
  /// (crash) via a weak reference and drop the staged bytes.
  std::shared_ptr<Staging> staging_;
  uint64_t records_appended_ = 0;
};

}  // namespace fragdb

#endif  // FRAGDB_RECOVERY_WAL_H_

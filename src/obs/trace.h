#ifndef FRAGDB_OBS_TRACE_H_
#define FRAGDB_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace fragdb {

/// One structured event in the cluster's activity trace. Lifecycle events
/// of a single transaction share a txn id, so its full span chain —
/// submit (initiate) → commit at the home → broadcast → install at each
/// replica — is reconstructible across nodes.
struct TraceEvent {
  SimTime at = 0;
  /// "submit", "commit", "decline", "fail", "broadcast", "install",
  /// "move-start", "move-finish", "recover", "recover-start",
  /// "catch-up-start", "repackage", "partition", "heal", "node-up",
  /// "node-down", "drop".
  std::string kind;
  /// Node where the event happened, or kInvalidNode for cluster-wide
  /// events (partition/heal).
  NodeId node = kInvalidNode;
  /// Fragment involved, when the event concerns one.
  FragmentId fragment = kInvalidFragment;
  /// Transaction the event belongs to, for span reconstruction.
  TxnId txn = kInvalidTxn;
  /// Stream sequence number, for commit/broadcast/install events.
  SeqNum seq = 0;
  /// Residual human-readable context (labels, status text, group layout).
  std::string detail;
};

/// How a recorded event gets its detail text. kText events carry it as
/// recorded. The others are the records written on every transaction,
/// commit and install: they store no string, and the detail is rendered
/// from the event's own fields whenever the event is read (dump time), so
/// the hot path formats nothing. Each also fixes the event's kind.
enum class TraceDetail : uint8_t {
  kText,
  /// kind "install", detail "T<txn> seq=<seq> at N<node>".
  kInstall,
  /// kind "paxos-decide", detail "T<txn> commit".
  kPaxosDecide,
  /// kind "submit", detail "T<txn> <label> at N<node>" ("T<txn> at
  /// N<node>" for an empty label); the label is recorded as the text.
  kSubmit,
  /// kind "commit", detail "T<txn> OK".
  kCommit,
  /// kind "broadcast", detail "T<txn> seq=<seq>".
  kBroadcast,
  /// kind "paxos-propose", detail "T<txn> ballot=0".
  kPaxosPropose,
};

/// One event's fixed fields, as a recorder stores them. `kind` must
/// outlive the recorder: a string literal, or TraceDetailKind's result.
struct TraceStamp {
  SimTime at = 0;
  const char* kind = nullptr;
  NodeId node = kInvalidNode;
  FragmentId fragment = kInvalidFragment;
  TxnId txn = kInvalidTxn;
  SeqNum seq = 0;
};

/// The kind a rendered-detail event is recorded under (nullptr for kText).
const char* TraceDetailKind(TraceDetail detail);

/// Renders one event as a Chrome trace_event JSON object (the line format
/// of Tracer::ToJsonl); parseable back via Tracer::ParseJsonl.
std::string TraceEventToJsonLine(const TraceEvent& ev);

/// In-memory recorder of TraceEvents with per-transaction span queries and
/// JSONL export in Chrome trace_event format (load the file — or the
/// ToChromeJson() wrapper — in chrome://tracing or Perfetto: pid=node,
/// tid=txn).
///
/// Events are stored in per-node rings plus one ring for cluster-wide
/// events, so concurrent partitions never share a buffer: a record goes
/// to the ring of the acting node (the node whose event is running), or
/// of its subject node when recorded from a global event or setup. Each
/// ring numbers its own records, and every read merges the rings in
/// (time, ring, ring-seq) order — deterministic at any worker-thread
/// count. With a capacity, each ring keeps only its last `capacity`
/// events — the flight recorder, a black box that can stay on in long
/// runs at O(nodes) memory; without one, everything is kept.
class Tracer {
 public:
  /// `nodes` per-node rings plus the cluster-wide ring; `capacity` events
  /// retained per ring, 0 = unbounded.
  explicit Tracer(int nodes = 0, int capacity = 0);
  // Slots point at kinds the rings intern: a copy would share them.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  Tracer(Tracer&&) = default;
  Tracer& operator=(Tracer&&) = default;

  /// Records `ev`. With a rendered `detail` format, `ev.detail` should be
  /// empty (kSubmit: the label): the detail is produced from the event's
  /// fields when it is read.
  void Record(const TraceEvent& ev, NodeId acting = kInvalidNode,
              TraceDetail detail = TraceDetail::kText);
  /// The same, written straight into the ring: `text` is the kText detail
  /// or kSubmit's label, and is ignored by the other formats.
  void Record(const TraceStamp& stamp, std::string_view text, NodeId acting,
              TraceDetail detail);
  void Clear();

  /// Events retained per ring (0 = unbounded).
  int capacity() const { return capacity_; }
  /// Events ever recorded, including those a bounded ring overwrote.
  uint64_t total_recorded() const;

  /// Every retained event, merged across rings in (time, ring, seq) order.
  std::vector<TraceEvent> events() const;
  /// Events currently retained in `node`'s ring (kInvalidNode = the
  /// cluster-wide ring), oldest first.
  std::vector<TraceEvent> NodeEvents(NodeId node) const;

  /// Every event of one transaction, in merged (= time) order.
  std::vector<TraceEvent> TxnSpan(TxnId txn) const;

  /// One Chrome trace_event JSON object per line, in merged order:
  ///   {"name":kind,"ph":"i","ts":at,"pid":node,"tid":txn,"args":{...}}
  std::string ToJsonl() const;
  /// The same events wrapped as {"traceEvents":[...]} (a complete Chrome
  /// trace file).
  std::string ToChromeJson() const;
  Status WriteJsonl(const std::string& path) const;

  /// Parses ToJsonl() output back into events (offline analysis + the
  /// round-trip tests). Only fields Tracer itself emits are understood.
  static Result<std::vector<TraceEvent>> ParseJsonl(const std::string& text);

 private:
  struct Slot {
    // 56 bits of ring sequence leave room for the format in the same
    // word, so the format costs no slot space.
    uint64_t order : 56 = 0;
    TraceDetail detail : 8 = TraceDetail::kText;
    TraceStamp stamp;
    /// kText: the detail. kSubmit: the label. Empty otherwise; an
    /// overwritten slot reuses the buffer.
    std::string text;
  };
  /// The event as recorded, with a rendered detail filled in.
  static TraceEvent Materialize(const Slot& slot);
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Ring {
    std::vector<Slot> slots;  // at most capacity_ when bounded
    size_t next = 0;          // overwrite position once full
    uint64_t next_seq = 0;    // records ever made to this ring
    /// Kinds recorded through Record(TraceEvent): only the thread writing
    /// the ring touches it.
    std::unordered_set<std::string, StringHash, std::equal_to<>> interned;

    const char* Intern(std::string_view s);
  };

  /// Index of the ring for `node`; out-of-range nodes map to the
  /// cluster-wide ring.
  size_t RingIndex(NodeId node) const;

  int capacity_;
  std::vector<Ring> rings_;  // nodes + 1 (cluster-wide last)
};

}  // namespace fragdb

#endif  // FRAGDB_OBS_TRACE_H_

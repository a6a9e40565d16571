#ifndef FRAGDB_NET_MESSAGE_H_
#define FRAGDB_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/types.h"

namespace fragdb {

/// Base class for everything sent through the simulated network. Each
/// protocol defines its own payload structs. A payload may carry a type
/// tag, fixed when it is built, so a receiver can dispatch with one
/// `switch` and a `static_cast`; the tag values belong to the protocol
/// that defines them (core/messages.h for the FragDB node protocol).
/// Untagged payloads report tag 0.
struct MessagePayload {
  MessagePayload() = default;
  virtual ~MessagePayload() = default;

  /// The payload's type tag (0 = untagged).
  uint8_t tag() const { return tag_; }

  /// Approximate wire size in bytes, for overhead accounting in the
  /// experiments. Payloads carrying variable data override this.
  virtual size_t ByteSize() const { return 64; }

  /// Short stable type tag for per-type traffic metrics
  /// (messages_sent_total{label=<type>}). Protocol payloads override this
  /// with a string of static storage duration, so callers may cache by
  /// pointer.
  virtual const char* TypeName() const { return "other"; }

 protected:
  /// For the protocol's tagged payload base only: a tag promises the
  /// receiver that a static_cast to the tag's type is valid.
  explicit MessagePayload(uint8_t tag) : tag_(tag) {}

 private:
  uint8_t tag_ = 0;
};

/// A message in flight (or queued while its destination is unreachable).
struct Message {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  SimTime sent_at = 0;
  std::shared_ptr<const MessagePayload> payload;
};

}  // namespace fragdb

#endif  // FRAGDB_NET_MESSAGE_H_

#ifndef FRAGDB_NET_NETWORK_H_
#define FRAGDB_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "net/message.h"
#include "net/topology.h"
#include "sim/engine.h"

namespace fragdb {

/// Traffic counters, exposed per run for the overhead experiments (E8).
struct NetworkStats {
  uint64_t messages_sent = 0;       // Send() calls to a different node
  uint64_t messages_delivered = 0;  // handler invocations
  uint64_t messages_queued = 0;     // deferred because destination unreachable
  uint64_t messages_dropped = 0;    // lost to SetLossProbability
  uint64_t bytes_sent = 0;
};

/// Store-and-forward message service over a Topology.
///
/// Semantics (and the one deliberate simplification, see DESIGN.md §2):
///  * If the destination is reachable when Send() is called, the message is
///    delivered after the current minimum-latency path delay; a link that
///    fails while the message is "in flight" does not destroy it (as if the
///    packet slipped through just before the cut).
///  * If the destination is unreachable, the message is queued at the
///    sender and retransmitted when connectivity changes. Combined with
///    eventual healing this yields the reliable delivery the paper's
///    broadcast mechanism requires.
///  * Each ordered (from, to) pair is a FIFO channel: deliveries never
///    overtake each other even when path latencies change (TCP-like).
class Network {
 public:
  /// Deliveries ride engine->Post(from, to), so messages between
  /// partitions become real cross-partition mailbox traffic. The loss RNG
  /// and the unreachable-queue are per-sender (each sender draws and
  /// queues only from its own events); counters shard per acting node.
  /// `engine` and `topology` must outlive the network.
  Network(SimEngine* engine, Topology* topology);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the receive handler for `node`. One handler per node; the
  /// node runtime dispatches payloads internally.
  void SetHandler(NodeId node, std::function<void(const Message&)> handler);

  /// Sends `payload` from `from` to `to`. Self-sends are delivered after
  /// zero delay (still through the event queue, never reentrantly).
  Status Send(NodeId from, NodeId to,
              std::shared_ptr<const MessagePayload> payload);

  /// Sends to every node except `from`.
  Status SendToAll(NodeId from, std::shared_ptr<const MessagePayload> payload);

  /// Enables independent random loss of routed messages with probability
  /// `p` (deterministic from `seed`). Queued messages are never lost —
  /// they were never transmitted. Self-sends are never dropped. Layers
  /// that promise reliable delivery must be configured to cope; the
  /// Cluster needs gap repair enabled (config.gap_repair_interval) to
  /// survive loss (see DESIGN.md).
  ///
  /// Two guarantees make loss windows composable with FIFO channels:
  ///  * A dropped message still advances the per-channel FIFO floor, so a
  ///    window that opens mid-flight is timing-transparent: the messages
  ///    that survive are delivered at exactly the instants they would have
  ///    been in a loss-free run, and already-routed messages are never
  ///    retroactively dropped or reordered.
  ///  * Re-invoking with the same `seed` continues the existing drop
  ///    stream rather than replaying it from the start, so closing a
  ///    window (p = 0) and reopening it later draws fresh coin flips.
  ///    A different seed restarts the stream.
  void SetLossProbability(double p, uint64_t seed);

  /// Adds `extra` one-directional delay to every message routed on the
  /// ordered channel (from, to) — a "gray" link: up and routable, but
  /// slow in one direction. Composes with path latency and the FIFO
  /// floor. Pass 0 to restore the channel. `from != to` required.
  void SetChannelExtraDelay(NodeId from, NodeId to, SimTime extra);

  /// Observer invoked once per delivery (the same moment
  /// `stats_.messages_delivered` increments), just before the receive
  /// handler. Sees self-sends too. Pass nullptr to disable. Used by the
  /// verify layer's FIFO checker and per-scenario accounting.
  void SetDeliveryObserver(std::function<void(const Message&)> observer) {
    delivery_observer_ = std::move(observer);
  }

  /// Observer invoked once per counted send (from != to, before loss or
  /// queueing — the same moment `stats_.messages_sent` increments), with
  /// the payload and its wire size. Pass nullptr to disable. Used by the
  /// observability layer for per-type traffic accounting.
  void SetSendObserver(
      std::function<void(const MessagePayload&, size_t bytes)> observer) {
    send_observer_ = std::move(observer);
  }

  /// Observer invoked once per loss-window drop (the same moment
  /// `stats_.messages_dropped` increments), with the doomed message's
  /// endpoints and payload. Pass nullptr to disable. Used by the flight
  /// recorder: a drop is invisible to the receiver, so the black box is
  /// the only place it can leave evidence.
  void SetDropObserver(
      std::function<void(NodeId from, NodeId to, const MessagePayload&)>
          observer) {
    drop_observer_ = std::move(observer);
  }

  /// Summed over the per-node shards (sends/drops/queues are counted at
  /// the sender, deliveries at the receiver, so each shard has a single
  /// writer).
  NetworkStats stats() const;

  /// Number of messages currently queued waiting for connectivity.
  size_t pending_count() const;

 private:
  void Dispatch(NodeId from, NodeId to, SimTime deliver_at,
                std::shared_ptr<const MessagePayload> payload,
                SimTime sent_at);
  void FlushPending();
  /// Arrival instant for a message routed now on (from, to) with the
  /// given path latency: now + latency + any gray-link extra delay.
  SimTime ArrivalTime(NodeId from, NodeId to, SimTime latency) const;
  /// Loss stream for messages sent by `from`.
  Rng* LossRngFor(NodeId from);

  SimEngine* engine_;
  Topology* topology_;
  std::vector<std::function<void(const Message&)>> handlers_;
  // Messages waiting for a route: per-sender queues in send order,
  // flushed in (sender, send order).
  std::vector<std::deque<Message>> pending_by_sender_;
  // FIFO channel floor: earliest permissible next delivery per (from, to),
  // stored dense at index from*n+to (0 = unconstrained, since deliveries
  // never predate the start of the simulation).
  std::vector<SimTime> channel_floor_;
  // Gray-link extra delay per ordered (from, to) channel, dense at
  // from*n+to; allocated lazily on first SetChannelExtraDelay.
  std::vector<SimTime> channel_extra_;
  std::vector<NetworkStats> stats_;  // per acting node
  std::function<void(const MessagePayload&, size_t)> send_observer_;
  std::function<void(const Message&)> delivery_observer_;
  std::function<void(NodeId, NodeId, const MessagePayload&)> drop_observer_;
  bool flushing_ = false;
  double loss_probability_ = 0.0;
  uint64_t loss_seed_ = 0;
  bool have_loss_seed_ = false;
  std::vector<std::unique_ptr<Rng>> loss_rngs_;  // per sender
};

}  // namespace fragdb

#endif  // FRAGDB_NET_NETWORK_H_

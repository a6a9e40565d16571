#include "net/network.h"

#include <algorithm>

#include "common/logging.h"

namespace fragdb {

namespace {

/// Per-sender loss-stream seed: derived so each sender's drop pattern is
/// an independent deterministic stream.
uint64_t SenderSeed(uint64_t seed, NodeId from) {
  return seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(from + 1));
}

}  // namespace

Network::Network(SimEngine* engine, Topology* topology)
    : engine_(engine), topology_(topology) {
  handlers_.resize(topology->node_count());
  channel_floor_.assign(
      static_cast<size_t>(topology->node_count()) * topology->node_count(), 0);
  stats_.resize(topology->node_count());
  pending_by_sender_.resize(topology->node_count());
  loss_rngs_.resize(topology->node_count());
  topology_->OnChange([this] { FlushPending(); });
}

void Network::SetHandler(NodeId node,
                         std::function<void(const Message&)> handler) {
  FRAGDB_CHECK(node >= 0 && node < static_cast<NodeId>(handlers_.size()));
  handlers_[node] = std::move(handler);
}

Rng* Network::LossRngFor(NodeId from) {
  std::unique_ptr<Rng>& rng = loss_rngs_[from];
  if (rng == nullptr && have_loss_seed_) {
    rng = std::make_unique<Rng>(SenderSeed(loss_seed_, from));
  }
  return rng.get();
}

Status Network::Send(NodeId from, NodeId to,
                     std::shared_ptr<const MessagePayload> payload) {
  if (from < 0 || from >= topology_->node_count() || to < 0 ||
      to >= topology_->node_count()) {
    return Status::InvalidArgument("bad endpoint");
  }
  FRAGDB_CHECK(payload != nullptr);
  SimTime sent_at = engine_->Now();
  NetworkStats& sender_stats = stats_[from];
  if (from != to) {
    size_t bytes = payload->ByteSize();
    ++sender_stats.messages_sent;
    sender_stats.bytes_sent += bytes;
    if (send_observer_) send_observer_(*payload, bytes);
  }
  if (from == to) {
    Dispatch(from, to, sent_at, std::move(payload), sent_at);
    return Status::Ok();
  }
  Result<SimTime> lat = topology_->PathLatency(from, to);
  if (!lat.ok()) {
    ++sender_stats.messages_queued;
    pending_by_sender_[from].push_back(
        Message{from, to, sent_at, std::move(payload)});
    return Status::Ok();
  }
  SimTime deliver_at = ArrivalTime(from, to, *lat);
  Rng* loss_rng = loss_probability_ > 0.0 ? LossRngFor(from) : nullptr;
  if (loss_rng != nullptr && loss_rng->NextBool(loss_probability_)) {
    ++sender_stats.messages_dropped;
    // A dropped message still occupies its slot on the FIFO channel: the
    // floor advances exactly as if it had been delivered, so survivors
    // keep the schedule of a loss-free run and a window opening
    // mid-flight can never reorder (or retroactively drop) messages that
    // were already routed.
    SimTime& floor = channel_floor_[static_cast<size_t>(from) *
                                        topology_->node_count() +
                                    to];
    floor = std::max(floor, deliver_at);
    if (drop_observer_) drop_observer_(from, to, *payload);
    return Status::Ok();
  }
  Dispatch(from, to, deliver_at, std::move(payload), sent_at);
  return Status::Ok();
}

void Network::SetLossProbability(double p, uint64_t seed) {
  loss_probability_ = p;
  // Keep the RNG stream(s) alive across p transitions with the same seed
  // so reopening a window continues (rather than replays) the drop
  // pattern; only a different seed restarts it. While p == 0 no draws
  // happen, so the stream position is unchanged by a closed window.
  if (!have_loss_seed_ || seed != loss_seed_) {
    for (NodeId n = 0; n < topology_->node_count(); ++n) {
      loss_rngs_[n] = std::make_unique<Rng>(SenderSeed(seed, n));
    }
  }
  loss_seed_ = seed;
  have_loss_seed_ = true;
}

void Network::SetChannelExtraDelay(NodeId from, NodeId to, SimTime extra) {
  FRAGDB_CHECK(from >= 0 && from < topology_->node_count() && to >= 0 &&
               to < topology_->node_count() && from != to);
  FRAGDB_CHECK(extra >= 0);
  if (channel_extra_.empty()) {
    channel_extra_.assign(static_cast<size_t>(topology_->node_count()) *
                              topology_->node_count(),
                          0);
  }
  channel_extra_[static_cast<size_t>(from) * topology_->node_count() + to] =
      extra;
}

SimTime Network::ArrivalTime(NodeId from, NodeId to, SimTime latency) const {
  SimTime extra =
      channel_extra_.empty()
          ? 0
          : channel_extra_[static_cast<size_t>(from) * topology_->node_count() +
                           to];
  return engine_->Now() + latency + extra;
}

Status Network::SendToAll(NodeId from,
                          std::shared_ptr<const MessagePayload> payload) {
  for (NodeId to = 0; to < topology_->node_count(); ++to) {
    if (to == from) continue;
    FRAGDB_RETURN_IF_ERROR(Send(from, to, payload));
  }
  return Status::Ok();
}

void Network::Dispatch(NodeId from, NodeId to, SimTime deliver_at,
                       std::shared_ptr<const MessagePayload> payload,
                       SimTime sent_at) {
  // Enforce per-channel FIFO: never deliver before a message sent earlier
  // on the same (from, to) channel.
  SimTime& floor =
      channel_floor_[static_cast<size_t>(from) * topology_->node_count() + to];
  deliver_at = std::max(deliver_at, floor);
  floor = deliver_at;
  engine_->Post(from, to, deliver_at,
                [this, from, to, sent_at, p = std::move(payload)] {
                  ++stats_[to].messages_delivered;
                  Message m{from, to, sent_at, p};
                  if (delivery_observer_) delivery_observer_(m);
                  if (handlers_[to]) {
                    handlers_[to](m);
                  }
                });
}

void Network::FlushPending() {
  // Topology change callbacks can fire while we are already flushing (a
  // protocol may flip links from inside a handler); the outer flush will
  // pick up anything new.
  if (flushing_) return;
  flushing_ = true;
  // Per-sender queues, flushed sender-major: deterministic, and legal
  // because FlushPending only runs from globals/setup (topology changes
  // are global events).
  for (NodeId n = 0; n < topology_->node_count(); ++n) {
    std::deque<Message>& q = pending_by_sender_[n];
    std::deque<Message> still_pending;
    while (!q.empty()) {
      Message m = std::move(q.front());
      q.pop_front();
      Result<SimTime> lat = topology_->PathLatency(m.from, m.to);
      if (!lat.ok()) {
        still_pending.push_back(std::move(m));
        continue;
      }
      Dispatch(m.from, m.to, ArrivalTime(m.from, m.to, *lat),
               std::move(m.payload), m.sent_at);
    }
    q = std::move(still_pending);
  }
  flushing_ = false;
}

NetworkStats Network::stats() const {
  NetworkStats total;
  for (const NetworkStats& s : stats_) {
    total.messages_sent += s.messages_sent;
    total.messages_delivered += s.messages_delivered;
    total.messages_queued += s.messages_queued;
    total.messages_dropped += s.messages_dropped;
    total.bytes_sent += s.bytes_sent;
  }
  return total;
}

size_t Network::pending_count() const {
  size_t n = 0;
  for (const std::deque<Message>& q : pending_by_sender_) n += q.size();
  return n;
}

}  // namespace fragdb

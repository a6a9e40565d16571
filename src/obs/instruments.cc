#include "obs/instruments.h"

namespace fragdb {

namespace {

MetricKey NodeKey(const char* name, NodeId n) {
  MetricKey key;
  key.name = name;
  key.node = n;
  return key;
}

MetricKey NodeFragKey(const char* name, NodeId n, FragmentId f) {
  MetricKey key;
  key.name = name;
  key.node = n;
  key.fragment = f;
  return key;
}

MetricKey PlainKey(const char* name) {
  MetricKey key;
  key.name = name;
  return key;
}

}  // namespace

ClusterInstruments::ClusterInstruments(std::vector<MetricsRegistry>* registries,
                                       int fragments, bool durability)
    : fragments_(fragments), durability_(durability) {
  const NodeId nodes = static_cast<NodeId>(registries->size()) - 1;
  for (NodeId n = 0; n < nodes; ++n) {
    MetricsRegistry& r = (*registries)[n];
    txn_submitted_.push_back(r.GetCounter(NodeKey("txn_submitted_total", n)));
    txn_committed_.push_back(r.GetCounter(NodeKey("txn_committed_total", n)));
    txn_declined_.push_back(r.GetCounter(NodeKey("txn_declined_total", n)));
    txn_unavailable_.push_back(
        r.GetCounter(NodeKey("txn_unavailable_total", n)));
    txn_rejected_.push_back(r.GetCounter(NodeKey("txn_rejected_total", n)));
    quorum_write_acked_.push_back(
        r.GetCounter(NodeKey("quorum_write_acked_total", n)));
    quorum_read_served_.push_back(
        r.GetCounter(NodeKey("quorum_read_served_total", n)));
    paxos_decided_.push_back(r.GetCounter(NodeKey("paxos_decided_total", n)));
    paxos_recovery_rounds_.push_back(
        r.GetCounter(NodeKey("paxos_recovery_rounds_total", n)));
    commit_latency_us_.push_back(
        r.GetHistogram(NodeKey("commit_latency_us", n)));
    lock_wait_us_.push_back(r.GetHistogram(NodeKey("lock_wait_us", n)));
    lock_hold_us_.push_back(r.GetHistogram(NodeKey("lock_hold_us", n)));
    read_staleness_us_.push_back(
        r.GetHistogram(NodeKey("read_staleness_us", n)));
    for (FragmentId f = 0; f < fragments; ++f) {
      replication_lag_us_.push_back(
          r.GetHistogram(NodeFragKey("replication_lag_us", n, f)));
      holdback_depth_.push_back(
          r.GetGauge(NodeFragKey("holdback_depth", n, f)));
      applied_seq_.push_back(r.GetGauge(NodeFragKey("applied_seq", n, f)));
    }
    if (durability) {
      wal_records_.push_back(r.GetGauge(NodeKey("wal_records", n)));
      wal_fsyncs_.push_back(r.GetGauge(NodeKey("wal_fsyncs", n)));
      checkpoints_committed_.push_back(
          r.GetGauge(NodeKey("checkpoints_committed", n)));
      wal_bytes_truncated_.push_back(
          r.GetGauge(NodeKey("wal_bytes_truncated", n)));
      recovery_duration_us_.push_back(
          r.GetHistogram(NodeKey("recovery_duration_us", n)));
      wal_replayed_.push_back(
          r.GetCounter(NodeKey("wal_records_replayed_total", n)));
      peer_quasis_fetched_.push_back(
          r.GetCounter(NodeKey("peer_quasis_fetched_total", n)));
    }
  }
  MetricsRegistry& global = registries->back();
  partitions_ = global.GetCounter(PlainKey("partitions_total"));
  heals_ = global.GetCounter(PlainKey("heals_total"));
  node_down_ = global.GetCounter(PlainKey("node_down_total"));
  node_up_ = global.GetCounter(PlainKey("node_up_total"));
  amnesia_crashes_ = global.GetCounter(PlainKey("amnesia_crashes_total"));
  recoveries_ = global.GetCounter(PlainKey("recoveries_total"));
  for (MetricsRegistry& r : *registries) traffic_.push_back({&r, {}, {}});
}

void ClusterInstruments::OnMessageSentSlow(TrafficShard* shard,
                                           const char* type, size_t bytes) {
  // First message carrying this type-name pointer in this shard. The
  // string-keyed map guards against two distinct literals with equal
  // text: both end up on the same counters.
  auto it = shard->by_name.find(type);
  if (it == shard->by_name.end()) {
    MetricKey messages = PlainKey("messages_sent_total");
    messages.label = type;
    MetricKey sent_bytes = PlainKey("bytes_sent_total");
    sent_bytes.label = type;
    it = shard->by_name
             .emplace(type,
                      std::make_pair(shard->registry->GetCounter(messages),
                                     shard->registry->GetCounter(sent_bytes)))
             .first;
  }
  shard->fast.push_back({type, it->second.first, it->second.second});
  it->second.first->Add(1);
  it->second.second->Add(bytes);
}

}  // namespace fragdb

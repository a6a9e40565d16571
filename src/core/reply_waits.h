#ifndef FRAGDB_CORE_REPLY_WAITS_H_
#define FRAGDB_CORE_REPLY_WAITS_H_

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/engine.h"

namespace fragdb {

/// Collects replies from distinct nodes until `needed` have answered or a
/// timeout fires: the one shape behind §4.1 remote read locks, §4.4.1
/// majority acks, quorum write acks and read gathers, and Paxos phase-2b
/// votes. Each protocol supplies only its own `Data`.
///
/// Waits are sharded by the node that opened them, and a shard is touched
/// only from that node's events (or from globals): under the PDES engine
/// every shard has a single writer, so partition confinement holds without
/// locks. std::map keeps iteration, and hence every run, deterministic.
template <typename Key, typename Data>
class ReplyWaits {
 public:
  using TimeoutFn = std::function<void(NodeId node, const Key& key, Data)>;

  ReplyWaits() = default;
  // Armed timers hold `this`.
  ReplyWaits(const ReplyWaits&) = delete;
  ReplyWaits& operator=(const ReplyWaits&) = delete;

  /// One shard per node. With `on_timeout` set, every opened wait arms a
  /// timer of `timeout` on its node; if the timer fires first, the wait is
  /// closed and `on_timeout` receives its data. Without it, waits live
  /// until closed or wiped.
  void Init(SimEngine* engine, int nodes, SimTime timeout = 0,
            TimeoutFn on_timeout = nullptr) {
    engine_ = engine;
    shards_.resize(nodes);
    timeout_ = timeout;
    on_timeout_ = std::move(on_timeout);
  }

  /// Opens the wait `key` at `node`, replacing any previous one. It needs
  /// `needed` distinct repliers; the opening node counts as the first.
  void Open(NodeId node, const Key& key, int needed, Data data) {
    Close(node, key);
    Wait w{std::move(data), needed, {}};
    w.repliers.reserve(static_cast<size_t>(std::max(needed, 1)));
    w.repliers.push_back(node);
    if (on_timeout_) {
      w.timer = engine_->AfterNode(node, timeout_,
                                   [this, node, key] { Fire(node, key); });
    }
    shards_[node].emplace(key, std::move(w));
  }

  /// The live wait's data, or nullptr.
  Data* Find(NodeId node, const Key& key) {
    auto it = shards_[node].find(key);
    return it == shards_[node].end() ? nullptr : &it->second.data;
  }

  /// Counts `replier` toward the wait. Returns the data — closing the wait
  /// — exactly when this reply brings it to `needed` distinct repliers.
  std::optional<Data> Reply(NodeId node, const Key& key, NodeId replier) {
    auto it = shards_[node].find(key);
    if (it == shards_[node].end()) return std::nullopt;
    Wait& w = it->second;
    if (std::ranges::find(w.repliers, replier) != w.repliers.end()) {
      return std::nullopt;
    }
    w.repliers.push_back(replier);
    if (static_cast<int>(w.repliers.size()) < w.needed) return std::nullopt;
    return Close(node, key);
  }

  /// Closes the wait (cancelling its timer) and returns its data, or
  /// nullopt if no wait is live under `key`.
  std::optional<Data> Close(NodeId node, const Key& key) {
    auto it = shards_[node].find(key);
    if (it == shards_[node].end()) return std::nullopt;
    if (it->second.timer != -1) engine_->CancelNode(node, it->second.timer);
    Data data = std::move(it->second.data);
    shards_[node].erase(it);
    return data;
  }

  /// Amnesia: every wait opened at `node` dies with its volatile state,
  /// silently — no timeout fires, no continuation runs.
  void Wipe(NodeId node) {
    for (auto& [key, w] : shards_[node]) {
      if (w.timer != -1) engine_->CancelNode(node, w.timer);
    }
    shards_[node].clear();
  }

  /// True if any live wait on any node satisfies `pred` (global context).
  template <typename Pred>
  bool Any(Pred pred) const {
    for (const auto& shard : shards_) {
      for (const auto& [key, w] : shard) {
        if (pred(w.data)) return true;
      }
    }
    return false;
  }

 private:
  struct Wait {
    Data data;
    int needed = 0;
    /// Distinct, in reply order; room for `needed` is reserved at Open,
    /// so counting replies allocates nothing.
    std::vector<NodeId> repliers;
    EventId timer = -1;
  };

  void Fire(NodeId node, const Key& key) {
    auto it = shards_[node].find(key);
    if (it == shards_[node].end()) return;
    Data data = std::move(it->second.data);
    shards_[node].erase(it);
    on_timeout_(node, key, std::move(data));
  }

  SimEngine* engine_ = nullptr;
  SimTime timeout_ = 0;
  TimeoutFn on_timeout_;
  std::vector<std::map<Key, Wait>> shards_;
};

}  // namespace fragdb

#endif  // FRAGDB_CORE_REPLY_WAITS_H_

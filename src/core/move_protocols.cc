// Orchestration of the §4.4 agent-movement protocols. The replica-side
// message handling lives in node.cc; this file drives a move end to end:
// capture what the agent carries, simulate its travel, and re-open it for
// business at the new home under the configured protocol.

#include <utility>

#include "common/logging.h"
#include "core/cluster.h"

namespace fragdb {

Status Cluster::MoveAgent(AgentId agent, NodeId to_node, MoveCallback done) {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (!catalog_.ValidAgent(agent)) {
    return Status::InvalidArgument("no such agent");
  }
  if (catalog_.KindOf(agent) != AgentKind::kUser) {
    return Status::PermissionDenied("node agents cannot move");
  }
  if (to_node < 0 || to_node >= topology_.node_count()) {
    return Status::InvalidArgument("no such node");
  }
  if (config_.move_protocol == MoveProtocol::kForbidden) {
    return Status::PermissionDenied("agents are fixed in this configuration");
  }
  if (config_.move_protocol == MoveProtocol::kPaxosCommit) {
    // Paxos Commit replaces the §4.4 movement protocols outright: the
    // coordinator is expendable because every commit is decided by an
    // acceptor majority, so there is no token to hand over.
    return Status::FailedPrecondition(
        "paxos-commit clusters do not move agents; any majority can finish "
        "an in-flight commit, so there is no token hand-over to perform");
  }
  for (FragmentId f : catalog_.TokensOf(agent)) {
    if (!catalog_.ReplicatedAt(f, to_node)) {
      return Status::FailedPrecondition(
          "target node does not replicate " + catalog_.FragmentName(f));
    }
    // §4.1 synchronizes readers by locking the fragment at its agent's
    // home node; a moving home would silently strand those locks at the
    // old node. The paper never combines read locks with moving agents,
    // and neither do we.
    if (ControlFor(f) == ControlOption::kReadLocks) {
      return Status::FailedPrecondition(
          "fragments governed by read locks (§4.1) have fixed agents");
    }
  }
  Result<NodeId> from = catalog_.HomeOf(agent);
  if (!from.ok()) return from.status();
  AgentState& st = agent_state_[agent];
  if (st.phase != AgentPhase::kSettled) {
    return Status::FailedPrecondition("agent is already moving");
  }
  if (*from == to_node) {
    if (done) done(Status::Ok());
    return Status::Ok();
  }
  // §4.4.1 only: refuse to move with an update still waiting for acks on
  // one of the agent's fragments (the paper's protocols assume the last
  // transaction at the old home completed there).
  for (FragmentId f : catalog_.TokensOf(agent)) {
    if (majority_acks_.Any(
            [f](const MajorityWait& w) { return w.quasi.fragment == f; })) {
      return Status::FailedPrecondition(
          "an update on the agent's fragment is awaiting majority acks");
    }
  }
  st.phase = AgentPhase::kInTransit;
  st.move_done = std::move(done);
  Trace("move-start", to_node, kInvalidFragment, kInvalidTxn, 0,
        catalog_.AgentName(agent) + ": N" + std::to_string(*from) + " -> N" +
            std::to_string(to_node) + " (" +
            MoveProtocolName(config_.move_protocol) + ")");
  StartMove(agent, *from, to_node);
  return Status::Ok();
}

void Cluster::StartMove(AgentId agent, NodeId from, NodeId to) {
  // The preparatory-action protocols (§4.4.1/§4.4.2) must not leave an
  // update in flight at the old home: a transaction committing after the
  // capture would collide with the sequence numbers the new home hands
  // out. Drain by taking the exclusive fragment locks before capturing.
  // §4.4.3 deliberately skips this — late commits become its "missing
  // transactions".
  bool drain = config_.move_protocol != MoveProtocol::kOmitPrep;
  auto capture_and_travel = [this, agent, from, to] {
    NodeRuntime& src = *runtimes_[from];
    std::vector<ObjectStore::FragmentSnapshot> snapshots;
    std::map<FragmentId, SeqNum> carried_seqs;
    std::map<FragmentId, QuasiSeqMap> logs;
    for (FragmentId f : catalog_.TokensOf(agent)) {
      switch (config_.move_protocol) {
        case MoveProtocol::kMoveWithData:
          // §4.4.2A: the agent transports a copy of the fragment (tape,
          // magnetic-strip card, ...) plus the stream log so the new home
          // can serve catch-up requests later.
          snapshots.push_back(src.store().Snapshot(f));
          carried_seqs[f] = src.stream(f).applied_seq;
          logs[f] = src.stream(f).log;
          break;
        case MoveProtocol::kMoveWithSeqNum:
          // §4.4.2B: only the sequence number of the last transaction run
          // at the old home travels with the agent.
          carried_seqs[f] = src.stream(f).next_seq - 1;
          break;
        case MoveProtocol::kOmitPrep:
        case MoveProtocol::kMajorityCommit:
        case MoveProtocol::kForbidden:
        case MoveProtocol::kPaxosCommit:
          break;
      }
    }
    // Arrival mutates the catalog (SetHome) and shared agent state, so it
    // is a global event.
    engine_->AtGlobal(
        engine_->Now() + config_.agent_travel_time,
        [this, agent, from, to, snapshots = std::move(snapshots),
         carried_seqs = std::move(carried_seqs),
         logs = std::move(logs)]() mutable {
          ArriveMove(agent, from, to, std::move(snapshots),
                     std::move(carried_seqs), std::move(logs));
        });
  };
  if (!drain) {
    capture_and_travel();
    return;
  }
  auto tokens =
      std::make_shared<std::vector<FragmentId>>(catalog_.TokensOf(agent));
  TxnId drain_id = NewTxnId();
  auto acquire = std::make_shared<std::function<void(size_t)>>();
  std::weak_ptr<std::function<void(size_t)>> weak = acquire;
  *acquire = [this, from, tokens, drain_id, weak,
              capture_and_travel](size_t i) {
    if (i >= tokens->size()) {
      capture_and_travel();
      runtimes_[from]->locks().ReleaseAll(drain_id);
      return;
    }
    auto self = weak.lock();
    runtimes_[from]->locks().Acquire(
        drain_id, FragmentResource((*tokens)[i]), LockMode::kExclusive,
        [self, i](Status st) {
          FRAGDB_CHECK(st.ok());
          (*self)(i + 1);
        });
  };
  (*acquire)(0);
}

void Cluster::ArriveMove(
    AgentId agent, NodeId from, NodeId to,
    std::vector<ObjectStore::FragmentSnapshot> snapshots,
    std::map<FragmentId, SeqNum> carried_seqs,
    std::map<FragmentId, QuasiSeqMap> logs) {
  (void)from;
  Status st = catalog_.SetHome(agent, to);
  FRAGDB_CHECK(st.ok());
  NodeRuntime& dst = *runtimes_[to];
  AgentState& state = agent_state_[agent];

  switch (config_.move_protocol) {
    case MoveProtocol::kMoveWithData: {
      for (auto& snap : snapshots) {
        FragmentId f = snap.fragment;
        dst.AdoptSnapshot(snap, carried_seqs[f], std::move(logs[f]));
      }
      FinishMove(agent);
      return;
    }
    case MoveProtocol::kMoveWithSeqNum: {
      state.phase = AgentPhase::kCatchingUp;
      state.must_reach = carried_seqs;
      bool ready = true;
      for (const auto& [f, seq] : carried_seqs) {
        if (dst.stream(f).applied_seq < seq) ready = false;
      }
      if (ready) {
        for (const auto& [f, seq] : carried_seqs) {
          (void)seq;
          dst.stream(f).next_seq = dst.stream(f).applied_seq + 1;
        }
        FinishMove(agent);
      }
      // Otherwise OnAppliedAdvanced completes the move.
      return;
    }
    case MoveProtocol::kOmitPrep: {
      for (FragmentId f : catalog_.TokensOf(agent)) {
        dst.BeginOmitPrepEpoch(f);
      }
      FinishMove(agent);
      return;
    }
    case MoveProtocol::kMajorityCommit: {
      state.phase = AgentPhase::kCatchingUp;
      // Catch fragments up one at a time (the runtime tracks one catch-up
      // at a time), then reopen.
      auto tokens = std::make_shared<std::vector<FragmentId>>(
          catalog_.TokensOf(agent));
      auto next = std::make_shared<std::function<void(size_t)>>();
      std::weak_ptr<std::function<void(size_t)>> weak = next;
      *next = [this, agent, to, tokens, weak](size_t i) {
        if (i >= tokens->size()) {
          // The catch-up may complete inside a node event at `to`
          // (OnSeqReply / an install advancing); CompleteMove routes the
          // shared-state mutation to a global event when it must.
          CompleteMove(agent);
          return;
        }
        auto self = weak.lock();
        runtimes_[to]->MajorityCatchUp(
            (*tokens)[i], [self, i] { (*self)(i + 1); });
      };
      (*next)(0);
      return;
    }
    case MoveProtocol::kForbidden:
    case MoveProtocol::kPaxosCommit:
      FRAGDB_CHECK(false);  // MoveAgent rejects both before StartMove
  }
}

Status Cluster::RecoverAgent(AgentId agent, NodeId to_node,
                             MoveCallback done) {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (!catalog_.ValidAgent(agent)) {
    return Status::InvalidArgument("no such agent");
  }
  if (catalog_.KindOf(agent) != AgentKind::kUser) {
    return Status::PermissionDenied("node agents cannot move");
  }
  if (to_node < 0 || to_node >= topology_.node_count()) {
    return Status::InvalidArgument("no such node");
  }
  if (config_.move_protocol != MoveProtocol::kMajorityCommit) {
    return Status::FailedPrecondition(
        "token recovery requires the majority-commit protocol");
  }
  for (FragmentId f : catalog_.TokensOf(agent)) {
    if (!catalog_.ReplicatedAt(f, to_node)) {
      return Status::FailedPrecondition(
          "target node does not replicate " + catalog_.FragmentName(f));
    }
    if (ControlFor(f) == ControlOption::kReadLocks) {
      return Status::FailedPrecondition(
          "fragments governed by read locks (§4.1) have fixed agents");
    }
  }
  AgentState& st = agent_state_[agent];
  if (st.phase != AgentPhase::kSettled) {
    return Status::FailedPrecondition("agent is already moving");
  }
  st.phase = AgentPhase::kInTransit;
  st.move_done = std::move(done);
  Trace("recover", to_node, kInvalidFragment, kInvalidTxn, 0,
        catalog_.AgentName(agent) + " -> N" + std::to_string(to_node));
  engine_->AtGlobal(engine_->Now() + config_.agent_travel_time, [this, agent,
                                                                 to_node] {
    Status set = catalog_.SetHome(agent, to_node);
    FRAGDB_CHECK(set.ok());
    agent_state_[agent].phase = AgentPhase::kCatchingUp;
    // Catch up each fragment from a majority, then open a fresh epoch so
    // anything the lost home later disgorges is treated as missing.
    auto tokens =
        std::make_shared<std::vector<FragmentId>>(catalog_.TokensOf(agent));
    auto next = std::make_shared<std::function<void(size_t)>>();
    std::weak_ptr<std::function<void(size_t)>> weak = next;
    *next = [this, agent, to_node, tokens, weak](size_t i) {
      if (i >= tokens->size()) {
        for (FragmentId f : *tokens) {
          runtimes_[to_node]->BeginOmitPrepEpoch(f);
        }
        CompleteMove(agent);
        return;
      }
      auto self = weak.lock();
      runtimes_[to_node]->MajorityCatchUp(
          (*tokens)[i], [self, i] { (*self)(i + 1); });
    };
    (*next)(0);
  });
  return Status::Ok();
}

void Cluster::OnAppliedAdvanced(NodeId node, FragmentId fragment) {
  // A recovering node may just have closed its catch-up gap.
  if (recovery_) recovery_->OnAppliedAdvanced(node, fragment);
  // Complete §4.4.2B catch-up waits for agents parked at `node`.
  for (auto& [agent, state] : agent_state_) {
    if (state.phase != AgentPhase::kCatchingUp) continue;
    if (config_.move_protocol != MoveProtocol::kMoveWithSeqNum) continue;
    Result<NodeId> home = catalog_.HomeOf(agent);
    if (!home.ok() || *home != node) continue;
    if (state.must_reach.count(fragment) == 0) continue;
    NodeRuntime& dst = *runtimes_[node];
    bool ready = true;
    for (const auto& [f, seq] : state.must_reach) {
      if (dst.stream(f).applied_seq < seq) ready = false;
    }
    if (!ready) continue;
    for (const auto& [f, seq] : state.must_reach) {
      (void)seq;
      dst.stream(f).next_seq = dst.stream(f).applied_seq + 1;
    }
    CompleteMove(agent);
    return;  // FinishMove may mutate agent_state_; restart next event
  }
}

void Cluster::CompleteMove(AgentId agent) {
  // From setup or a global event, FinishMove runs inline. From a node
  // event it is deferred to a global: FinishMove flips shared agent state
  // and drains queued submissions, neither of which a node event may
  // touch. The catch-up conditions cannot regress meanwhile — streams
  // only advance — so no re-check is needed at the global.
  if (engine_->CurrentNode() == kInvalidNode) {
    FinishMove(agent);
    return;
  }
  AgentState& st = agent_state_[agent];
  if (st.finishing) return;
  st.finishing = true;
  engine_->AtGlobal(engine_->Now(), [this, agent] {
    agent_state_[agent].finishing = false;
    FinishMove(agent);
  });
}

void Cluster::FinishMove(AgentId agent) {
  Result<NodeId> home = catalog_.HomeOf(agent);
  Trace("move-finish", home.ok() ? *home : kInvalidNode, kInvalidFragment,
        kInvalidTxn, 0,
        catalog_.AgentName(agent) + " open at N" +
            (home.ok() ? std::to_string(*home) : std::string("?")));
  AgentState& state = agent_state_[agent];
  state.phase = AgentPhase::kSettled;
  state.must_reach.clear();
  MoveCallback done = std::move(state.move_done);
  state.move_done = nullptr;
  if (done) done(Status::Ok());
  DrainQueuedSubmissions(agent);
}

void Cluster::DrainQueuedSubmissions(AgentId agent) {
  AgentState& state = agent_state_[agent];
  while (!state.queued.empty() &&
         state.phase == AgentPhase::kSettled) {
    auto [spec, done] = std::move(state.queued.front());
    state.queued.pop_front();
    Submit(spec, std::move(done));
  }
}

}  // namespace fragdb

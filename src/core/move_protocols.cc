// Orchestration of the §4.4 agent-movement protocols. The replica-side
// message handling lives in node.cc; this file drives a move end to end:
// capture what the agent carries, simulate its travel, and re-open it for
// business at the new home under the configured protocol.

#include <utility>

#include "common/logging.h"
#include "core/cluster.h"

namespace fragdb {

Status Cluster::CheckMove(AgentId agent, NodeId to_node, Status protocol,
                         NodeId* from) {
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
  FRAGDB_RETURN_IF_ERROR(protocol);
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
  if (from != nullptr) {
    Result<NodeId> home = catalog_.HomeOf(agent);
    if (!home.ok()) return home.status();
    *from = *home;
  }
  if (agent_state_[agent].phase != AgentPhase::kSettled) {
    return Status::FailedPrecondition("agent is already moving");
  }
  return Status::Ok();
}

Status Cluster::MoveAgent(AgentId agent, NodeId to_node, MoveCallback done) {
  Status protocol = Status::Ok();
  if (config_.move_protocol == MoveProtocol::kForbidden) {
    protocol =
        Status::PermissionDenied("agents are fixed in this configuration");
  } else if (config_.move_protocol == MoveProtocol::kPaxosCommit) {
    // Paxos Commit replaces the §4.4 movement protocols outright: the
    // coordinator is expendable because every commit is decided by an
    // acceptor majority, so there is no token to hand over.
    protocol = Status::FailedPrecondition(
        "paxos-commit clusters do not move agents; any majority can finish "
        "an in-flight commit, so there is no token hand-over to perform");
  }
  NodeId from = kInvalidNode;
  FRAGDB_RETURN_IF_ERROR(CheckMove(agent, to_node, std::move(protocol), &from));
  if (from == to_node) {
    if (done) done(Status::Ok());
    return Status::Ok();
  }
  // §4.4.1 only: refuse to move with an update still waiting for acks on
  // one of the agent's fragments (the paper's protocols assume the last
  // transaction at the old home completed there).
  for (FragmentId f : catalog_.TokensOf(agent)) {
    if (majority_acks_.Any(
            [f](const MajorityWait& w) { return w.quasi->fragment == f; })) {
      return Status::FailedPrecondition(
          "an update on the agent's fragment is awaiting majority acks");
    }
  }
  AgentState& st = agent_state_[agent];
  st.phase = AgentPhase::kInTransit;
  st.move_done = std::move(done);
  Trace("move-start", to_node, kInvalidFragment, kInvalidTxn, 0,
        catalog_.AgentName(agent) + ": N" + std::to_string(from) + " -> N" +
            std::to_string(to_node) + " (" +
            MoveProtocolName(config_.move_protocol) + ")");
  StartMove(agent, from, to_node);
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
      // The last grant can come from a commit releasing its locks, before
      // that commit has recorded its sequence in the stream. Capture in a
      // separate event, once the commit is fully recorded.
      engine_->AfterNode(from, 0, [this, from, drain_id, capture_and_travel] {
        capture_and_travel();
        runtimes_[from]->locks().ReleaseAll(drain_id);
      });
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
      state.must_reach = std::move(carried_seqs);
      // If a carried seq is still missing, OnAppliedAdvanced completes the
      // move once it is applied.
      if (ReopenIfCaughtUp(to, state.must_reach)) FinishMove(agent);
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
      // The catch-up may complete inside a node event at `to` (a reply or
      // an install advancing); CompleteMove routes the shared-state
      // mutation to a global event when it must.
      dst.MajorityCatchUp(catalog_.TokensOf(agent),
                          [this, agent] { CompleteMove(agent); });
      return;
    }
    case MoveProtocol::kForbidden:
    case MoveProtocol::kPaxosCommit:
      FRAGDB_CHECK(false);  // MoveAgent rejects both before StartMove
  }
}

Status Cluster::RecoverAgent(AgentId agent, NodeId to_node,
                             MoveCallback done) {
  FRAGDB_RETURN_IF_ERROR(CheckMove(
      agent, to_node,
      config_.move_protocol == MoveProtocol::kMajorityCommit
          ? Status::Ok()
          : Status::FailedPrecondition(
                "token recovery requires the majority-commit protocol"),
      /*from=*/nullptr));
  AgentState& st = agent_state_[agent];
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
    std::vector<FragmentId> tokens = catalog_.TokensOf(agent);
    runtimes_[to_node]->MajorityCatchUp(tokens, [this, agent, to_node,
                                                 tokens] {
      for (FragmentId f : tokens) runtimes_[to_node]->BeginOmitPrepEpoch(f);
      CompleteMove(agent);
    });
  });
  return Status::Ok();
}

void Cluster::OnAppliedAdvanced(NodeId node, FragmentId fragment) {
  // A recovering node may just have closed its catch-up gap.
  if (recovery_) recovery_->OnAppliedAdvanced(node, fragment);
  // An installed decided Paxos slot may now leave the slot table.
  if (config_.move_protocol == MoveProtocol::kPaxosCommit) {
    PrunePaxosSlots(node, fragment);
  }
  // Complete §4.4.2B catch-up waits for agents parked at `node`.
  for (auto& [agent, state] : agent_state_) {
    if (state.phase != AgentPhase::kCatchingUp) continue;
    if (config_.move_protocol != MoveProtocol::kMoveWithSeqNum) continue;
    Result<NodeId> home = catalog_.HomeOf(agent);
    if (!home.ok() || *home != node) continue;
    if (state.must_reach.count(fragment) == 0) continue;
    if (!ReopenIfCaughtUp(node, state.must_reach)) continue;
    CompleteMove(agent);
    return;  // FinishMove may mutate agent_state_; restart next event
  }
}

void Cluster::FailWipedCatchUps(NodeId node) {
  if (config_.move_protocol != MoveProtocol::kMajorityCommit) return;
  for (auto& [agent, state] : agent_state_) {
    // A deferred FinishMove means the catch-up already completed.
    if (state.phase != AgentPhase::kCatchingUp || state.finishing) continue;
    Result<NodeId> home = catalog_.HomeOf(agent);
    if (!home.ok() || *home != node) continue;
    state.phase = AgentPhase::kSettled;
    MoveCallback done = std::move(state.move_done);
    state.move_done = nullptr;
    if (done) done(Status::Unavailable("the new home crashed during catch-up"));
    DrainQueuedSubmissions(agent);
  }
}

bool Cluster::ReopenIfCaughtUp(
    NodeId node, const std::map<FragmentId, SeqNum>& must_reach) {
  NodeRuntime& dst = *runtimes_[node];
  for (const auto& [f, seq] : must_reach) {
    if (dst.stream(f).applied_seq < seq) return false;
  }
  for (const auto& [f, seq] : must_reach) {
    (void)seq;
    dst.stream(f).next_seq = dst.stream(f).applied_seq + 1;
  }
  return true;
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

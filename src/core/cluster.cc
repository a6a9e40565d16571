#include "core/cluster.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "common/logging.h"

namespace fragdb {
namespace {

TxnResult FailResult(TxnId id, Status status, SimTime now) {
  TxnResult r;
  r.id = id;
  r.status = std::move(status);
  r.finished_at = now;
  return r;
}

}  // namespace

const char* ControlOptionName(ControlOption option) {
  switch (option) {
    case ControlOption::kReadLocks:
      return "read-locks(4.1)";
    case ControlOption::kAcyclicReads:
      return "acyclic-reads(4.2)";
    case ControlOption::kFragmentwise:
      return "fragmentwise(4.3)";
    case ControlOption::kQuorum:
      return "quorum(R+W>N)";
  }
  return "?";
}

const char* MoveProtocolName(MoveProtocol protocol) {
  switch (protocol) {
    case MoveProtocol::kForbidden:
      return "fixed-agents";
    case MoveProtocol::kMajorityCommit:
      return "majority-commit(4.4.1)";
    case MoveProtocol::kMoveWithData:
      return "move-with-data(4.4.2A)";
    case MoveProtocol::kMoveWithSeqNum:
      return "move-with-seqnum(4.4.2B)";
    case MoveProtocol::kOmitPrep:
      return "omit-prep(4.4.3)";
    case MoveProtocol::kPaxosCommit:
      return "paxos-commit";
  }
  return "?";
}

Cluster::Cluster(ClusterConfig config, Topology topology)
    : config_(config), topology_(std::move(topology)) {
  const int nodes = topology_.node_count();
  const int parts = config_.engine.partitions > 0
                        ? std::min(config_.engine.partitions, nodes)
                        : nodes;
  PdesScheduler::Options opts;
  opts.threads = config_.engine.threads;
  engine_ = std::make_unique<SimEngine>(
      PartitionPlan::Contiguous(nodes, parts),
      [this](const PartitionPlan& p) {
        return topology_.MinCrossPartitionLatency(p.owners());
      },
      opts);
  // Topology mutations happen in global events. Precompute the routing
  // rows there so concurrent node events never race on the lazy row
  // cache, and tell the scheduler its lookahead bound may have moved.
  // Registered before the Network's flush listener: lookahead shrinks
  // before any flushed message is posted.
  topology_.PrecomputeAllRows();
  topology_.OnChange([this] {
    topology_.PrecomputeAllRows();
    engine_->NotifyTopologyChanged();
  });
  network_ = std::make_unique<Network>(engine_.get(), &topology_);
}

Cluster::~Cluster() = default;

// --------------------------------------------------------------------------
// Schema & design
// --------------------------------------------------------------------------

FragmentId Cluster::DefineFragment(std::string name) {
  FRAGDB_CHECK(!started_);
  return catalog_.AddFragment(std::move(name));
}

Result<ObjectId> Cluster::DefineObject(FragmentId fragment, std::string name,
                                       Value initial_value) {
  FRAGDB_CHECK(!started_);
  return catalog_.AddObject(fragment, std::move(name), initial_value);
}

AgentId Cluster::DefineUserAgent(std::string name) {
  FRAGDB_CHECK(!started_);
  return catalog_.AddUserAgent(std::move(name));
}

AgentId Cluster::DefineNodeAgent(NodeId node, std::string name) {
  FRAGDB_CHECK(!started_);
  return catalog_.AddNodeAgent(node, std::move(name));
}

Status Cluster::AssignToken(FragmentId fragment, AgentId agent) {
  FRAGDB_CHECK(!started_);
  return catalog_.AssignToken(fragment, agent);
}

Status Cluster::SetAgentHome(AgentId agent, NodeId node) {
  if (node < 0 || node >= topology_.node_count()) {
    return Status::InvalidArgument("no such node");
  }
  FRAGDB_CHECK(!started_);
  return catalog_.SetHome(agent, node);
}

Status Cluster::DeclareRead(FragmentId from, FragmentId to) {
  FRAGDB_CHECK(!started_);
  if (!catalog_.ValidFragment(from) || !catalog_.ValidFragment(to)) {
    return Status::InvalidArgument("no such fragment");
  }
  declared_reads_.emplace_back(from, to);
  return Status::Ok();
}

Status Cluster::SetReplicaSet(FragmentId fragment,
                              std::vector<NodeId> nodes) {
  if (started_) return Status::FailedPrecondition("cluster already started");
  for (NodeId n : nodes) {
    if (n < 0 || n >= topology_.node_count()) {
      return Status::InvalidArgument("replica node out of range");
    }
  }
  return catalog_.SetReplicaSet(fragment, std::move(nodes));
}

void Cluster::SetCorrectiveAction(FragmentId fragment,
                                  CorrectiveAction action) {
  corrective_[fragment] = std::move(action);
}

Status Cluster::SetFragmentControl(FragmentId fragment,
                                   ControlOption control) {
  if (started_) return Status::FailedPrecondition("cluster already started");
  if (!catalog_.ValidFragment(fragment)) {
    return Status::InvalidArgument("no such fragment");
  }
  control_override_[fragment] = control;
  return Status::Ok();
}

ControlOption Cluster::ControlFor(FragmentId fragment) const {
  auto it = control_override_.find(fragment);
  return it == control_override_.end() ? config_.control : it->second;
}

Status Cluster::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  rag_ = std::make_unique<ReadAccessGraph>(catalog_.fragment_count());
  for (const auto& [from, to] : declared_reads_) {
    FRAGDB_RETURN_IF_ERROR(rag_->AddEdge(from, to));
  }
  for (FragmentId f = 0; f < catalog_.fragment_count(); ++f) {
    Result<NodeId> home = catalog_.HomeOfFragment(f);
    if (!home.ok()) {
      return Status::FailedPrecondition(
          "fragment " + catalog_.FragmentName(f) +
          " has no agent with a home node");
    }
    if (!catalog_.ReplicatedAt(f, *home)) {
      return Status::FailedPrecondition(
          "fragment " + catalog_.FragmentName(f) +
          " is not replicated at its agent's home node");
    }
  }
  // Replica sets are fixed from here on; resolve each once.
  replicas_.clear();
  for (FragmentId f = 0; f < catalog_.fragment_count(); ++f) {
    std::vector<NodeId> members = catalog_.ReplicaSet(f);
    if (members.empty()) {  // fully replicated
      for (NodeId n = 0; n < topology_.node_count(); ++n) {
        members.push_back(n);
      }
    }
    replicas_.push_back(std::move(members));
  }
  // Quorum control: validate the intersection property per governed
  // fragment (R + W > N over its replica set) and reject agent moves —
  // the quorum machinery pins each fragment's writer to its home.
  {
    bool any_quorum = config_.control == ControlOption::kQuorum;
    for (FragmentId f = 0; f < catalog_.fragment_count(); ++f) {
      if (ControlFor(f) == ControlOption::kQuorum) any_quorum = true;
    }
    if (any_quorum && config_.move_protocol != MoveProtocol::kForbidden) {
      return Status::FailedPrecondition(
          "ControlOption::kQuorum requires MoveProtocol::kForbidden");
    }
    if (any_quorum) {
      for (FragmentId f = 0; f < catalog_.fragment_count(); ++f) {
        if (ControlFor(f) != ControlOption::kQuorum) continue;
        const int n = static_cast<int>(replicas_[f].size());
        const int r = ReadQuorumFor(f);
        const int w = WriteQuorumFor(f);
        if (r < 1 || r > n || w < 1 || w > n || r + w <= n) {
          return Status::FailedPrecondition(
              "fragment " + catalog_.FragmentName(f) +
              ": quorum sizes R=" + std::to_string(r) +
              " W=" + std::to_string(w) + " violate 1<=R,W<=N and R+W>N (N=" +
              std::to_string(n) + ")");
        }
      }
    }
  }
  // Validate the §4.2 restriction over the fragments it actually governs:
  // the read-access subgraph among kAcyclicReads-typed fragments must be
  // elementarily acyclic (all fragments, when that is the cluster default
  // and nothing is overridden).
  {
    ReadAccessGraph acyclic_group(catalog_.fragment_count());
    bool any_acyclic = false;
    for (FragmentId f = 0; f < catalog_.fragment_count(); ++f) {
      if (ControlFor(f) == ControlOption::kAcyclicReads) any_acyclic = true;
    }
    if (any_acyclic) {
      for (const auto& [from, to] : declared_reads_) {
        if (ControlFor(from) == ControlOption::kAcyclicReads &&
            ControlFor(to) == ControlOption::kAcyclicReads) {
          FRAGDB_RETURN_IF_ERROR(acyclic_group.AddEdge(from, to));
        }
      }
      if (!acyclic_group.ElementarilyAcyclic()) {
        return Status::FailedPrecondition(
            "kAcyclicReads requires an elementarily acyclic read-access "
            "graph over the fragments it governs");
      }
    }
  }
  // Observability comes up before the runtimes so their constructors can
  // wire instruments (lock observers, read-staleness hooks).
  if (config_.observability.metrics) {
    metrics_.resize(topology_.node_count() + 1);
    obs_ = std::make_unique<ClusterInstruments>(
        &metrics_, catalog_.fragment_count(), config_.durability.enabled);
    network_->SetSendObserver([this](const MessagePayload& p, size_t bytes) {
      obs_->OnMessageSent(engine_->CurrentNode(), p.TypeName(), bytes);
    });
  }
  if (config_.observability.tracing) {
    tracer_ = std::make_unique<Tracer>(topology_.node_count());
  }
  if (config_.observability.timelines) {
    timelines_ = std::make_unique<ClusterTimelines>(
        topology_.node_count(), config_.observability.timeline_bucket_width);
    std::vector<NodeId> home(catalog_.fragment_count());
    for (FragmentId f = 0; f < catalog_.fragment_count(); ++f) {
      home[f] = *catalog_.HomeOfFragment(f);  // validated above
    }
    availability_ = std::make_unique<AvailabilityTracker>(
        topology_.node_count(), std::move(home),
        config_.observability.staleness_threshold);
    // Availability observation is strictly push-based: a topology listener
    // plus explicit hooks at the crash/revive/install sites. Nothing is
    // scheduled on the event queue, so runs behave identically with the
    // tracker on or off.
    topology_.OnChange([this] { RefreshHomeReachability(); });
  }
  if (config_.observability.flight_recorder) {
    flight_ = std::make_unique<Tracer>(
        topology_.node_count(), config_.observability.flight_recorder_capacity);
  }
  if (flight_ || tracer_) {
    // A dropped message is invisible to its receiver; the trace (and the
    // black box in particular) is the only place it leaves evidence.
    // Attributed to the receiver — the node that will show the gap.
    network_->SetDropObserver(
        [this](NodeId from, NodeId to, const MessagePayload& p) {
          Trace("drop", to, kInvalidFragment, kInvalidTxn, 0,
                std::string(p.TypeName()) + " N" + std::to_string(from) +
                    "->N" + std::to_string(to));
        });
  }
  for (NodeId n = 0; n < topology_.node_count(); ++n) {
    runtimes_.push_back(std::make_unique<NodeRuntime>(this, n));
    network_->SetHandler(n, [this, n](const Message& msg) {
      // An amnesia-crashed node truly cannot receive: in-flight messages
      // addressed to it are lost (peer catch-up recovers their content).
      // Crash-stopped nodes keep the historical in-flight-delivery
      // semantics (the packet slipped through before the freeze).
      if (amnesia_down_[n]) return;
      runtimes_[n]->HandleMessage(msg);
    });
  }
  const int nodes = topology_.node_count();
  amnesia_down_.assign(nodes, 0);
  remote_locks_.Init(engine_.get(), nodes, config_.remote_lock_timeout,
                     [](NodeId, const auto&, std::function<void(Status)> k) {
                       k(Status::TimedOut("remote read lock timed out"));
                     });
  majority_acks_.Init(engine_.get(), nodes, config_.majority_ack_timeout,
                      [this](NodeId node, TxnId id, MajorityWait w) {
                        AbortMajority(node, id, std::move(w));
                      });
  quorum_writes_.Init(
      engine_.get(), nodes, config_.majority_ack_timeout,
      [this](NodeId node, TxnId id, QuorumWriteWait w) {
        w.result.status = Status::Unavailable(
            "write quorum not reached (committed locally; still "
            "propagating)");
        w.result.finished_at = engine_->Now();
        Trace("fail", node, w.fragment, id, w.result.frag_seq,
              "T" + std::to_string(id) +
                  " Unavailable: write quorum not reached");
        w.done(w.result);
      });
  quorum_reads_.Init(
      engine_.get(), nodes, config_.quorum_read_timeout,
      [this](NodeId node, TxnId id, QuorumReadWait w) {
        Trace("fail", node, kInvalidFragment, id, 0,
              "T" + std::to_string(id) + " Unavailable: quorum read timeout");
        w.done(FailResult(id, Status::Unavailable("quorum read timed out"),
                          engine_->Now()));
      });
  paxos_votes_.Init(engine_.get(), nodes);
  paxos_acceptors_.resize(nodes);
  paxos_decided_through_.resize(nodes);
  paxos_indoubt_.resize(nodes);
  history_shards_.resize(nodes);
  txn_stripe_next_.assign(nodes + 1, 0);
  if (config_.durability.enabled) {
    recovery_ = std::make_unique<RecoveryManager>(this);
    for (NodeId n = 0; n < topology_.node_count(); ++n) {
      stable_.push_back(std::make_unique<StableStorage>());
      durability_.emplace_back();
      ResetDurability(n);
    }
  }
  started_ = true;
  return Status::Ok();
}

// --------------------------------------------------------------------------
// Submission
// --------------------------------------------------------------------------

Status Cluster::ValidateSpec(NodeId node, const TxnSpec& spec,
                             FragmentId* type_fragment) const {
  if (!spec.read_only()) {
    if (!catalog_.ValidFragment(spec.write_fragment)) {
      return Status::InvalidArgument("no such write fragment");
    }
    Result<AgentId> owner = catalog_.AgentOf(spec.write_fragment);
    if (!owner.ok() || *owner != spec.agent) {
      return Status::PermissionDenied(
          "agent does not hold the token for the written fragment");
    }
    Result<NodeId> home = catalog_.HomeOf(spec.agent);
    if (!home.ok() || *home != node) {
      return Status::PermissionDenied(
          "update transactions must run at the agent's home node");
    }
    *type_fragment = spec.write_fragment;
  } else {
    if (spec.agent != kInvalidAgent && catalog_.ValidAgent(spec.agent) &&
        !catalog_.TokensOf(spec.agent).empty()) {
      *type_fragment = catalog_.TokensOf(spec.agent)[0];
    } else {
      *type_fragment = kInvalidFragment;
    }
  }
  for (ObjectId o : spec.read_set) {
    if (!catalog_.ValidObject(o)) {
      return Status::InvalidArgument("no such object in read set");
    }
    // Quorum reads assemble their versions over the network, so a
    // read-only transaction may run at a node that holds no copy.
    if (spec.read_only() &&
        ControlFor(catalog_.FragmentOf(o)) == ControlOption::kQuorum) {
      continue;
    }
    if (!catalog_.ReplicatedAt(catalog_.FragmentOf(o), node)) {
      return Status::PermissionDenied(
          "fragment " + catalog_.FragmentName(catalog_.FragmentOf(o)) +
          " is not replicated at this node");
    }
  }
  return Status::Ok();
}

Status Cluster::CheckRagConformance(const TxnSpec& spec,
                                    FragmentId type_fragment) const {
  ControlOption effective = type_fragment == kInvalidFragment
                                ? config_.control
                                : ControlFor(type_fragment);
  if (effective != ControlOption::kAcyclicReads) return Status::Ok();
  if (type_fragment == kInvalidFragment) {
    // Anonymous reader: a single-fragment read is always safe; wider reads
    // need the explicit opt-in.
    std::set<FragmentId> frags;
    for (ObjectId o : spec.read_set) frags.insert(catalog_.FragmentOf(o));
    if (frags.size() <= 1) return Status::Ok();
    if (spec.read_only() && config_.allow_nonconforming_readonly) {
      return Status::Ok();
    }
    return Status::PermissionDenied(
        "multi-fragment anonymous read violates the read-access graph");
  }
  for (ObjectId o : spec.read_set) {
    FragmentId f = catalog_.FragmentOf(o);
    if (f == type_fragment) continue;
    if (rag_->HasEdge(type_fragment, f)) continue;
    if (spec.read_only() && config_.allow_nonconforming_readonly) continue;
    return Status::PermissionDenied(
        "read of " + catalog_.FragmentName(f) +
        " not declared in the read-access graph");
  }
  return Status::Ok();
}

void Cluster::Submit(const TxnSpec& spec, TxnCallback done) {
  FRAGDB_CHECK(started_);
  if (!done) done = [](const TxnResult&) {};
  Result<NodeId> home = catalog_.HomeOf(spec.agent);
  if (!home.ok()) {
    done(FailResult(kInvalidTxn,
                    Status::FailedPrecondition("agent has no home node"),
                    engine_->Now()));
    return;
  }
  auto state_it = agent_state_.find(spec.agent);
  if (state_it != agent_state_.end()) {
    AgentState& st = state_it->second;
    if (st.phase == AgentPhase::kInTransit && !spec.read_only()) {
      done(FailResult(kInvalidTxn,
                      Status::Unavailable("agent is in transit"), engine_->Now()));
      return;
    }
    if (st.phase == AgentPhase::kCatchingUp && !spec.read_only()) {
      // §4.4.2B: the agent waits at the new home until it catches up.
      st.queued.emplace_back(spec, std::move(done));
      return;
    }
  }
  SubmitAt(*home, spec, std::move(done));
}

void Cluster::SubmitReadOnlyAt(NodeId node, const TxnSpec& spec,
                               TxnCallback done) {
  FRAGDB_CHECK(started_);
  if (!done) done = [](const TxnResult&) {};
  if (!spec.read_only()) {
    done(FailResult(kInvalidTxn,
                    Status::InvalidArgument(
                        "SubmitReadOnlyAt requires a read-only transaction"),
                    engine_->Now()));
    return;
  }
  SubmitAt(node, spec, std::move(done));
}

void Cluster::SubmitAt(NodeId node, TxnSpec spec, TxnCallback done) {
  if (node < 0 || node >= topology_.node_count()) {
    done(FailResult(kInvalidTxn, Status::InvalidArgument("no such node"),
                    engine_->Now()));
    return;
  }
  if (obs_ || timelines_) {
    if (obs_) obs_->TxnSubmitted(node)->Add();
    SimTime submitted_at = engine_->Now();
    done = [this, node, submitted_at,
            inner = std::move(done)](const TxnResult& r) {
      if (r.status.ok()) {
        if (obs_) {
          obs_->TxnCommitted(node)->Add();
          obs_->CommitLatency(node)->Observe(r.finished_at - submitted_at);
        }
        if (timelines_) timelines_->Committed(node).Mark(r.finished_at);
      } else if (r.status.IsFailedPrecondition()) {
        if (obs_) obs_->TxnDeclined(node)->Add();
      } else if (r.status.IsUnavailable() || r.status.IsTimedOut()) {
        if (obs_) obs_->TxnUnavailable(node)->Add();
        if (timelines_) timelines_->Unavailable(node).Mark(r.finished_at);
      } else {
        if (obs_) obs_->TxnRejected(node)->Add();
      }
      inner(r);
    };
  }
  if (!topology_.IsNodeUp(node)) {
    done(FailResult(kInvalidTxn, Status::Unavailable("node is down"),
                    engine_->Now()));
    return;
  }
  FragmentId type_fragment = kInvalidFragment;
  Status st = ValidateSpec(node, spec, &type_fragment);
  if (st.ok()) st = CheckRagConformance(spec, type_fragment);
  if (!st.ok()) {
    done(FailResult(kInvalidTxn, st, engine_->Now()));
    return;
  }

  TxnId id = NewTxnId();
  TxnRecord rec;
  rec.id = id;
  rec.agent = spec.agent;
  rec.type_fragment = type_fragment;
  rec.home = node;
  rec.read_only = spec.read_only();
  rec.label = spec.label;
  HistorySink(node).RegisterTxn(rec);
  Trace(TraceDetail::kSubmit, node, type_fragment, id, 0, spec.label);

  ControlOption effective = type_fragment == kInvalidFragment
                                ? config_.control
                                : ControlFor(type_fragment);
  if (spec.read_only() && effective == ControlOption::kQuorum) {
    ExecuteQuorumRead(id, node, std::move(spec), std::move(done));
    return;
  }

  // §4.1: build the lock plan — shared locks on every fragment read
  // (acquired at that fragment's home node) plus the exclusive lock on the
  // written fragment, all in globally sorted fragment order (deadlock
  // freedom).
  std::shared_ptr<std::vector<LockPlanStep>> plan;
  if (effective == ControlOption::kReadLocks) {
    plan = std::make_shared<std::vector<LockPlanStep>>();
    std::set<FragmentId> read_frags;
    for (ObjectId o : spec.read_set) read_frags.insert(catalog_.FragmentOf(o));
    read_frags.erase(spec.write_fragment);
    std::set<FragmentId> all;
    for (FragmentId f : read_frags) all.insert(f);
    if (!spec.read_only()) all.insert(spec.write_fragment);
    for (FragmentId f : all) {
      LockPlanStep step;
      step.fragment = f;
      step.mode = (f == spec.write_fragment && !spec.read_only())
                      ? LockMode::kExclusive
                      : LockMode::kShared;
      Result<NodeId> home = catalog_.HomeOfFragment(f);
      step.home = home.ok() ? *home : node;
      if (step.mode == LockMode::kExclusive) step.home = node;
      plan->push_back(step);
    }
  }

  // The spec moves into `run` here and on into the scheduler's prepare
  // slot; it is never copied again.
  const bool writes = !spec.read_only();
  TxnCallback plan_done = plan ? done : nullptr;
  auto run = [this, id, node, spec = std::move(spec), done = std::move(done)](
                 bool x_preacquired, std::function<void()> after) mutable {
    if (!spec.read_only() &&
        config_.move_protocol == MoveProtocol::kMajorityCommit) {
      ExecuteMajority(id, node, std::move(spec), x_preacquired,
                      std::move(done), std::move(after));
    } else if (!spec.read_only() &&
               config_.move_protocol == MoveProtocol::kPaxosCommit) {
      ExecutePaxosCommit(id, node, std::move(spec), x_preacquired,
                         std::move(done), std::move(after));
    } else {
      ExecuteAndPropagate(id, node, std::move(spec), x_preacquired,
                          std::move(done), std::move(after));
    }
  };
  if (!plan) {
    run(false, [] {});
    return;
  }
  AcquireLockPlan(id, node, plan, 0, std::move(plan_done), writes,
                  [this, run = std::move(run), plan, id, node](
                      bool x_pre) mutable {
                    run(x_pre, [this, id, node, plan] {
                      ReleasePlanLocks(id, node, *plan, plan->size());
                    });
                  });
}

void Cluster::AcquireLockPlan(TxnId id, NodeId node,
                              std::shared_ptr<std::vector<LockPlanStep>> plan,
                              size_t next, TxnCallback done, bool writes,
                              std::function<void(bool x_preacquired)> run) {
  if (next >= plan->size()) {
    run(writes);
    return;
  }
  const LockPlanStep step = (*plan)[next];
  // Each step's grant runs once, so it hands `done` and `run` on by move.
  auto proceed = [this, id, node, plan = std::move(plan), next,
                  done = std::move(done), writes,
                  run = std::move(run)](Status st) mutable {
    if (!st.ok()) {
      FailLockPlan(id, node, *plan, next, std::move(done),
                   Status::Unavailable("read lock unavailable: " +
                                       st.ToString()));
      return;
    }
    AcquireLockPlan(id, node, std::move(plan), next + 1, std::move(done),
                    writes, std::move(run));
  };
  if (step.home == node) {
    runtimes_[node]->locks().Acquire(id, FragmentResource(step.fragment),
                                     step.mode, std::move(proceed));
    return;
  }
  // Remote shared lock with timeout.
  remote_locks_.Open(node, {id, step.fragment}, 1, std::move(proceed));
  auto req = std::make_shared<ReadLockRequest>();
  req->txn = id;
  req->fragment = step.fragment;
  req->requester = node;
  Status send = network_->Send(node, step.home, req);
  FRAGDB_CHECK(send.ok());
}

void Cluster::OnRemoteLockGrant(NodeId node, NodeId home,
                                const ReadLockGrant& grant) {
  if (auto cont = remote_locks_.Close(node, {grant.txn, grant.fragment})) {
    (*cont)(Status::Ok());
    return;
  }
  // No live wait (it timed out, or died in an amnesia crash): release the
  // lock right back so it does not leak at the home.
  auto rel = std::make_shared<ReadLockRelease>();
  rel->txn = grant.txn;
  rel->fragment = grant.fragment;
  network_->Send(node, home, rel);
}

void Cluster::FailLockPlan(TxnId id, NodeId node,
                           const std::vector<LockPlanStep>& plan,
                           size_t acquired, TxnCallback done, Status why) {
  ReleasePlanLocks(id, node, plan, acquired);
  done(FailResult(id, std::move(why), engine_->Now()));
}

void Cluster::ReleasePlanLocks(TxnId id, NodeId node,
                               const std::vector<LockPlanStep>& plan,
                               size_t acquired) {
  bool released_local = false;
  for (size_t i = 0; i < acquired && i < plan.size(); ++i) {
    const LockPlanStep& step = plan[i];
    if (step.home == node) {
      if (!released_local) {
        runtimes_[node]->locks().ReleaseAll(id);
        released_local = true;
      }
    } else {
      auto rel = std::make_shared<ReadLockRelease>();
      rel->txn = id;
      rel->fragment = step.fragment;
      network_->Send(node, step.home, rel);
    }
  }
  // Close any still-pending remote wait of this transaction (all live in
  // the requester's shard). Its grant, if it ever comes, then matches no
  // live wait and OnRemoteLockGrant releases it back to the home.
  for (const LockPlanStep& step : plan) {
    if (step.home != node) remote_locks_.Close(node, {id, step.fragment});
  }
}

// --------------------------------------------------------------------------
// Execution paths
// --------------------------------------------------------------------------

void Cluster::ExecuteAndPropagate(TxnId id, NodeId node, TxnSpec spec,
                                  bool x_preacquired, TxnCallback done,
                                  std::function<void()> after) {
  const bool read_only = spec.read_only();
  PrepareUpdate(
      id, node, std::move(spec), x_preacquired, std::move(done),
      std::move(after),
      [this, id, node, read_only, release_locks = !x_preacquired](
          TxnResult result, QuasiRef quasi, TxnCallback done,
          std::function<void()> after) {
        const FragmentId wf = read_only ? kInvalidFragment : quasi->fragment;
        if (!read_only) {
          runtimes_[node]->scheduler().CommitPrepared(*quasi, release_locks);
        }
        if (result.status.ok()) {
          Trace(TraceDetail::kCommit, node, wf, id, result.frag_seq);
        } else if (tracing_active()) {
          Trace("commit", node, wf, id, result.frag_seq,
                "T" + std::to_string(id) + " " + result.status.ToString());
        }
        if (read_only) {
          MarkCommittedAt(node, id, 0);
          after();
          done(std::move(result));
          return;
        }
        BroadcastLocalCommit(node, std::move(quasi));
        Trace(TraceDetail::kBroadcast, node, wf, id, result.frag_seq);
        after();
        // kQuorum: the commit stands, but the client hears back only once
        // W replicas have *installed* the write (or the wait times out —
        // the write keeps propagating either way).
        if (ControlFor(wf) != ControlOption::kQuorum) {
          done(std::move(result));
          return;
        }
        const int needed = WriteQuorumFor(wf);
        if (needed > 1) {
          quorum_writes_.Open(node, id, needed,
                              {wf, std::move(result), std::move(done)});
          return;
        }
        QuorumWriteRecord rec;
        rec.txn = id;
        rec.fragment = wf;
        rec.seq = result.frag_seq;
        rec.acks = 1;
        rec.acked_at = engine_->Now();
        HistorySink(node).RecordQuorumWrite(rec);
        if (obs_) obs_->QuorumWriteAcked(node)->Add();
        done(std::move(result));
      });
}

void Cluster::BroadcastLocalCommit(NodeId home, QuasiRef quasi) {
  const FragmentId wf = quasi->fragment;
  MarkCommittedAt(home, quasi->origin_txn, quasi->seq);
  NodeRuntime& rt = *runtimes_[home];
  rt.RecordLocalCommit(quasi);
  auto msg = std::make_shared<QuasiTxnMsg>();
  msg->quasi = std::move(quasi);
  msg->epoch = rt.stream(wf).epoch;
  Status st = SendToReplicas(home, wf, msg);
  FRAGDB_CHECK(st.ok());
}

void Cluster::OnQuorumAppliedAck(NodeId home, const QuorumAppliedAck& ack) {
  std::optional<QuorumWriteWait> w =
      quorum_writes_.Reply(home, ack.txn, ack.acker);
  if (!w) return;
  QuorumWriteRecord rec;
  rec.txn = ack.txn;
  rec.fragment = w->fragment;
  rec.seq = w->result.frag_seq;
  rec.acks = WriteQuorumFor(w->fragment);  // the wait closes at exactly W
  rec.acked_at = engine_->Now();
  HistorySink(home).RecordQuorumWrite(rec);
  if (obs_) obs_->QuorumWriteAcked(home)->Add();
  w->result.finished_at = engine_->Now();
  if (tracing_active()) {
    Trace("quorum-write", home, w->fragment, ack.txn, rec.seq,
          "T" + std::to_string(ack.txn) + " W=" + std::to_string(rec.acks) +
              " acked");
  }
  w->done(w->result);
}

void Cluster::ExecuteQuorumRead(TxnId id, NodeId node, TxnSpec spec,
                                TxnCallback done) {
  QuorumReadWait wait;
  wait.spec = std::move(spec);
  wait.started_at = engine_->Now();
  wait.done = std::move(done);
  std::map<FragmentId, std::vector<ObjectId>> by_fragment;
  for (ObjectId o : wait.spec.read_set) {
    by_fragment[catalog_.FragmentOf(o)].push_back(o);
  }
  bool all_complete = true;
  for (auto& [f, objects] : by_fragment) {
    QuorumReadWait::FragmentGather& g = wait.gathers[f];
    g.needed = ReadQuorumFor(f);
    const std::vector<NodeId>& members = replicas_[f];
    // The requester's own replica counts toward R when it holds a copy.
    if (std::find(members.begin(), members.end(), node) != members.end()) {
      g.repliers.insert(node);
      const ObjectStore& store = runtimes_[node]->store();
      for (ObjectId o : objects) {
        const VersionInfo& info = store.Info(o);
        auto [slot, inserted] = g.best.try_emplace(o, info);
        if (!inserted && info.frag_seq > slot->second.frag_seq) {
          slot->second = info;
        }
      }
    }
    if (static_cast<int>(g.repliers.size()) < g.needed) {
      all_complete = false;
      auto req = std::make_shared<QuorumReadRequest>();
      req->txn = id;
      req->fragment = f;
      req->requester = node;
      req->objects = objects;
      for (NodeId m : members) {
        if (m != node) network_->Send(node, m, req);
      }
    }
  }
  if (all_complete) {
    FinishQuorumRead(id, node, std::move(wait));
    return;
  }
  // The per-fragment gathers count their own repliers.
  quorum_reads_.Open(node, id, 0, std::move(wait));
}

void Cluster::OnQuorumReadReply(NodeId node, const QuorumReadReply& reply) {
  QuorumReadWait* wait = quorum_reads_.Find(node, reply.txn);
  if (wait == nullptr) return;
  auto git = wait->gathers.find(reply.fragment);
  if (git == wait->gathers.end()) return;
  QuorumReadWait::FragmentGather& g = git->second;
  if (static_cast<int>(g.repliers.size()) >= g.needed) return;
  if (!g.repliers.insert(reply.replier).second) return;
  for (size_t i = 0; i < reply.objects.size(); ++i) {
    VersionInfo info;
    info.value = reply.values[i];
    info.frag_seq = reply.seqs[i];
    info.writer = reply.writers[i];
    auto [slot, inserted] = g.best.try_emplace(reply.objects[i], info);
    if (!inserted && info.frag_seq > slot->second.frag_seq) {
      slot->second = info;
    }
  }
  if (static_cast<int>(g.repliers.size()) < g.needed) return;
  for (const auto& [f, gather] : wait->gathers) {
    if (static_cast<int>(gather.repliers.size()) < gather.needed) return;
  }
  FinishQuorumRead(reply.txn, node, *quorum_reads_.Close(node, reply.txn));
}

void Cluster::FinishQuorumRead(TxnId id, NodeId node, QuorumReadWait wait) {
  const SimTime now = engine_->Now();
  std::vector<Value> values;
  values.reserve(wait.spec.read_set.size());
  for (ObjectId o : wait.spec.read_set) {
    const QuorumReadWait::FragmentGather& g =
        wait.gathers[catalog_.FragmentOf(o)];
    auto bit = g.best.find(o);
    values.push_back(bit == g.best.end() ? Value{} : bit->second.value);
  }
  TxnResult result;
  result.id = id;
  result.reads = values;
  result.finished_at = now;
  if (wait.spec.body) {
    Result<std::vector<WriteOp>> body = wait.spec.body(values);
    if (!body.ok()) {
      result.status = body.status();
      if (tracing_active()) {
        Trace(result.status.IsFailedPrecondition() ? "decline" : "fail",
              node, kInvalidFragment, id, 0,
              "T" + std::to_string(id) + " " + result.status.ToString());
      }
      wait.done(std::move(result));
      return;
    }
  }
  History& sink = HistorySink(node);
  for (const auto& [f, g] : wait.gathers) {
    QuorumReadRecord rec;
    rec.reader = id;
    rec.node = node;
    rec.fragment = f;
    rec.replies = static_cast<int>(g.repliers.size());
    rec.at = wait.started_at;
    for (const auto& [o, info] : g.best) {
      rec.observed.emplace_back(o, info.frag_seq);
      ReadRecord rr;
      rr.reader = id;
      rr.node = node;
      rr.object = o;
      rr.version_writer = info.writer;
      rr.version_seq = info.frag_seq;
      rr.at = now;
      sink.RecordRead(rr);
    }
    sink.RecordQuorumRead(rec);
  }
  MarkCommittedAt(node, id, 0);
  if (obs_) obs_->QuorumReadServed(node)->Add();
  if (tracing_active()) {
    Trace("commit", node, kInvalidFragment, id, 0,
          "T" + std::to_string(id) + " OK (quorum read)");
  }
  result.status = Status::Ok();
  wait.done(std::move(result));
}

void Cluster::PrepareUpdate(TxnId id, NodeId node, TxnSpec spec,
                            bool x_preacquired, TxnCallback done,
                            std::function<void()> after,
                            PreparedFn prepared) {
  const FragmentId wf = spec.write_fragment;
  const bool release_locks = !spec.read_only() && !x_preacquired;
  runtimes_[node]->scheduler().Prepare(
      id, std::move(spec), x_preacquired,
      [this, id, node, wf, release_locks, done = std::move(done),
       after = std::move(after),
       prepared = std::move(prepared)](TxnResult result) mutable {
        NodeRuntime& rt = *runtimes_[node];
        if (!result.status.ok()) {
          rt.scheduler().AbortPrepared(id, release_locks);
          if (tracing_active()) {
            Trace(result.status.IsFailedPrecondition() ? "decline" : "fail",
                  node, wf, id, 0,
                  "T" + std::to_string(id) + " " + result.status.ToString());
          }
          after();
          done(std::move(result));
          return;
        }
        QuasiRef quasi;
        if (wf != kInvalidFragment) {
          // Every committed update takes the next seq, even with no
          // writes, so the replicas agree on the fragment's history.
          result.frag_seq = rt.stream(wf).next_seq++;
          // The commit's one quasi-transaction record: every replica,
          // message, log and slot shares it from here on.
          auto q = std::make_shared<QuasiTxn>();
          q->origin_txn = id;
          q->fragment = wf;
          q->seq = result.frag_seq;
          q->origin_node = node;
          q->origin_time = engine_->Now();
          q->writes = result.writes;
          quasi = std::move(q);
        }
        prepared(std::move(result), std::move(quasi), std::move(done),
                 std::move(after));
      });
}

void Cluster::ExecuteMajority(TxnId id, NodeId node, TxnSpec spec,
                              bool x_preacquired, TxnCallback done,
                              std::function<void()> after) {
  PrepareUpdate(
      id, node, std::move(spec), x_preacquired, std::move(done),
      std::move(after),
      [this, id, node, release_locks = !x_preacquired](
          TxnResult result, QuasiRef quasi, TxnCallback done,
          std::function<void()> after) {
        const FragmentId wf = quasi->fragment;
        auto prep = std::make_shared<QuasiPrepare>();
        prep->quasi = quasi;
        prep->epoch = runtimes_[node]->stream(wf).epoch;
        Status st = SendToReplicas(node, wf, prep);
        FRAGDB_CHECK(st.ok());
        const int needed = MajoritySizeFor(wf);
        majority_acks_.Open(node, id, needed,
                            {std::move(quasi), release_locks,
                             std::move(result), std::move(done),
                             std::move(after)});
        if (needed <= 1) {
          // Single-node majority: commit immediately.
          CommitMajority(node, id, *majority_acks_.Close(node, id));
        }
      });
}

void Cluster::CommitMajority(NodeId node, TxnId id, MajorityWait w) {
  const FragmentId wf = w.quasi->fragment;
  const SeqNum seq = w.quasi->seq;
  NodeRuntime& rt = *runtimes_[node];
  rt.scheduler().CommitPrepared(*w.quasi, w.release_locks);
  MarkCommittedAt(node, id, seq);
  rt.RecordLocalCommit(w.quasi);
  auto cmt = std::make_shared<QuasiCommit>();
  cmt->fragment = wf;
  cmt->seq = seq;
  Status st = SendToReplicas(node, wf, cmt);
  FRAGDB_CHECK(st.ok());
  w.result.status = Status::Ok();
  w.result.finished_at = engine_->Now();
  if (tracing_active()) {
    Trace("commit", node, wf, id, seq,
          "T" + std::to_string(id) + " OK (majority)");
  }
  Trace(TraceDetail::kBroadcast, node, wf, id, seq);
  w.after();
  w.done(w.result);
}

void Cluster::AbortMajority(NodeId node, TxnId id, MajorityWait w) {
  const FragmentId wf = w.quasi->fragment;
  NodeRuntime& rt = *runtimes_[node];
  // Roll the tentative sequence back; the exclusive fragment lock is still
  // held, so nothing else allocated meanwhile.
  rt.stream(wf).next_seq--;
  rt.scheduler().AbortPrepared(id, w.release_locks);
  w.result.status =
      Status::Unavailable("majority acknowledgments not received");
  w.result.finished_at = engine_->Now();
  Trace("fail", node, wf, id, 0,
        "T" + std::to_string(id) + " Unavailable: no majority acks");
  w.after();
  w.done(w.result);
}

void Cluster::OnMajorityAck(NodeId home, const QuasiAck& ack) {
  if (auto w = majority_acks_.Reply(home, ack.txn, ack.acker)) {
    CommitMajority(home, ack.txn, std::move(*w));
  }
}

namespace {
/// Recovery rounds a proposer runs before giving up until connectivity
/// changes (mirrors the gap repairer's strike policy, so an unreachable
/// slot cannot keep the event queue busy forever). Heals, link-ups, and
/// node revivals reset the count via ReschedulePaxosRecovery.
constexpr int kPaxosMaxStrikes = 10;
}  // namespace

void Cluster::ExecutePaxosCommit(TxnId id, NodeId node, TxnSpec spec,
                                 bool x_preacquired, TxnCallback done,
                                 std::function<void()> after) {
  const FragmentId wf = spec.write_fragment;
  if (PaxosFragmentInDoubt(node, wf)) {
    // A revived home with an undecided durable slot: the slot's locks died
    // in the crash, so a new prepare could read past its pending write.
    // Classic in-doubt blocking — decline until the outcome lands (the
    // surviving acceptors' recovery rounds are already driving it).
    Trace("decline", node, wf, id, 0,
          "T" + std::to_string(id) + " paxos slot in doubt");
    after();
    done(FailResult(
        id, Status::Unavailable("paxos slot in doubt after crash recovery"),
        engine_->Now()));
    return;
  }
  PrepareUpdate(
      id, node, std::move(spec), x_preacquired, std::move(done),
      std::move(after),
      [this, id, node, wf, release_locks = !x_preacquired](
          TxnResult result, QuasiRef quasi, TxnCallback done,
          std::function<void()> after) {
        const SeqNum seq = quasi->seq;
        const Epoch epoch = runtimes_[node]->stream(wf).epoch;
        const auto key = std::make_pair(wf, seq);
        PaxosInstance& inst = paxos_acceptors_[node][key];
        inst.value = quasi;
        inst.epoch = epoch;
        inst.prepared_txn = id;
        inst.result = std::make_shared<TxnResult>(std::move(result));
        inst.done = std::move(done);
        // The proposer timeout only bounds how long the *client* waits:
        // the slot stays proposed and the recovery rounds finish the
        // commit — it is never abandoned (the non-blocking property).
        inst.client_timeout = engine_->AfterNode(
            node, config_.majority_ack_timeout, [this, node, key] {
              auto& shard = paxos_acceptors_[node];
              auto it = shard.find(key);
              if (it == shard.end() || it->second.decided) return;
              Trace("fail", node, key.first, it->second.prepared_txn,
                    key.second, "paxos outcome pending recovery");
              FinishPaxosClient(
                  node, it->second,
                  Status::Unavailable(
                      "paxos majority not reached; outcome pending "
                      "recovery"));
            });

        const bool single_replica = MajoritySizeFor(wf) <= 1;
        // Proposing fixes the slot's value for good, so the home applies
        // the writes and releases the locks right here: the next slot on
        // this fragment may prepare (reading these writes) while this one
        // is still being decided. Only the client ack waits for the
        // decide.
        auto propose = [this, node, wf, id, seq, release_locks,
                        after = std::move(after), single_replica] {
          auto& shard = paxos_acceptors_[node];
          auto it = shard.find(std::make_pair(wf, seq));
          // An amnesia crash inside the fsync window wiped the slot (and
          // possibly re-filled it for a different txn): the writes were
          // never applied and the accepts never sent, so the seq is
          // genuinely free for reuse.
          if (it == shard.end() || it->second.prepared_txn != id) return;
          PaxosInstance& inst = it->second;
          runtimes_[node]->scheduler().CommitPrepared(*inst.value,
                                                      release_locks);
          inst.commit_owed = true;
          after();
          if (single_replica) {
            // Decided by the proposer's own accept.
            PaxosDecide(node, wf, seq);
            return;
          }
          paxos_votes_.Open(node, {wf, seq}, MajoritySizeFor(wf), 0);
          SchedulePaxosRecovery(node, wf, seq);
          // A crash-stopped home stays silent; revival re-arms the
          // recovery rounds, which propose the slot at a higher ballot.
          if (!topology_.IsNodeUp(node)) return;
          SendPaxosAccept(node, wf, inst, /*ballot=*/0);
          Trace(TraceDetail::kPaxosPropose, node, wf, id, seq);
        };
        NodeDurability* d = single_replica ? nullptr : durability(node);
        if (d != nullptr) {
          // Gray & Lamport's coordinator log write: the slot allocation
          // must be durable before any acceptor can see the slot, or an
          // amnesia-revived home could re-allocate the seq for a different
          // value — two values for one slot, and replica divergence. The
          // propose (and with it the lock release) therefore waits out the
          // group-commit fsync window.
          d->OnPaxosSlotAllocated(*quasi, epoch);
          engine_->AfterNode(node, config_.durability.wal_fsync_time,
                             std::move(propose));
        } else {
          // No durability ⇒ no amnesia crashes ⇒ slots are never reused.
          propose();
        }
      });
}

void Cluster::OnPaxosAccept(NodeId node, const PaxosAccept& msg) {
  const auto key = std::make_pair(msg.quasi->fragment, msg.quasi->seq);
  PaxosInstance* inst = PaxosPruned(node, key.first, key.second)
                           ? nullptr
                           : &paxos_acceptors_[node][key];
  if (inst == nullptr || inst->decided) {
    // Late proposer of an already-learned slot: teach it the outcome.
    auto out = std::make_shared<PaxosOutcome>();
    out->fragment = key.first;
    out->seq = key.second;
    network_->Send(node, msg.proposer, out);
    return;
  }
  if (msg.ballot < inst->max_ballot) return;  // stale proposer
  inst->max_ballot = msg.ballot;
  if (!inst->value) {
    inst->value = msg.quasi;
    inst->epoch = msg.epoch;
  }
  inst->strikes = 0;  // live proposer traffic: recovery may try again
  auto acc = std::make_shared<PaxosAccepted>();
  acc->fragment = key.first;
  acc->seq = key.second;
  acc->ballot = msg.ballot;
  acc->acceptor = node;
  network_->Send(node, msg.proposer, acc);
  SchedulePaxosRecovery(node, key.first, key.second);
}

void Cluster::OnPaxosAccepted(NodeId node, const PaxosAccepted& msg) {
  const auto key = std::make_pair(msg.fragment, msg.seq);
  const uint64_t* ballot = paxos_votes_.Find(node, key);
  if (ballot == nullptr || *ballot != msg.ballot) return;
  if (!paxos_votes_.Reply(node, key, msg.acceptor)) return;
  PaxosDecide(node, msg.fragment, msg.seq);
  auto out = std::make_shared<PaxosOutcome>();
  out->fragment = msg.fragment;
  out->seq = msg.seq;
  SendToReplicas(node, msg.fragment, out);
}

void Cluster::OnPaxosOutcome(NodeId node, const PaxosOutcome& msg) {
  const auto key = std::make_pair(msg.fragment, msg.seq);
  auto& shard = paxos_acceptors_[node];
  auto it = shard.find(key);
  if (it == shard.end()) {
    if (PaxosPruned(node, msg.fragment, msg.seq)) return;  // learned, gone
    // Outcome learned before (or without) the value: remember it; the
    // contents arrive through the ordinary catch-up paths (gap repair,
    // crash recovery), which carry the installed stream.
    shard[key].decided = true;
    PrunePaxosSlots(node, msg.fragment);
    return;
  }
  PaxosDecide(node, msg.fragment, msg.seq);
}

void Cluster::PaxosDecide(NodeId node, FragmentId fragment, SeqNum seq) {
  auto& shard = paxos_acceptors_[node];
  auto it = shard.find({fragment, seq});
  if (it == shard.end()) return;
  PaxosInstance& inst = it->second;
  if (inst.decided) return;
  inst.decided = true;
  if (inst.recovery_armed) {
    engine_->CancelNode(node, inst.recovery_tick);
    inst.recovery_armed = false;
  }
  paxos_votes_.Close(node, {fragment, seq});
  FRAGDB_CHECK(inst.value != nullptr);
  const TxnId txn = inst.value->origin_txn;
  CommitDecisionRecord rec;
  rec.node = node;
  rec.fragment = fragment;
  rec.seq = seq;
  rec.txn = txn;
  rec.commit = true;
  rec.at = engine_->Now();
  HistorySink(node).RecordDecision(rec);
  MarkCommittedAt(node, txn, seq);
  if (obs_) obs_->PaxosDecided(node)->Add();
  if (inst.commit_owed) {
    RecordPaxosHomeCommits(node, fragment);
  } else {
    runtimes_[node]->EnqueueQuasi(inst.value, inst.epoch);
  }
  if (tracing_active()) {
    Trace(TraceDetail::kPaxosDecide, node, fragment, txn, seq);
  }
  FinishPaxosClient(node, inst, Status::Ok());
  PrunePaxosSlots(node, fragment);
}

void Cluster::RecordPaxosHomeCommits(NodeId node, FragmentId fragment) {
  auto& shard = paxos_acceptors_[node];
  NodeRuntime& rt = *runtimes_[node];
  for (;;) {
    auto it = shard.find({fragment, rt.stream(fragment).applied_seq + 1});
    if (it == shard.end() || !it->second.decided || !it->second.commit_owed) {
      return;
    }
    it->second.commit_owed = false;
    rt.RecordLocalCommit(it->second.value);
  }
}

void Cluster::FinishPaxosClient(NodeId node, PaxosInstance& inst,
                                Status status) {
  if (!inst.done) return;
  if (status.ok()) engine_->CancelNode(node, inst.client_timeout);
  std::shared_ptr<TxnResult> result = std::move(inst.result);
  result->status = std::move(status);
  result->finished_at = engine_->Now();
  TxnCallback done = std::move(inst.done);
  inst.done = nullptr;
  done(*result);
}

void Cluster::PrunePaxosSlots(NodeId node, FragmentId fragment) {
  auto& shard = paxos_acceptors_[node];
  const SeqNum applied = runtimes_[node]->stream(fragment).applied_seq;
  auto wm = paxos_decided_through_[node].find(fragment);
  // The first prune of an incarnation starts at the lowest slot held.
  auto it = wm == paxos_decided_through_[node].end()
                ? shard.lower_bound({fragment, 0})
                : shard.find({fragment, wm->second.through + 1});
  if (it == shard.end() || it->first.first != fragment) return;
  const SeqNum first = it->first.second;
  SeqNum next = first;
  while (it != shard.end() && it->first == std::make_pair(fragment, next) &&
         it->second.decided && next <= applied && !it->second.commit_owed &&
         !it->second.done) {
    it = shard.erase(it);
    ++next;
  }
  if (next == first) return;
  if (wm == paxos_decided_through_[node].end()) {
    wm = paxos_decided_through_[node].emplace(fragment,
                                              PaxosWatermark{first - 1, 0})
             .first;
  }
  wm->second.through = next - 1;
}

bool Cluster::PaxosPruned(NodeId node, FragmentId fragment,
                          SeqNum seq) const {
  const auto& frags = paxos_decided_through_[node];
  auto it = frags.find(fragment);
  return it != frags.end() && it->second.Covers(seq);
}

void Cluster::SchedulePaxosRecovery(NodeId node, FragmentId fragment,
                                    SeqNum seq) {
  auto& shard = paxos_acceptors_[node];
  auto it = shard.find({fragment, seq});
  if (it == shard.end() || it->second.decided) return;
  if (it->second.recovery_armed) return;
  ArmPaxosRecovery(node, fragment, seq, it->second);
}

void Cluster::ArmPaxosRecovery(NodeId node, FragmentId fragment, SeqNum seq,
                               PaxosInstance& inst) {
  inst.recovery_armed = true;
  inst.recovery_tick = engine_->AfterNode(
      node, config_.paxos_recovery_timeout,
      [this, node, fragment, seq] { PaxosRecoveryTick(node, fragment, seq); });
}

void Cluster::SendPaxosAccept(NodeId node, FragmentId fragment,
                              const PaxosInstance& inst, uint64_t ballot) {
  auto accept = std::make_shared<PaxosAccept>();
  accept->ballot = ballot;
  accept->quasi = inst.value;
  accept->epoch = inst.epoch;
  accept->proposer = node;
  Status st = SendToReplicas(node, fragment, accept);
  FRAGDB_CHECK(st.ok());
}

void Cluster::PaxosRecoveryTick(NodeId node, FragmentId fragment,
                                SeqNum seq) {
  auto& shard = paxos_acceptors_[node];
  auto it = shard.find({fragment, seq});
  if (it == shard.end()) return;  // wiped by an amnesia crash
  PaxosInstance& inst = it->second;
  if (inst.decided) {
    inst.recovery_armed = false;
    return;
  }
  if (inst.strikes >= kPaxosMaxStrikes) {
    // Give up until connectivity changes (ReschedulePaxosRecovery re-arms
    // on heal / link-up / revival), so quiescence stays reachable.
    inst.recovery_armed = false;
    return;
  }
  inst.strikes += 1;
  if (!topology_.IsNodeUp(node) || amnesia_down_[node]) {
    // Ticking while dead would spin the event queue forever; revival
    // re-arms through ReschedulePaxosRecovery.
    inst.recovery_armed = false;
    return;
  }
  if (!inst.value) {
    ArmPaxosRecovery(node, fragment, seq, inst);
    return;
  }
  // A proposal that cannot reach a majority is futile, and worse: two
  // acceptors stranded in the same minority would keep resetting each
  // other's strike counters with their doomed proposals, ticking forever.
  // Stand down until connectivity improves (every heal / link-up /
  // repartition / revival path re-arms via ReschedulePaxosRecovery).
  int reachable = 0;
  for (NodeId m : replicas_[fragment]) {
    if (m == node || topology_.Reachable(node, m)) ++reachable;
  }
  if (reachable < MajoritySizeFor(fragment)) {
    inst.recovery_armed = false;
    return;
  }
  inst.round += 1;
  const uint64_t ballot =
      static_cast<uint64_t>(inst.round) * topology_.node_count() + node + 1;
  if (inst.max_ballot < ballot) inst.max_ballot = ballot;
  if (MajoritySizeFor(fragment) <= 1) {
    PaxosDecide(node, fragment, seq);
    return;
  }
  paxos_votes_.Open(node, {fragment, seq}, MajoritySizeFor(fragment), ballot);
  SendPaxosAccept(node, fragment, inst, ballot);
  if (obs_) obs_->PaxosRecoveryRounds(node)->Add();
  if (tracing_active()) {
    Trace("paxos-recover", node, fragment, inst.value->origin_txn, seq,
          "ballot=" + std::to_string(ballot));
  }
  ArmPaxosRecovery(node, fragment, seq, inst);
}

void Cluster::ReschedulePaxosRecovery() {
  if (!started_ || config_.move_protocol != MoveProtocol::kPaxosCommit) {
    return;
  }
  for (NodeId n = 0; n < static_cast<NodeId>(paxos_acceptors_.size()); ++n) {
    if (!topology_.IsNodeUp(n) || amnesia_down_[n]) continue;
    for (auto& [key, inst] : paxos_acceptors_[n]) {
      if (inst.decided || !inst.value) continue;
      inst.strikes = 0;
      if (!inst.recovery_armed) {
        ArmPaxosRecovery(n, key.first, key.second, inst);
      }
    }
  }
}

CheckReport Cluster::CheckCommitNonBlocking() const {
  for (NodeId n = 0; n < static_cast<NodeId>(runtimes_.size()); ++n) {
    for (FragmentId f = 0; f < catalog_.fragment_count(); ++f) {
      if (!catalog_.ReplicatedAt(f, n)) continue;
      const FragmentStream& s = runtimes_[n]->stream(f);
      for (const QuasiRef& quasi : s.prepared) {
        if (quasi->seq <= s.applied_seq) continue;
        return CheckReport::Fail(
            "N" + std::to_string(n) + " holds T" +
                std::to_string(quasi->origin_txn) + " (F" +
                std::to_string(f) + " seq " + std::to_string(quasi->seq) +
                ") prepared but undecided — a blocked commit",
            {quasi->origin_txn});
      }
    }
  }
  for (NodeId n = 0; n < static_cast<NodeId>(paxos_acceptors_.size()); ++n) {
    for (const auto& [key, inst] : paxos_acceptors_[n]) {
      if (inst.decided || !inst.value) continue;
      return CheckReport::Fail(
          "N" + std::to_string(n) + " holds an undecided Paxos slot (F" +
              std::to_string(key.first) + " seq " +
              std::to_string(key.second) + ") for T" +
              std::to_string(inst.value->origin_txn),
          {inst.value->origin_txn});
    }
  }
  return CheckReport::Pass();
}

size_t Cluster::PaxosSlotsHeld(NodeId node) const {
  return paxos_acceptors_[node].size();
}

SeqNum Cluster::PaxosDecidedThrough(NodeId node, FragmentId fragment) const {
  const auto& frags = paxos_decided_through_[node];
  auto it = frags.find(fragment);
  return it == frags.end() ? 0 : it->second.through;
}

int Cluster::ReadQuorumFor(FragmentId fragment) const {
  return config_.read_quorum > 0 ? config_.read_quorum
                                 : MajoritySizeFor(fragment);
}

int Cluster::WriteQuorumFor(FragmentId fragment) const {
  return config_.write_quorum > 0 ? config_.write_quorum
                                  : MajoritySizeFor(fragment);
}

int Cluster::MajoritySizeFor(FragmentId fragment) const {
  return static_cast<int>(replicas_[fragment].size()) / 2 + 1;
}

Status Cluster::SendToReplicas(NodeId from, FragmentId fragment,
                               std::shared_ptr<const MessagePayload> payload) {
  for (NodeId to : replicas_[fragment]) {
    if (to == from) continue;
    FRAGDB_RETURN_IF_ERROR(network_->Send(from, to, payload));
  }
  return Status::Ok();
}

CheckReport Cluster::CheckReplicaSetConsistency() const {
  for (FragmentId f = 0; f < catalog_.fragment_count(); ++f) {
    const std::vector<NodeId>& members = replicas_[f];
    if (members.size() < 2) continue;
    const ObjectStore& first = runtimes_[members[0]]->store();
    for (size_t i = 1; i < members.size(); ++i) {
      const ObjectStore& other = runtimes_[members[i]]->store();
      for (ObjectId o : catalog_.ObjectsIn(f)) {
        if (first.Read(o) != other.Read(o)) {
          return CheckReport::Fail(
              "fragment " + catalog_.FragmentName(f) + " diverges between "
              "replicas " + std::to_string(members[0]) + " and " +
              std::to_string(members[i]) + " on " + catalog_.ObjectName(o));
        }
      }
    }
  }
  return CheckReport::Pass();
}

// --------------------------------------------------------------------------
// §4.4.3 repackaging & corrective actions
// --------------------------------------------------------------------------

void Cluster::CommitRepackaged(NodeId home, FragmentId fragment,
                               const QuasiRef& missing_ref,
                               std::vector<WriteOp> kept) {
  const QuasiTxn& missing = *missing_ref;
  Result<AgentId> agent = catalog_.AgentOf(fragment);
  FRAGDB_CHECK(agent.ok());

  auto commit_writes = [this, home, fragment, agent](
                           std::vector<WriteOp> writes, std::string label,
                           std::function<void()> then) {
    TxnId id = NewTxnId();
    TxnRecord rec;
    rec.id = id;
    rec.agent = *agent;
    rec.type_fragment = fragment;
    rec.home = home;
    rec.read_only = false;
    rec.label = label;
    HistorySink(home).RegisterTxn(rec);
    TxnSpec spec;
    spec.agent = *agent;
    spec.write_fragment = fragment;
    spec.body = [writes](const std::vector<Value>&)
        -> Result<std::vector<WriteOp>> { return writes; };
    spec.label = std::move(label);
    // Committed like a local update, but with no commit or broadcast
    // record: the "repackage" record below stands for them.
    PrepareUpdate(
        id, home, std::move(spec), /*x_preacquired=*/false,
        [then = std::move(then)](const TxnResult&) {
          if (then) then();
        },
        [] {},
        [this, home](TxnResult result, QuasiRef quasi, TxnCallback done,
                     std::function<void()>) {
          runtimes_[home]->scheduler().CommitPrepared(*quasi,
                                                      /*release_locks=*/true);
          BroadcastLocalCommit(home, std::move(quasi));
          done(result);
        });
  };

  auto run_corrective = [this, home, fragment, missing_ref, kept,
                         commit_writes] {
    const CorrectiveAction* action = corrective_action(fragment);
    if (action == nullptr) return;
    const QuasiTxn& missing = *missing_ref;
    std::vector<WriteOp> extra =
        (*action)(missing, kept, runtimes_[home]->store());
    if (extra.empty()) return;
    commit_writes(std::move(extra),
                  "corrective(T" + std::to_string(missing.origin_txn) + ")",
                  nullptr);
  };

  Trace("repackage", home, fragment, missing.origin_txn, missing.seq,
        "T" + std::to_string(missing.origin_txn) + " at N" +
            std::to_string(home) + ", kept " + std::to_string(kept.size()) +
            "/" + std::to_string(missing.writes.size()) + " writes");
  if (kept.empty()) {
    run_corrective();
    return;
  }
  commit_writes(kept,
                "repackage(T" + std::to_string(missing.origin_txn) + ")",
                run_corrective);
}

void Cluster::Trace(const char* kind, std::string detail) {
  Trace(kind, kInvalidNode, kInvalidFragment, kInvalidTxn, 0,
        std::move(detail));
}

void Cluster::Trace(const char* kind, NodeId node, FragmentId fragment,
                    TxnId txn, SeqNum seq, std::string detail) {
  if (!tracer_ && !flight_) return;
  RecordTrace(kind, node, fragment, txn, seq, detail, TraceDetail::kText);
}

void Cluster::Trace(TraceDetail detail, NodeId node, FragmentId fragment,
                    TxnId txn, SeqNum seq, std::string_view label) {
  if (!tracer_ && !flight_) return;
  FRAGDB_CHECK(detail != TraceDetail::kText);  // kText events carry text
  RecordTrace(TraceDetailKind(detail), node, fragment, txn, seq, label,
              detail);
}

void Cluster::RecordTrace(const char* kind, NodeId node, FragmentId fragment,
                          TxnId txn, SeqNum seq, std::string_view text,
                          TraceDetail detail) {
  const TraceStamp stamp{engine_->Now(), kind, node, fragment, txn, seq};
  const NodeId acting = engine_->CurrentNode();
  if (flight_) flight_->Record(stamp, text, acting, detail);
  if (tracer_) tracer_->Record(stamp, text, acting, detail);
}

MetricsSnapshot Cluster::SnapshotMetrics() const {
  if (!obs_) return MetricsSnapshot{};
  // Durability gauges are polled lazily at snapshot time: the pipelines
  // are replaced wholesale on amnesia crashes, so the instruments cannot
  // pre-resolve stable pointers into them.
  if (obs_->has_durability()) {
    for (NodeId n = 0; n < static_cast<NodeId>(durability_.size()); ++n) {
      const NodeDurability::Stats& st = durability_[n]->stats();
      obs_->WalRecords(n)->Set(static_cast<int64_t>(st.wal_records));
      obs_->WalFsyncs(n)->Set(
          static_cast<int64_t>(durability_[n]->wal().syncs()));
      obs_->Checkpoints(n)->Set(
          static_cast<int64_t>(st.checkpoints_committed));
      obs_->WalBytesTruncated(n)->Set(
          static_cast<int64_t>(st.wal_bytes_truncated));
    }
  }
  MetricsSnapshot merged;
  for (const MetricsRegistry& shard : metrics_) merged.Merge(shard.Snapshot());
  return merged;
}

const CorrectiveAction* Cluster::corrective_action(FragmentId f) const {
  auto it = corrective_.find(f);
  return it == corrective_.end() ? nullptr : &it->second;
}

// --------------------------------------------------------------------------
// Environment control & inspection
// --------------------------------------------------------------------------

Status Cluster::Partition(const std::vector<std::vector<NodeId>>& groups) {
  std::string detail;
  for (const auto& group : groups) {
    detail += "{";
    for (size_t i = 0; i < group.size(); ++i) {
      if (i > 0) detail += ",";
      detail += std::to_string(group[i]);
    }
    detail += "}";
  }
  Trace("partition", detail);
  if (obs_) obs_->Partitions()->Add();
  Status st = topology_.Partition(groups);
  // A repartition can reconnect previously separated nodes.
  if (st.ok()) ReschedulePaxosRecovery();
  return st;
}

void Cluster::HealAll() {
  Trace("heal", "");
  if (obs_) obs_->Heals()->Add();
  topology_.HealAll();
  ReschedulePaxosRecovery();
}

Status Cluster::SetLinkUp(NodeId a, NodeId b, bool up) {
  Status st = topology_.SetLinkUp(a, b, up);
  if (st.ok() && up) ReschedulePaxosRecovery();
  return st;
}

Status Cluster::SetNodeUp(NodeId node, bool up) {
  if (started_ && node >= 0 && node < static_cast<NodeId>(runtimes_.size()) &&
      up && amnesia_down_[node]) {
    // The node's volatile state is gone; it cannot simply reappear.
    return ReviveNode(node, nullptr);
  }
  Trace(up ? "node-up" : "node-down", node, kInvalidFragment, kInvalidTxn, 0,
        "N" + std::to_string(node));
  if (obs_) (up ? obs_->NodeUps() : obs_->NodeDowns())->Add();
  Status st = topology_.SetNodeUp(node, up);
  if (st.ok() && availability_) {
    availability_->SetNodeDown(node, engine_->Now(), !up);
  }
  if (st.ok() && up) ReschedulePaxosRecovery();
  return st;
}

Status Cluster::CrashNode(NodeId node, CrashMode mode) {
  FRAGDB_CHECK(started_);
  if (node < 0 || node >= static_cast<NodeId>(runtimes_.size())) {
    return Status::InvalidArgument("no such node");
  }
  if (mode == CrashMode::kCrashStop) {
    return SetNodeUp(node, false);
  }
  if (!config_.durability.enabled) {
    return Status::FailedPrecondition(
        "amnesia crashes require ClusterConfig::durability.enabled");
  }
  Trace("node-down", node, kInvalidFragment, kInvalidTxn, 0,
        "N" + std::to_string(node) + " (amnesia)");
  if (obs_) {
    obs_->NodeDowns()->Add();
    obs_->AmnesiaCrashes()->Add();
  }
  FRAGDB_RETURN_IF_ERROR(topology_.SetNodeUp(node, false));
  if (availability_) availability_->SetNodeDown(node, engine_->Now(), true);
  recovery_->Abort(node);  // a crash during recovery drops the session
  // Every wait opened at this node dies with its volatile state. Their
  // timeouts would touch wiped state (the §4.4.1 next_seq rollback), so
  // they must not fire; the submitters' callbacks are simply lost, like
  // any client talking to a crashed server. A late §4.1 grant then matches
  // no wait and is released back to its home. The Paxos slot values are
  // safe to forget too: a slot carries one unique value, so a wiped
  // acceptor can never enable a conflicting decision — at worst a
  // recovery round has to find its majority among the survivors. Their
  // timers are cancelled too: revival refills the map (the WAL's in-doubt
  // slots, a peer's accept), and a surviving recovery tick would then
  // drive the revived slot beside the chain revival arms. The pruned-slot
  // watermark goes too: the revived node treats every slot as unseen, as
  // it did before pruning existed.
  majority_acks_.Wipe(node);
  quorum_writes_.Wipe(node);
  quorum_reads_.Wipe(node);
  for (auto& [key, inst] : paxos_acceptors_[node]) {
    engine_->CancelNode(node, inst.client_timeout);
    if (inst.recovery_armed) engine_->CancelNode(node, inst.recovery_tick);
  }
  paxos_acceptors_[node].clear();
  paxos_decided_through_[node].clear();
  paxos_votes_.Wipe(node);
  paxos_indoubt_[node].clear();  // re-derived from the WAL at revival
  remote_locks_.Wipe(node);
  runtimes_[node]->WipeVolatile();
  FailWipedCatchUps(node);
  // A fresh pipeline: destroying the old one expires the weak references
  // held by its staged-WAL sync and in-flight checkpoint events, which is
  // exactly how the staged suffix gets lost.
  ResetDurability(node);
  amnesia_down_[node] = true;
  return Status::Ok();
}

Status Cluster::ReviveNode(NodeId node, RecoveryCallback done) {
  FRAGDB_CHECK(started_);
  if (node < 0 || node >= static_cast<NodeId>(runtimes_.size())) {
    return Status::InvalidArgument("no such node");
  }
  if (topology_.IsNodeUp(node)) {
    return Status::FailedPrecondition("node is not down");
  }
  if (!amnesia_down_[node]) {
    // Crash-stop revival: state survived, nothing to recover.
    Trace("node-up", node, kInvalidFragment, kInvalidTxn, 0,
          "N" + std::to_string(node));
    if (obs_) obs_->NodeUps()->Add();
    FRAGDB_RETURN_IF_ERROR(topology_.SetNodeUp(node, true));
    if (availability_) availability_->SetNodeDown(node, engine_->Now(), false);
    ReschedulePaxosRecovery();
    if (done) done(RecoveryStats{});
    return Status::Ok();
  }
  if (recovery_->InProgress(node)) {
    return Status::FailedPrecondition("recovery already in progress");
  }
  Trace("recover-start", node, kInvalidFragment, kInvalidTxn, 0,
        "N" + std::to_string(node));
  if (availability_) {
    // Catch-up (set when local replay rejoins the network) ends when the
    // recovery session reports fully caught up.
    done = [this, node, inner = std::move(done)](const RecoveryStats& s) {
      availability_->SetCatchingUp(node, engine_->Now(), false);
      if (inner) inner(s);
    };
  }
  if (obs_) {
    done = [this, node, inner = std::move(done)](const RecoveryStats& s) {
      obs_->Recoveries()->Add();
      if (Histogram* h = obs_->RecoveryDuration(node)) h->Observe(s.Duration());
      if (Counter* c = obs_->WalReplayed(node)) c->Add(s.wal_records_replayed);
      if (Counter* c = obs_->PeerQuasisFetched(node)) {
        c->Add(s.peer_quasis_fetched);
      }
      if (inner) inner(s);
    };
  }
  recovery_->StartRecovery(node, std::move(done));
  return Status::Ok();
}

void Cluster::OnLocalReplayDone(NodeId node) {
  amnesia_down_[node] = false;
  Trace("node-up", node, kInvalidFragment, kInvalidTxn, 0,
        "N" + std::to_string(node) + " (local replay done)");
  if (obs_) obs_->NodeUps()->Add();
  Status st = topology_.SetNodeUp(node, true);
  FRAGDB_CHECK(st.ok());
  if (availability_) {
    // Serving again, but from replayed state: degraded-stale until the
    // peer catch-up phase completes (the ReviveNode done wrapper).
    SimTime now = engine_->Now();
    availability_->SetNodeDown(node, now, false);
    availability_->SetCatchingUp(node, now, true);
  }
  // In-doubt slots the WAL itself later applied (their kQuasi record came
  // after the kPaxosSlot one) were decided before the crash: mark them so
  // recovery does not re-propose an already-installed value.
  auto& frags = paxos_indoubt_[node];
  for (auto it = frags.begin(); it != frags.end();) {
    const SeqNum applied = runtimes_[node]->stream(it->first).applied_seq;
    std::set<SeqNum>& slots = it->second;
    for (auto sit = slots.begin(); sit != slots.end();) {
      if (*sit > applied) {
        ++sit;
        continue;
      }
      auto ait = paxos_acceptors_[node].find({it->first, *sit});
      if (ait != paxos_acceptors_[node].end()) ait->second.decided = true;
      sit = slots.erase(sit);
    }
    it = slots.empty() ? frags.erase(it) : std::next(it);
  }
  ReschedulePaxosRecovery();
}

void Cluster::NotePaxosInDoubt(NodeId node, QuasiRef quasi, Epoch epoch) {
  paxos_indoubt_[node][quasi->fragment].insert(quasi->seq);
  PaxosInstance& inst = paxos_acceptors_[node][{quasi->fragment, quasi->seq}];
  if (!inst.value) {
    inst.value = std::move(quasi);
    inst.epoch = epoch;
  }
}

bool Cluster::PaxosFragmentInDoubt(NodeId node, FragmentId fragment) {
  auto& frags = paxos_indoubt_[node];
  auto it = frags.find(fragment);
  if (it == frags.end()) return false;
  SeqNum applied = runtimes_[node]->stream(fragment).applied_seq;
  std::set<SeqNum>& slots = it->second;
  while (!slots.empty() && *slots.begin() <= applied) {
    slots.erase(slots.begin());
  }
  if (slots.empty()) {
    frags.erase(it);
    return false;
  }
  return true;
}

void Cluster::RefreshHomeReachability() {
  if (!availability_) return;
  SimTime now = engine_->Now();
  for (NodeId n = 0; n < topology_.node_count(); ++n) {
    for (FragmentId f = 0; f < catalog_.fragment_count(); ++f) {
      availability_->SetHomeReachable(
          n, f, now, topology_.Reachable(n, availability_->HomeOf(f)));
    }
  }
}

CheckpointImage Cluster::CaptureCheckpoint(NodeId node,
                                           std::vector<LogMark>* marks) {
  CheckpointImage image;
  image.taken_at = engine_->Now();
  image.versions = runtimes_[node]->store().AllVersions();
  std::vector<LogMark> ends;
  for (FragmentId f = 0; f < catalog_.fragment_count(); ++f) {
    if (!catalog_.ReplicatedAt(f, node)) continue;
    const FragmentStream& s = runtimes_[node]->stream(f);
    StreamCheckpoint sc;
    sc.fragment = f;
    sc.epoch = s.epoch;
    sc.epoch_base = s.epoch_base;
    sc.applied_seq = s.applied_seq;
    sc.next_seq = s.next_seq;
    SeqNum since = 0;
    if (marks != nullptr) {
      for (const LogMark& m : *marks) {
        if (m.fragment == f) since = m.high_water;
      }
    }
    sc.log.assign(s.log.UpperBound(since), s.log.end());
    ends.push_back({f, s.log.empty() ? 0 : (*(s.log.end() - 1))->seq});
    image.streams.push_back(std::move(sc));
  }
  if (marks != nullptr) *marks = std::move(ends);
  return image;
}

StableStorage* Cluster::stable_storage(NodeId node) {
  if (!config_.durability.enabled || node < 0 ||
      node >= static_cast<NodeId>(stable_.size())) {
    return nullptr;
  }
  return stable_[node].get();
}

void Cluster::ResetDurability(NodeId node) {
  NodeDurability::Observer observer;
  if (checkpoint_observer_) {
    observer = [this, node](NodeDurability::CheckpointStep step) {
      checkpoint_observer_(node, step);
    };
  }
  durability_[node] = std::make_unique<NodeDurability>(
      node, engine_.get(), stable_[node].get(), &config_.durability,
      [this, node](std::vector<LogMark>* marks) {
        return CaptureCheckpoint(node, marks);
      },
      std::move(observer));
  runtimes_[node]->SetDurability(durability_[node].get());
}

NodeDurability* Cluster::durability(NodeId node) {
  if (!config_.durability.enabled || node < 0 ||
      node >= static_cast<NodeId>(durability_.size())) {
    return nullptr;
  }
  return durability_[node].get();
}

const RecoveryStats* Cluster::LastRecovery(NodeId node) const {
  return recovery_ ? recovery_->LastStats(node) : nullptr;
}

bool Cluster::IsAmnesiaDown(NodeId node) const {
  return node >= 0 && node < static_cast<NodeId>(amnesia_down_.size()) &&
         amnesia_down_[node];
}

void Cluster::StartGapRepairSweep() {
  for (NodeId node = 0; node < node_count(); ++node) {
    if (!topology_.IsNodeUp(node) || IsAmnesiaDown(node)) continue;
    runtimes_[node]->GapRepairSweep();
  }
}

void Cluster::RunFor(SimTime duration) {
  engine_->RunUntil(engine_->Now() + duration);
  CollapseHistoryShards();
}
void Cluster::RunUntil(SimTime deadline) {
  engine_->RunUntil(deadline);
  CollapseHistoryShards();
}
void Cluster::RunToQuiescence() {
  engine_->RunToQuiescence();
  CollapseHistoryShards();
}
SimTime Cluster::Now() const { return engine_->Now(); }

History& Cluster::HistorySink(NodeId node) {
  if (node >= 0 && node < static_cast<NodeId>(history_shards_.size())) {
    return history_shards_[node];
  }
  return history_;
}

void Cluster::MarkCommittedAt(NodeId node, TxnId id, SeqNum frag_seq) {
  HistorySink(node).MarkCommittedPartial(id, frag_seq);
}

TxnId Cluster::NewTxnId() {
  const NodeId node = engine_->CurrentNode();
  const size_t stripe = node == kInvalidNode ? txn_stripe_next_.size() - 1
                                             : static_cast<size_t>(node);
  const TxnId stripes = static_cast<TxnId>(txn_stripe_next_.size());
  return 1 + txn_stripe_next_[stripe]++ * stripes +
         static_cast<TxnId>(stripe);
}

void Cluster::CollapseHistoryShards() {
  // A commit may be recorded in another shard than its registration, so
  // the registered-before-committed check runs once every shard is in.
  const TxnId unregistered_commit =
      history_.AbsorbShards(history_shards_, task_runner());
  FRAGDB_CHECK(unregistered_commit == kInvalidTxn);
}

TaskRunner Cluster::task_runner() const {
  const int threads = engine_->task_threads();
  if (threads == 1) return {};
  return {threads, [engine = engine_.get()](
                       size_t n, const std::function<void(size_t)>& fn) {
            engine->ParallelFor(n, fn);
          }};
}

int Cluster::node_count() const { return topology_.node_count(); }

Value Cluster::ReadAt(NodeId node, ObjectId object) const {
  FRAGDB_CHECK(node >= 0 && node < static_cast<NodeId>(runtimes_.size()));
  return runtimes_[node]->store().Read(object);
}

NetworkStats Cluster::net_stats() const { return network_->stats(); }

std::vector<const ObjectStore*> Cluster::Replicas() const {
  std::vector<const ObjectStore*> out;
  out.reserve(runtimes_.size());
  for (const auto& rt : runtimes_) out.push_back(&rt->store());
  return out;
}

Cluster::Promise Cluster::promise() const {
  if (config_.move_protocol == MoveProtocol::kOmitPrep) {
    return Promise::kMutualConsistency;
  }
  bool all_sr = config_.control == ControlOption::kReadLocks ||
                config_.control == ControlOption::kAcyclicReads;
  bool any_quorum = config_.control == ControlOption::kQuorum;
  for (FragmentId f = 0; f < catalog_.fragment_count(); ++f) {
    ControlOption c = ControlFor(f);
    if (c == ControlOption::kFragmentwise || c == ControlOption::kQuorum) {
      all_sr = false;
    }
    if (c == ControlOption::kQuorum) any_quorum = true;
  }
  if (all_sr) return Promise::kGlobalSerializability;
  return any_quorum ? Promise::kFragmentwiseAndQuorumFreshness
                    : Promise::kFragmentwise;
}

CheckReport Cluster::CheckConfiguredProperty() const {
  switch (promise()) {
    case Promise::kMutualConsistency: {
      CheckReport r = CheckReport::Pass();
      r.detail =
          "omit-prep moves promise only mutual consistency; compare replicas "
          "at quiescence with CheckMutualConsistency";
      return r;
    }
    case Promise::kGlobalSerializability:
      return CheckGlobalSerializability(history_);
    case Promise::kFragmentwise:
      return CheckFragmentwiseSerializability(history_,
                                              catalog_.fragment_count());
    case Promise::kFragmentwiseAndQuorumFreshness: {
      CheckReport r =
          CheckFragmentwiseSerializability(history_, catalog_.fragment_count());
      return r.ok ? CheckQuorumFreshness(history_) : r;
    }
  }
  FRAGDB_CHECK(false);
  return CheckReport::Pass();
}

}  // namespace fragdb

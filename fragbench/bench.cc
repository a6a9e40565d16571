#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "core/audit.h"
#include "core/cluster.h"
#include "obs/availability.h"
#include "scenario/compile.h"
#include "verify/checkers.h"

#ifndef FRAGBENCH_BUILD_TYPE
#define FRAGBENCH_BUILD_TYPE "unknown"
#endif

namespace fragbench {
namespace {

using fragdb::AgentId;
using fragdb::ApplyOptions;
using fragdb::ApplyStats;
using fragdb::AuditReport;
using fragdb::AvailabilityReport;
using fragdb::AvailabilityTracker;
using fragdb::CheckReport;
using fragdb::Cluster;
using fragdb::ClusterConfig;
using fragdb::EngineKind;
using fragdb::FifoOrderChecker;
using fragdb::FragmentId;
using fragdb::LoadProfile;
using fragdb::LockManager;
using fragdb::LockMode;
using fragdb::Message;
using fragdb::MessagePayload;
using fragdb::NodeId;
using fragdb::ObjectId;
using fragdb::RecoveryStats;
using fragdb::ResourceId;
using fragdb::Result;
using fragdb::Rng;
using fragdb::Scenario;
using fragdb::SimTime;
using fragdb::Status;
using fragdb::Topology;
using fragdb::TxnId;
using fragdb::TxnResult;
using fragdb::TxnSpec;
using fragdb::Value;
using fragdb::WriteOp;

using Clock = std::chrono::steady_clock;

constexpr int kObjectsPerFragment = 3;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (p in (0, 1]); reorders `v`. 0 when empty.
double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  auto nth = v.begin() + static_cast<ptrdiff_t>(rank);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

double Ms(double us) { return us / 1000.0; }

/// Message types whose sends a traced run counts one by one; anything else
/// lands in net.sent.other_types.
constexpr const char* kCountedTypes[] = {
    "quasi",       "paxos-accept",      "paxos-accepted",     "paxos-outcome",
    "quorum-read", "quorum-read-reply", "quorum-applied-ack", "recovery-query",
    "recovery-reply"};

enum class Outcome : uint8_t { kPending, kCommitted, kDeclined, kUnavailable,
                               kTimedOut, kOther };

Outcome Classify(const Status& s) {
  if (s.ok()) return Outcome::kCommitted;
  if (s.IsFailedPrecondition()) return Outcome::kDeclined;
  if (s.IsUnavailable()) return Outcome::kUnavailable;
  if (s.IsTimedOut()) return Outcome::kTimedOut;
  return Outcome::kOther;
}

/// One submitted request, from the instant it was due to its callback.
struct TxnRec {
  double due = 0.0;  // simulated microseconds, unrounded
  bool read_only = false;
  int completions = 0;
  Outcome outcome = Outcome::kPending;
  TxnId id = fragdb::kInvalidTxn;
  SimTime done_at = 0;
  size_t writes = 0;
};

/// Per-type send counts of one shard (one acting node, or globals).
struct SendCounts {
  std::vector<std::pair<const char*, uint64_t>> by_type;

  void Add(const char* type) {
    for (auto& [name, count] : by_type) {
      if (name == type) {
        ++count;
        return;
      }
    }
    by_type.emplace_back(type, 1);
  }
};

class Run {
 public:
  Run(const Workload& workload, const RunOptions& options)
      : w_(workload),
        opt_(options),
        workers_(EffectiveWorkers(workload, options)) {
    Result<Scenario> parsed = fragdb::ParseScenario(w_.scenario_text);
    FRAGDB_CHECK(parsed.ok());
    scenario_ = *parsed;
    profile_ = LoadProfile::FromScenario(scenario_);
  }

  /// Cluster construction, schema and Start.
  Status Build();
  RunResult Execute();

 private:
  void InstallObservers();
  void ScheduleArrival(int agent);
  void SubmitOne(int agent, double due);
  void Fail(RunResult* r, const std::string& what) {
    if (r->correct) r->failure = what;
    r->correct = false;
  }
  void Collect(const AuditReport& audit, const AvailabilityReport& avail,
               RunResult* r);

  const Workload& w_;
  RunOptions opt_;
  int workers_;
  Scenario scenario_;
  LoadProfile profile_;
  std::vector<FragmentId> fragments_;
  std::vector<AgentId> agents_;
  std::vector<std::vector<ObjectId>> objects_;
  // Per agent: its own RNG stream, next due instant, and requests. Agent i's
  // arrivals run in node i's events, so each entry has a single writer.
  std::vector<Rng> rngs_;
  std::vector<double> next_due_;
  std::vector<double> max_late_;
  std::vector<std::deque<TxnRec>> recs_;
  // Sharded by destination node (a FIFO channel lives in one shard).
  std::vector<FifoOrderChecker> fifo_;
  // Traced runs: lock waits/holds per node, sends per acting node (+1 for
  // globals at index 0).
  std::vector<std::vector<double>> lock_wait_;
  std::vector<std::vector<double>> lock_hold_;
  std::vector<SendCounts> sends_;
  // Written from global events only.
  std::vector<RecoveryStats> recoveries_;
  ApplyStats fault_stats_;
  // Declared last: destroyed first, while the state its callbacks touch
  // is still alive.
  std::unique_ptr<Cluster> cluster_;
};

Status Run::Build() {
  ClusterConfig config;
  config.control = w_.control;
  config.move_protocol = w_.protocol;
  // Observability as the torture grid runs it: timelines, availability
  // and the flight recorder on; metrics and tracing off.
  config.observability.timelines = true;
  config.observability.flight_recorder = true;
  config.engine.kind = EngineKind::kParallel;
  config.engine.threads = workers_;
  config.durability.enabled = w_.durability;
  config.durability.checkpoint_interval = w_.checkpoint_interval;
  config.gap_repair_interval = scenario_.HasLoss() ? fragdb::Millis(50) : 0;
  cluster_ = std::make_unique<Cluster>(
      config, Topology::FullMesh(w_.nodes, fragdb::Millis(5)));
  Cluster& c = *cluster_;
  for (int i = 0; i < w_.agents; ++i) {
    FragmentId frag = c.DefineFragment("F" + std::to_string(i));
    fragments_.push_back(frag);
    AgentId agent = c.DefineUserAgent("agent" + std::to_string(i));
    agents_.push_back(agent);
    FRAGDB_RETURN_IF_ERROR(c.AssignToken(frag, agent));
    FRAGDB_RETURN_IF_ERROR(c.SetAgentHome(agent, i));
    objects_.emplace_back();
    for (int k = 0; k < kObjectsPerFragment; ++k) {
      Result<ObjectId> obj = c.DefineObject(
          frag, "o" + std::to_string(i) + "_" + std::to_string(k), 0);
      if (!obj.ok()) return obj.status();
      objects_[i].push_back(*obj);
    }
  }
  for (int i = 0; i < w_.agents; ++i) {
    for (int j = 0; j < w_.agents; ++j) {
      if (i == j) continue;
      FRAGDB_RETURN_IF_ERROR(c.DeclareRead(fragments_[i], fragments_[j]));
    }
  }
  return c.Start();
}

void Run::InstallObservers() {
  Cluster& c = *cluster_;
  lock_wait_.resize(w_.nodes);
  lock_hold_.resize(w_.nodes);
  sends_.resize(w_.nodes + 1);
  for (NodeId n = 0; n < w_.nodes; ++n) {
    LockManager::Observer obs;
    obs.now = [&c] { return c.engine()->Now(); };
    obs.on_grant = [this, n](ResourceId, LockMode, SimTime waited) {
      lock_wait_[n].push_back(static_cast<double>(waited));
    };
    obs.on_release = [this, n](ResourceId, SimTime held) {
      lock_hold_[n].push_back(static_cast<double>(held));
    };
    c.runtime(n).locks().SetObserver(std::move(obs));
  }
  c.network().SetSendObserver([this, &c](const MessagePayload& p, size_t) {
    sends_[c.engine()->CurrentNode() + 1].Add(p.TypeName());
  });
}

void Run::ScheduleArrival(int agent) {
  // Open loop: the next request is due an exponential gap after the
  // previous one, at the rate the load profile sets at that instant,
  // whatever happened to the requests already sent.
  double& due = next_due_[agent];
  double rate = profile_.RateAt(static_cast<SimTime>(due));
  const double mean =
      static_cast<double>(w_.update_interarrival) * (1.0 - w_.read_fraction);
  due += rngs_[agent].NextExponential(mean) / rate;
  if (due >= static_cast<double>(w_.duration)) return;
  // The clock has 1us resolution, so a request fires at most 1us after
  // it was due; latency is still measured from `due` itself.
  SimTime at = std::max<SimTime>(1, static_cast<SimTime>(std::ceil(due)));
  max_late_[agent] = std::max(max_late_[agent], static_cast<double>(at) - due);
  cluster_->engine()->AtNode(agent, at, [this, agent, d = due] {
    SubmitOne(agent, d);
    ScheduleArrival(agent);
  });
}

void Run::SubmitOne(int agent, double due) {
  Rng& rng = rngs_[agent];
  const bool read_only =
      w_.read_fraction > 0 && rng.NextBool(w_.read_fraction);
  const double theta = profile_.zipf_theta();
  TxnSpec spec;
  spec.agent = agents_[agent];
  const std::vector<ObjectId>& own = objects_[agent];
  ObjectId target = own[rng.NextZipf(own.size(), theta)];
  spec.read_set.push_back(target);
  // One object of one other agent's fragment.
  int other = static_cast<int>(rng.NextBelow(w_.agents - 1));
  if (other >= agent) ++other;
  const std::vector<ObjectId>& theirs = objects_[other];
  spec.read_set.push_back(theirs[rng.NextZipf(theirs.size(), theta)]);

  recs_[agent].emplace_back();
  TxnRec* rec = &recs_[agent].back();  // deque: stable under push_back
  rec->due = due;
  rec->read_only = read_only;
  auto done = [rec](const TxnResult& r) {
    ++rec->completions;
    rec->outcome = Classify(r.status);
    rec->id = r.id;
    rec->done_at = r.finished_at;
    rec->writes = r.writes.size();
  };
  if (read_only) {
    cluster_->SubmitReadOnlyAt(agent, spec, std::move(done));
    return;
  }
  spec.write_fragment = fragments_[agent];
  spec.body = [target](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    Value sum = 0;
    for (Value v : reads) sum += v;
    return std::vector<WriteOp>{{target, sum + 1}};
  };
  cluster_->Submit(spec, std::move(done));
}

RunResult Run::Execute() {
  RunResult r;
  r.workers = workers_;
  const Clock::time_point t0 = Clock::now();
  auto wall_span = [&](const char* name, Clock::time_point start) {
    if (!opt_.traced) return;
    Span s;
    s.name = name;
    s.start = std::chrono::duration<double>(start - t0).count();
    s.end = Since(t0);
    s.parent = 0;
    r.spans.push_back(s);
  };
  if (opt_.traced) r.spans.push_back(Span{"run", false, 0.0, 0.0, -1, -1});

  Clock::time_point t = Clock::now();
  Status built = Build();
  wall_span("setup", t);
  if (!built.ok()) {
    Fail(&r, "setup: " + built.ToString());
    return r;
  }
  Cluster& c = *cluster_;

  rngs_.clear();
  for (int i = 0; i < w_.agents; ++i) {
    rngs_.emplace_back(opt_.seed * 0x9e3779b97f4a7c15ULL + 2 +
                       static_cast<uint64_t>(i));
  }
  next_due_.assign(w_.agents, 0.0);
  max_late_.assign(w_.agents, 0.0);
  recs_.resize(w_.agents);
  fifo_.resize(w_.nodes);
  c.network().SetDeliveryObserver(
      [this](const Message& m) { fifo_[m.to].Observe(m); });
  if (opt_.traced) InstallObservers();

  ApplyOptions apply;
  apply.loss_seed = opt_.seed * 0x9e3779b97f4a7c15ULL + 1;
  apply.on_recovery = [this](NodeId, const RecoveryStats& s) {
    recoveries_.push_back(s);
  };
  t = Clock::now();
  Status applied = ApplyScenario(scenario_, c, apply, &fault_stats_);
  r.wall.apply = Since(t);
  wall_span("scenario.apply", t);
  if (!applied.ok()) {
    Fail(&r, "scenario: " + applied.ToString());
    return r;
  }
  for (int i = 0; i < w_.agents; ++i) ScheduleArrival(i);

  t = Clock::now();
  c.RunUntil(w_.duration);
  r.wall.run = Since(t);
  wall_span("sim.run", t);

  // Settle: stop losing messages, reconnect, revive, drain, then one
  // anti-entropy sweep for trailing drops.
  t = Clock::now();
  c.network().SetLossProbability(0.0, apply.loss_seed);
  c.HealAll();
  int end_revives = 0;
  for (NodeId n = 0; n < c.node_count(); ++n) {
    if (c.topology().IsNodeUp(n)) continue;
    if (c.ReviveNode(n, [this](const RecoveryStats& s) {
           recoveries_.push_back(s);
         }).ok()) {
      ++end_revives;
    }
  }
  c.RunToQuiescence();
  if (scenario_.HasLoss()) {
    c.StartGapRepairSweep();
    c.RunToQuiescence();
  }
  r.wall.drain = Since(t);
  wall_span("sim.drain", t);

  t = Clock::now();
  AuditReport audit = fragdb::AuditRun(c);
  r.wall.audit = Since(t);
  wall_span("verify.audit", t);

  t = Clock::now();
  AvailabilityTracker* av = c.availability();
  FRAGDB_CHECK(av != nullptr);
  const SimTime horizon = c.Now();
  av->Finalize(horizon);
  CheckReport timeline = fragdb::CheckAvailabilityIntervals(av->intervals(),
                                                            horizon);
  AvailabilityReport avail = fragdb::BuildAvailabilityReport(
      *av, fragdb::BuildFaultWindows(scenario_, w_.nodes), horizon);
  r.wall.report = Since(t);
  wall_span("obs.report", t);
  if (opt_.traced) r.spans[0].end = Since(t0);

  // Correctness gate: every checker the library offers for this run.
  for (const FifoOrderChecker& f : fifo_) {
    CheckReport rep = f.Report();
    if (!rep.ok) Fail(&r, "fifo: " + rep.detail);
  }
  if (!audit.configured_property.ok) {
    Fail(&r, "property: " + audit.configured_property.detail);
  }
  if (!audit.fragmentwise.ok) {
    Fail(&r, "fragmentwise: " + audit.fragmentwise.detail);
  }
  if (!audit.replica_consistency.ok) {
    Fail(&r, "consistency: " + audit.replica_consistency.detail);
  }
  if (!audit.quorum_freshness.ok) {
    Fail(&r, "quorum: " + audit.quorum_freshness.detail);
  }
  if (!audit.commit_atomicity.ok) {
    Fail(&r, "paxos atomicity: " + audit.commit_atomicity.detail);
  }
  if (!audit.commit_nonblocking.ok) {
    Fail(&r, "paxos non-blocking: " + audit.commit_nonblocking.detail);
  }
  if (!timeline.ok) Fail(&r, "timeline: " + timeline.detail);
  const int revives = static_cast<int>(recoveries_.size()) - end_revives;
  if (fault_stats_.failures != 0 || revives < fault_stats_.revives) {
    Fail(&r, "recovery: a compiled crash window did not complete");
  }
  if (scenario_.HasAmnesia() && fault_stats_.crashes > 0 &&
      std::none_of(recoveries_.begin(), recoveries_.end(),
                   [](const RecoveryStats& s) { return s.ran; })) {
    Fail(&r, "recovery: amnesia crashes ran no recovery");
  }
  for (const std::deque<TxnRec>& recs : recs_) {
    for (const TxnRec& rec : recs) {
      if (rec.completions != 1) {
        Fail(&r, "a request completed " + std::to_string(rec.completions) +
                     " times");
      }
    }
  }
  Collect(audit, avail, &r);
  return r;
}

void Run::Collect(const AuditReport& audit, const AvailabilityReport& avail,
                  RunResult* r) {
  Cluster& c = *cluster_;
  const fragdb::History& h = c.history();
  auto sim = [r](const char* name, const char* unit, double v) {
    r->sim.push_back(Metric{name, unit, v});
  };

  // Due instant per update, so replica installs can be timed from it.
  std::unordered_map<TxnId, double> due_of;
  due_of.reserve(h.txns().size());
  for (const std::deque<TxnRec>& recs : recs_) {
    for (const TxnRec& rec : recs) {
      if (!rec.read_only && rec.outcome == Outcome::kCommitted) {
        due_of.emplace(rec.id, rec.due);
      }
    }
  }
  // Home install instant per committed update: where the exec stage ends.
  std::unordered_map<TxnId, SimTime> home_install;
  home_install.reserve(h.txns().size());
  std::vector<double> lag, propagation;
  lag.reserve(h.installs().size());
  propagation.reserve(h.installs().size());
  for (const fragdb::InstallRecord& in : h.installs()) {
    if (in.node == in.origin_node) {
      home_install.emplace(in.writer, in.at);
      continue;
    }
    propagation.push_back(static_cast<double>(in.at - in.origin_time));
    auto due = due_of.find(in.writer);
    if (due != due_of.end()) {
      lag.push_back(static_cast<double>(in.at) - due->second);
    }
  }

  uint64_t committed = 0, declined = 0, unavailable = 0, timed_out = 0,
           other = 0, user_bytes = 0;
  std::vector<double> commit_lat, read_lat, exec_stage, ack_stage;
  Span root{"traffic", true, 0.0, Ms(static_cast<double>(c.Now())), -1, -1};
  if (opt_.traced) r->spans.push_back(root);
  const int sim_root = static_cast<int>(r->spans.size()) - 1;
  for (const std::deque<TxnRec>& recs : recs_) {
    for (const TxnRec& rec : recs) {
      ++r->attempted;
      switch (rec.outcome) {
        case Outcome::kCommitted: ++committed; break;
        case Outcome::kDeclined: ++declined; break;
        case Outcome::kUnavailable: ++unavailable; break;
        case Outcome::kTimedOut: ++timed_out; break;
        default: ++other; break;
      }
      if (rec.outcome != Outcome::kCommitted) continue;
      const double latency = static_cast<double>(rec.done_at) - rec.due;
      if (rec.read_only) {
        read_lat.push_back(latency);
      } else {
        commit_lat.push_back(latency);
        user_bytes += rec.writes * sizeof(WriteOp);
      }
      auto home =
          rec.read_only ? home_install.end() : home_install.find(rec.id);
      if (home != home_install.end()) {
        exec_stage.push_back(static_cast<double>(home->second) - rec.due);
        ack_stage.push_back(static_cast<double>(rec.done_at - home->second));
      }
      if (!opt_.traced) continue;
      r->spans.push_back(Span{rec.read_only ? "read" : "update", true,
                              Ms(rec.due), Ms(static_cast<double>(rec.done_at)),
                              sim_root, rec.id});
      if (home == home_install.end()) continue;
      const int txn_span = static_cast<int>(r->spans.size()) - 1;
      const double installed = Ms(static_cast<double>(home->second));
      r->spans.push_back(
          Span{"exec", true, Ms(rec.due), installed, txn_span, rec.id});
      r->spans.push_back(Span{"ack", true, installed,
                              Ms(static_cast<double>(rec.done_at)), txn_span,
                              rec.id});
    }
  }
  r->failed = unavailable + timed_out + other;
  const double attempted =
      static_cast<double>(std::max<uint64_t>(1, r->attempted));

  // End-to-end, simulated.
  sim("availability", "ratio",
      static_cast<double>(committed + declined) / attempted);
  sim("commit_p50_ms", "ms", Ms(Percentile(commit_lat, 0.50)));
  sim("commit_p99_ms", "ms", Ms(Percentile(commit_lat, 0.99)));
  sim("read_p50_ms", "ms", Ms(Percentile(read_lat, 0.50)));
  sim("read_p99_ms", "ms", Ms(Percentile(read_lat, 0.99)));
  sim("replication_lag_p50_ms", "ms", Ms(Percentile(lag, 0.50)));
  sim("replication_lag_p99_ms", "ms", Ms(Percentile(lag, 0.99)));
  sim("core.commits", "count", static_cast<double>(commit_lat.size()));
  sim("core.reads", "count", static_cast<double>(read_lat.size()));

  // gen: how late the open-loop generator fired (clock resolution only).
  sim("gen.max_late_us", "us",
      *std::max_element(max_late_.begin(), max_late_.end()));

  // sim: the PDES engine.
  const fragdb::PdesScheduler::Stats& ps = c.pdes_scheduler()->stats();
  const double events = static_cast<double>(c.engine()->events_executed());
  sim("sim.events", "count", events);
  sim("sim.windows", "count", static_cast<double>(ps.windows));
  sim("sim.events_per_window", "count",
      ps.windows ? events / static_cast<double>(ps.windows) : 0.0);
  sim("sim.mailbox_envelopes", "count",
      static_cast<double>(ps.mailbox_envelopes));
  sim("sim.global_events", "count", static_cast<double>(ps.global_events));

  // net
  const fragdb::NetworkStats net = c.net_stats();
  sim("net.messages_per_txn", "count",
      static_cast<double>(net.messages_sent) / attempted);
  sim("net.bytes_per_txn", "B",
      static_cast<double>(net.bytes_sent) / attempted);
  sim("net.dropped", "count", static_cast<double>(net.messages_dropped));
  sim("net.queued", "count", static_cast<double>(net.messages_queued));

  sim("net.propagation_p50_ms", "ms", Ms(Percentile(propagation, 0.50)));
  sim("net.propagation_p99_ms", "ms", Ms(Percentile(propagation, 0.99)));

  // cc
  sim("cc.installs", "count", static_cast<double>(h.installs().size()));

  // core
  std::set<std::pair<FragmentId, fragdb::SeqNum>> decided;
  for (const fragdb::CommitDecisionRecord& d : h.decisions()) {
    if (d.commit) decided.emplace(d.fragment, d.seq);
  }
  double replies = 0;
  for (const fragdb::QuorumReadRecord& q : h.quorum_reads()) {
    replies += q.replies;
  }
  sim("core.exec_stage_p99_ms", "ms", Ms(Percentile(exec_stage, 0.99)));
  sim("core.ack_stage_p99_ms", "ms", Ms(Percentile(ack_stage, 0.99)));
  sim("core.unavailable", "count", static_cast<double>(unavailable));
  sim("core.timed_out", "count", static_cast<double>(timed_out));
  sim("core.paxos_decisions", "count", static_cast<double>(decided.size()));
  sim("core.quorum_replies_per_read", "count",
      h.quorum_reads().empty()
          ? 0.0
          : replies / static_cast<double>(h.quorum_reads().size()));

  // recovery
  uint64_t replayed = 0, fetched = 0, stored = 0;
  std::vector<double> durations;
  for (const RecoveryStats& s : recoveries_) {
    replayed += s.wal_records_replayed;
    fetched += s.peer_quasis_fetched;
    if (s.ran) durations.push_back(static_cast<double>(s.Duration()));
  }
  for (NodeId n = 0; n < c.node_count(); ++n) {
    if (fragdb::StableStorage* st = c.stable_storage(n)) {
      stored += st->bytes_written();
    }
  }
  sim("recovery.revives", "count", static_cast<double>(recoveries_.size()));
  sim("recovery.replay_records", "count", static_cast<double>(replayed));
  sim("recovery.peer_quasis_fetched", "count", static_cast<double>(fetched));
  sim("recovery.duration_p50_ms", "ms", Ms(Percentile(durations, 0.50)));
  sim("recovery.storage_bytes_per_user_byte", "ratio",
      user_bytes ? static_cast<double>(stored) / static_cast<double>(user_bytes)
                 : 0.0);

  // verify, obs
  sim("verify.history_installs", "count", static_cast<double>(audit.installs));
  sim("obs.unavailability_intervals", "count",
      static_cast<double>(c.availability()->intervals().size()));
  sim("obs.unattributed_intervals", "count",
      static_cast<double>(avail.unattributed));

  if (!opt_.traced) return;
  std::vector<double> waits, holds;
  for (NodeId n = 0; n < w_.nodes; ++n) {
    waits.insert(waits.end(), lock_wait_[n].begin(), lock_wait_[n].end());
    holds.insert(holds.end(), lock_hold_[n].begin(), lock_hold_[n].end());
  }
  auto traced = [r](std::string name, const char* unit, double v) {
    r->traced.push_back(Metric{std::move(name), unit, v});
  };
  traced("cc.lock_wait_p50_ms", "ms", Ms(Percentile(waits, 0.50)));
  traced("cc.lock_wait_p99_ms", "ms", Ms(Percentile(waits, 0.99)));
  traced("cc.lock_hold_p99_ms", "ms", Ms(Percentile(holds, 0.99)));
  std::map<std::string, uint64_t> by_type;
  for (const SendCounts& shard : sends_) {
    for (const auto& [name, count] : shard.by_type) by_type[name] += count;
  }
  uint64_t other_types = 0;
  for (const auto& [name, count] : by_type) {
    bool listed = false;
    for (const char* t : kCountedTypes) listed |= name == t;
    if (!listed) other_types += count;
  }
  for (const char* t : kCountedTypes) {
    auto it = by_type.find(t);
    traced(std::string("net.sent.") + t, "count",
           it == by_type.end() ? 0.0 : static_cast<double>(it->second));
  }
  traced("net.sent.other_types", "count", static_cast<double>(other_types));
}

}  // namespace

std::string RunResult::SimFingerprint() const {
  std::string out;
  char buf[64];
  for (const Metric& m : sim) {
    std::snprintf(buf, sizeof(buf), "=%.17g;", m.value);
    out += m.name + buf;
  }
  return out;
}

int EffectiveWorkers(const Workload& workload, const RunOptions& options) {
  if (options.workers > 0) return options.workers;
  if (workload.workers > 0) return workload.workers;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 8);
}

RunResult RunWorkload(const Workload& workload, const RunOptions& options) {
  Run run(workload, options);
  return run.Execute();
}

double MeasureSetup(const Workload& workload, uint64_t seed) {
  RunOptions options;
  options.seed = seed;
  Run run(workload, options);
  const Clock::time_point t = Clock::now();
  Status built = run.Build();
  const double elapsed = Since(t);
  FRAGDB_CHECK(built.ok());
  return elapsed;
}

const char* BuildType() { return FRAGBENCH_BUILD_TYPE; }

}  // namespace fragbench

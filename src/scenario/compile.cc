#include "scenario/compile.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "recovery/node_durability.h"

namespace fragdb {

namespace {

/// Shared by every scheduled action of one ApplyScenario call; keeps the
/// options copy alive for as long as any event references it.
struct ApplyContext {
  ApplyOptions options;
  ApplyStats* stats = nullptr;

  void Count(int ApplyStats::* field) const {
    if (stats != nullptr) ++(stats->*field);
  }
};

using Ctx = std::shared_ptr<const ApplyContext>;

/// Runs `fn` now if `at` is not in the future, else schedules it. The
/// synchronous path makes "scenario applied at t >= op.at" behave exactly
/// like hand-written setup code (same event insertion order). Every
/// scenario op mutates shared cluster state (topology, network knobs,
/// crash/revive), so scheduled ops are global events.
void RunAt(Cluster& cluster, SimTime at, std::function<void()> fn) {
  if (at <= cluster.engine()->Now()) {
    fn();
  } else {
    cluster.engine()->AtGlobal(at, std::move(fn));
  }
}

void DoPartition(const ScenarioOp& op, Cluster& cluster, const Ctx& ctx) {
  if (cluster.Partition(ExpandGroups(op.groups, cluster.node_count())).ok()) {
    ctx->Count(&ApplyStats::partitions);
  } else {
    ctx->Count(&ApplyStats::failures);
  }
}

void DoHeal(Cluster& cluster, const Ctx& ctx) {
  cluster.HealAll();
  ctx->Count(&ApplyStats::heals);
}

void DoCrash(const ScenarioOp& op, NodeId node, Cluster& cluster,
             const Ctx& ctx) {
  CrashMode mode = op.amnesia ? CrashMode::kAmnesia : CrashMode::kCrashStop;
  if (!cluster.CrashNode(node, mode).ok()) {
    ctx->Count(&ApplyStats::failures);
    return;
  }
  ctx->Count(&ApplyStats::crashes);
  if (op.amnesia && op.wipe_disk) {
    if (StableStorage* disk = cluster.stable_storage(node)) {
      disk->Delete(kWalFile);
      disk->Delete(kCheckpointFile);
      disk->Delete(kCheckpointPendingFile);
    }
  }
}

void DoRevive(NodeId node, Cluster& cluster, const Ctx& ctx) {
  RecoveryCallback done;
  if (ctx->options.on_recovery) {
    done = [ctx, node](const RecoveryStats& s) {
      ctx->options.on_recovery(node, s);
    };
  }
  if (cluster.ReviveNode(node, std::move(done)).ok()) {
    ctx->Count(&ApplyStats::revives);
  } else {
    ctx->Count(&ApplyStats::failures);
  }
}

void DoLink(NodeId a, NodeId b, bool up, Cluster& cluster, const Ctx& ctx) {
  if (cluster.SetLinkUp(a, b, up).ok()) {
    ctx->Count(&ApplyStats::link_flips);
  } else {
    ctx->Count(&ApplyStats::failures);
  }
}

void StartAction(const ScenarioOp& op, Cluster& cluster, const Ctx& ctx) {
  switch (op.kind) {
    case ScenarioOpKind::kPartition:
    case ScenarioOpKind::kFlap:
      DoPartition(op, cluster, ctx);
      break;
    case ScenarioOpKind::kHeal:
      DoHeal(cluster, ctx);
      break;
    case ScenarioOpKind::kGrayLink:
      cluster.network().SetChannelExtraDelay(op.from, op.to, op.extra);
      ctx->Count(&ApplyStats::gray_links);
      break;
    case ScenarioOpKind::kLoss:
      cluster.network().SetLossProbability(op.probability,
                                           ctx->options.loss_seed);
      ctx->Count(&ApplyStats::loss_windows);
      break;
    case ScenarioOpKind::kCrash:
      DoCrash(op, op.node, cluster, ctx);
      break;
    case ScenarioOpKind::kRolling:
      DoCrash(op, 0, cluster, ctx);
      break;
    case ScenarioOpKind::kLink:
      DoLink(op.a, op.b, false, cluster, ctx);
      break;
    case ScenarioOpKind::kZipf:
    case ScenarioOpKind::kDiurnal:
    case ScenarioOpKind::kFlash:
      break;  // load shaping; handled by LoadProfile in the runner
  }
}

/// Schedules one op's full (start, end) action set.
void ScheduleOp(const ScenarioOp& op, Cluster& cluster, const Ctx& ctx) {
  switch (op.kind) {
    case ScenarioOpKind::kPartition:
      RunAt(cluster, op.at, [&cluster, op, ctx] { DoPartition(op, cluster, ctx); });
      if (op.duration > 0) {
        RunAt(cluster, op.at + op.duration,
              [&cluster, ctx] { DoHeal(cluster, ctx); });
      }
      break;
    case ScenarioOpKind::kHeal:
      RunAt(cluster, op.at, [&cluster, ctx] { DoHeal(cluster, ctx); });
      break;
    case ScenarioOpKind::kFlap:
      // One (partition, heal) pair per cycle, in cycle order — the same
      // event sequence a hand-written `for` loop of At() calls produces.
      for (SimTime start = op.at; start < op.at + op.duration;
           start += op.period) {
        RunAt(cluster, start, [&cluster, op, ctx] { DoPartition(op, cluster, ctx); });
        RunAt(cluster, start + op.down,
              [&cluster, ctx] { DoHeal(cluster, ctx); });
      }
      break;
    case ScenarioOpKind::kGrayLink:
      RunAt(cluster, op.at, [&cluster, op, ctx] {
        cluster.network().SetChannelExtraDelay(op.from, op.to, op.extra);
        ctx->Count(&ApplyStats::gray_links);
      });
      if (op.duration > 0) {
        RunAt(cluster, op.at + op.duration, [&cluster, op] {
          cluster.network().SetChannelExtraDelay(op.from, op.to, 0);
        });
      }
      break;
    case ScenarioOpKind::kLoss:
      RunAt(cluster, op.at, [&cluster, op, ctx] {
        cluster.network().SetLossProbability(op.probability,
                                             ctx->options.loss_seed);
        ctx->Count(&ApplyStats::loss_windows);
      });
      if (op.duration > 0) {
        // Same seed: closing the window freezes the drop stream in place
        // (no draws at p=0) instead of restarting it.
        RunAt(cluster, op.at + op.duration, [&cluster, ctx] {
          cluster.network().SetLossProbability(0.0, ctx->options.loss_seed);
        });
      }
      break;
    case ScenarioOpKind::kCrash:
      RunAt(cluster, op.at,
            [&cluster, op, ctx] { DoCrash(op, op.node, cluster, ctx); });
      if (op.duration > 0) {
        RunAt(cluster, op.at + op.duration, [&cluster, op, ctx] {
          DoRevive(op.node, cluster, ctx);
        });
      }
      break;
    case ScenarioOpKind::kRolling:
      for (NodeId node = 0; node < cluster.node_count(); ++node) {
        SimTime start = op.at + static_cast<SimTime>(node) * op.period;
        RunAt(cluster, start,
              [&cluster, op, node, ctx] { DoCrash(op, node, cluster, ctx); });
        RunAt(cluster, start + op.down,
              [&cluster, node, ctx] { DoRevive(node, cluster, ctx); });
      }
      break;
    case ScenarioOpKind::kLink:
      RunAt(cluster, op.at,
            [&cluster, op, ctx] { DoLink(op.a, op.b, false, cluster, ctx); });
      if (op.duration > 0) {
        RunAt(cluster, op.at + op.duration, [&cluster, op, ctx] {
          DoLink(op.a, op.b, true, cluster, ctx);
        });
      }
      break;
    case ScenarioOpKind::kZipf:
    case ScenarioOpKind::kDiurnal:
    case ScenarioOpKind::kFlash:
      break;
  }
}

}  // namespace

std::vector<std::vector<NodeId>> ExpandGroups(
    const std::vector<std::vector<NodeId>>& groups, int node_count) {
  std::set<NodeId> named;
  for (const auto& group : groups) {
    for (NodeId n : group) {
      if (n != kRestOfNodes) named.insert(n);
    }
  }
  std::vector<std::vector<NodeId>> out;
  out.reserve(groups.size());
  for (const auto& group : groups) {
    std::vector<NodeId> expanded;
    for (NodeId n : group) {
      if (n != kRestOfNodes) {
        expanded.push_back(n);
        continue;
      }
      for (NodeId candidate = 0; candidate < node_count; ++candidate) {
        if (named.count(candidate) == 0) expanded.push_back(candidate);
      }
    }
    if (!expanded.empty()) out.push_back(std::move(expanded));
  }
  return out;
}

std::vector<FaultWindow> BuildFaultWindows(const Scenario& scenario,
                                           int node_count) {
  std::vector<FaultWindow> out;
  for (const ScenarioOp& op : scenario.ops) {
    const std::string label = FormatScenarioOp(op);
    const SimTime end = op.at + op.duration;
    switch (op.kind) {
      case ScenarioOpKind::kPartition:
      case ScenarioOpKind::kLoss:
        out.push_back({label, op.at, end, {}});
        break;
      case ScenarioOpKind::kFlap: {
        int cycle = 0;
        for (SimTime start = op.at; start < op.at + op.duration;
             start += op.period, ++cycle) {
          out.push_back(
              {label + " #" + std::to_string(cycle), start, start + op.down,
               {}});
        }
        break;
      }
      case ScenarioOpKind::kGrayLink:
        out.push_back({label, op.at, end, {op.from, op.to}});
        break;
      case ScenarioOpKind::kCrash:
        out.push_back({label, op.at, end, {op.node}});
        break;
      case ScenarioOpKind::kRolling:
        for (NodeId node = 0; node < node_count; ++node) {
          SimTime start = op.at + static_cast<SimTime>(node) * op.period;
          out.push_back(
              {label + " #" + std::to_string(node), start, start + op.down,
               {node}});
        }
        break;
      case ScenarioOpKind::kLink:
        out.push_back({label, op.at, end, {op.a, op.b}});
        break;
      case ScenarioOpKind::kHeal:
      case ScenarioOpKind::kZipf:
      case ScenarioOpKind::kDiurnal:
      case ScenarioOpKind::kFlash:
        break;  // not faults: nothing to blame on them
    }
  }
  return out;
}

Status ApplyScenario(const Scenario& scenario, Cluster& cluster,
                     const ApplyOptions& options, ApplyStats* stats) {
  for (const ScenarioOp& op : scenario.ops) {
    if (op.kind == ScenarioOpKind::kCrash &&
        (op.node < 0 || op.node >= cluster.node_count())) {
      return Status::InvalidArgument("crash op names node " +
                                     std::to_string(op.node));
    }
    if (op.kind == ScenarioOpKind::kGrayLink &&
        (op.from < 0 || op.from >= cluster.node_count() || op.to < 0 ||
         op.to >= cluster.node_count())) {
      return Status::InvalidArgument("gray op names an unknown channel");
    }
  }
  auto ctx = std::make_shared<const ApplyContext>(ApplyContext{options, stats});
  for (const ScenarioOp& op : scenario.ops) {
    ScheduleOp(op, cluster, ctx);
  }
  return Status::Ok();
}

void ApplyOpNow(const ScenarioOp& op, Cluster& cluster,
                const ApplyOptions& options, ApplyStats* stats) {
  auto ctx = std::make_shared<const ApplyContext>(ApplyContext{options, stats});
  StartAction(op, cluster, ctx);
}

}  // namespace fragdb

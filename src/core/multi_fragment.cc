#include "core/multi_fragment.h"

#include <map>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace fragdb {

void MultiFragmentCoordinator::Submit(
    AgentId coordinator, std::vector<ObjectId> read_set, TxnBody body,
    std::string label, std::function<void(MultiFragmentResult)> done) {
  Cluster* cluster = cluster_;
  Result<NodeId> home = cluster->catalog().HomeOf(coordinator);
  if (!home.ok()) {
    done(MultiFragmentResult{home.status(), {}});
    return;
  }
  NodeId coord_node = *home;

  // Phase 0: read + compute at the coordinator's home, as a read-only
  // transaction (so the reads are properly recorded and scheduled).
  TxnSpec probe;
  probe.agent = coordinator;
  probe.write_fragment = kInvalidFragment;
  probe.read_set = std::move(read_set);
  auto writes_out = std::make_shared<std::vector<WriteOp>>();
  auto body_status = std::make_shared<Status>();
  probe.body = [body, writes_out,
                body_status](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    Result<std::vector<WriteOp>> out = body(reads);
    if (!out.ok()) {
      *body_status = out.status();
    } else {
      *writes_out = *out;
    }
    // The probe itself stays read-only; the writes are committed by the
    // involved agents in phase 2.
    return std::vector<WriteOp>{};
  };
  probe.label = label + "/probe";

  cluster->SubmitReadOnlyAt(
      coord_node, probe,
      [cluster, coord_node, writes_out, body_status, label,
       done](const TxnResult& probe_result) {
        Status status =
            probe_result.status.ok() ? *body_status : probe_result.status;
        // Group writes per fragment.
        std::map<FragmentId, std::vector<WriteOp>> groups;
        for (const WriteOp& w : *writes_out) {
          if (!status.ok()) break;
          if (!cluster->catalog().ValidObject(w.object)) {
            status = Status::InvalidArgument("write to unknown object");
            break;
          }
          groups[cluster->catalog().FragmentOf(w.object)].push_back(w);
        }
        // Phase 1: every involved agent's home must be reachable now.
        for (const auto& [fragment, writes] : groups) {
          (void)writes;
          if (!status.ok()) break;
          Result<NodeId> fhome = cluster->catalog().HomeOfFragment(fragment);
          if (!fhome.ok()) {
            status = fhome.status();
          } else if (!cluster->topology().Reachable(coord_node, *fhome)) {
            status = Status::Unavailable(
                "agent of " + cluster->catalog().FragmentName(fragment) +
                " unreachable; multi-fragment transaction aborted");
          }
        }
        // The probe completed on the coordinator's node, which may touch
        // neither the other homes' state nor the caller's: the outcome,
        // or phase 2's hand-off, runs as a global event.
        SimEngine* engine = cluster->engine();
        engine->AtGlobal(engine->Now(), [cluster, status,
                                         groups = std::move(groups), label,
                                         done] {
          if (!status.ok() || groups.empty()) {
            done(MultiFragmentResult{status, {}});
            return;
          }
          // Phase 2: hand each group to its agent as a normal update;
          // each part's completion joins the shared result in a global
          // event too.
          auto result = std::make_shared<MultiFragmentResult>();
          result->status = Status::Ok();
          result->parts.resize(groups.size());
          auto remaining =
              std::make_shared<int>(static_cast<int>(groups.size()));
          size_t index = 0;
          for (const auto& [fragment, writes] : groups) {
            Result<AgentId> agent = cluster->catalog().AgentOf(fragment);
            FRAGDB_CHECK(agent.ok());
            TxnSpec part;
            part.agent = *agent;
            part.write_fragment = fragment;
            part.body = [ws = writes](const std::vector<Value>&)
                -> Result<std::vector<WriteOp>> { return ws; };
            part.label = label + "/part(F" + std::to_string(fragment) + ")";
            cluster->Submit(part, [cluster, result, remaining, index,
                                   done](const TxnResult& part_result) {
              SimEngine* engine = cluster->engine();
              engine->AtGlobal(engine->Now(), [result, remaining, index, done,
                                               part_result] {
                result->parts[index] = part_result;
                if (!part_result.status.ok()) {
                  result->status = part_result.status;
                }
                if (--*remaining == 0) done(*result);
              });
            });
            ++index;
          }
        });
      });
}

}  // namespace fragdb

#include "core/audit.h"

#include <algorithm>
#include <sstream>

namespace fragdb {

AuditReport AuditRun(const Cluster& cluster) {
  AuditReport report;
  const History& history = cluster.history();
  const int fragments = cluster.catalog().fragment_count();
  // The replica checks and the counts run as one more task beside the
  // history checks.
  auto replicas_and_counts = [&] {
    report.replica_consistency = cluster.CheckReplicaSetConsistency();
    // Majority-commit legitimately strands prepared entries when the home
    // dies mid-broadcast (no abort message exists); only Paxos Commit
    // promises — and is held to — non-blocking termination.
    report.commit_nonblocking =
        cluster.config().move_protocol == MoveProtocol::kPaxosCommit
            ? cluster.CheckCommitNonBlocking()
            : CheckReport::Pass();
    for (const auto& [id, rec] : history.txns()) {
      (void)id;
      if (rec.committed) {
        ++report.committed_txns;
      } else {
        ++report.uncommitted_txns;
      }
    }
    report.installs = static_cast<int>(history.installs().size());
    report.reads = static_cast<int>(history.reads().size());
    report.messages_sent = cluster.net_stats().messages_sent;
    for (const InstallRecord& rec : history.installs()) {
      if (rec.node == rec.origin_node) continue;  // the home's own install
      report.max_replication_lag_us =
          std::max(report.max_replication_lag_us, rec.at - rec.origin_time);
    }
  };
  HistoryAudit checks = AuditHistory(history, fragments,
                                     cluster.task_runner(),
                                     replicas_and_counts);
  report.global_serializability = std::move(checks.global_serializability);
  // The first per-fragment failure, in fragment order, doubles as the
  // fragmentwise verdict, and every failure is collected for the report.
  for (FragmentId f = 0; f < fragments; ++f) {
    for (int p = 1; p <= 2; ++p) {
      CheckReport& r = p == 1 ? checks.property1[f] : checks.property2[f];
      if (r.ok) continue;
      report.fragment_failures.push_back("F" + std::to_string(f) + " P" +
                                         std::to_string(p) + ": " + r.detail);
      if (report.fragmentwise.ok) report.fragmentwise = std::move(r);
    }
  }
  report.quorum_freshness = std::move(checks.quorum_freshness);
  // The configured property is one of the checks above: pick its report
  // instead of running it again.
  switch (cluster.promise()) {
    case Cluster::Promise::kMutualConsistency:
      report.configured_property = cluster.CheckConfiguredProperty();
      break;
    case Cluster::Promise::kGlobalSerializability:
      report.configured_property = report.global_serializability;
      break;
    case Cluster::Promise::kFragmentwise:
      report.configured_property = report.fragmentwise;
      break;
    case Cluster::Promise::kFragmentwiseAndQuorumFreshness:
      report.configured_property = report.fragmentwise.ok
                                       ? report.quorum_freshness
                                       : report.fragmentwise;
      break;
  }
  report.commit_atomicity = std::move(checks.commit_atomicity);
  return report;
}

std::string AuditReport::ToString() const {
  std::ostringstream os;
  auto line = [&](const char* name, const CheckReport& r) {
    os << "  " << name << ": " << (r.ok ? "OK" : "FAIL");
    if (!r.detail.empty()) os << " (" << r.detail << ")";
    os << "\n";
  };
  os << "audit:\n";
  line("configured property   ", configured_property);
  line("replica consistency   ", replica_consistency);
  line("global serializability", global_serializability);
  line("fragmentwise (P1+P2)  ", fragmentwise);
  line("quorum freshness      ", quorum_freshness);
  line("commit atomicity      ", commit_atomicity);
  line("commit non-blocking   ", commit_nonblocking);
  for (const std::string& f : fragment_failures) {
    os << "    " << f << "\n";
  }
  os << "  txns: " << committed_txns << " committed, " << uncommitted_txns
     << " uncommitted; installs: " << installs << "; reads: " << reads
     << "\n";
  os << "  messages sent: " << messages_sent
     << "; max replication lag: " << max_replication_lag_us << " us\n";
  return os.str();
}

}  // namespace fragdb

#include "verify/checkers.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace fragdb {

CheckReport CheckReport::Fail(std::string detail,
                              std::vector<TxnId> witnesses) {
  CheckReport r;
  r.ok = false;
  r.detail = std::move(detail);
  r.witnesses = std::move(witnesses);
  return r;
}

namespace {

std::string JoinTxns(const std::vector<TxnId>& txns,
                     const History* history = nullptr) {
  std::ostringstream os;
  for (size_t i = 0; i < txns.size(); ++i) {
    if (i > 0) os << " -> ";
    os << "T" << txns[i];
    if (history != nullptr) {
      const TxnRecord* rec = history->FindTxn(txns[i]);
      if (rec != nullptr && !rec->label.empty()) {
        os << "(" << rec->label << ")";
      }
    }
  }
  return os.str();
}

}  // namespace

CheckReport CheckGlobalSerializability(const History& history) {
  TxnGraph g = BuildGlobalSerializationGraph(history);
  std::vector<TxnId> cycle = g.FindCycle();
  if (cycle.empty()) return CheckReport::Pass();
  return CheckReport::Fail("global serialization graph has cycle: " +
                               JoinTxns(cycle, &history),
                           cycle);
}

CheckReport CheckProperty1(const History& history, FragmentId fragment) {
  TxnGraph g = BuildUpdaterGraph(history, fragment);
  std::vector<TxnId> cycle = g.FindCycle();
  if (cycle.empty()) return CheckReport::Pass();
  return CheckReport::Fail("U(F" + std::to_string(fragment) +
                               ") schedule not serializable: " +
                               JoinTxns(cycle, &history),
                           cycle);
}

CheckReport CheckProperty2(const History& history, FragmentId fragment) {
  // For each committed updater W of `fragment`, and each reader T, T's
  // reads of objects written by W must either all reflect W (version
  // sequence >= W's) or none (version sequence < W's). Only updaters
  // with at least two writes matter — a single write cannot be partial —
  // and only reads of the fragment's own objects can land in a W's
  // write set.
  std::vector<TxnId> updaters;
  for (TxnId w : history.UpdatersOf(fragment)) {
    if (history.WritesOf(w).size() >= 2) updaters.push_back(w);
  }
  if (updaters.empty()) return CheckReport::Pass();
  std::map<TxnId, std::map<ObjectId, bool>> writes_of;  // writer -> objects
  std::map<TxnId, SeqNum> seq_of;
  for (TxnId w : updaters) {
    seq_of[w] = history.FindTxn(w)->frag_seq;
    for (const WriteOp& op : history.WritesOf(w)) {
      writes_of[w][op.object] = true;
    }
  }
  // Group the fragment's read observations by reader.
  std::map<TxnId, std::vector<const ReadRecord*>> reads_by_txn;
  for (const ReadRecord* r : history.ReadsOn(fragment)) {
    reads_by_txn[r->reader].push_back(r);
  }
  for (const auto& [reader, reads] : reads_by_txn) {
    const TxnRecord* reader_rec = history.FindTxn(reader);
    if (reader_rec == nullptr || !reader_rec->committed) continue;
    for (TxnId w : updaters) {
      if (w == reader) continue;
      const auto& wset = writes_of[w];
      bool saw = false, missed = false;
      for (const ReadRecord* r : reads) {
        if (wset.count(r->object) == 0) continue;
        if (r->version_seq >= seq_of[w]) {
          saw = true;
        } else {
          missed = true;
        }
      }
      if (saw && missed) {
        return CheckReport::Fail(
            "T" + std::to_string(reader) + " saw a partial effect of T" +
                std::to_string(w) + " on F" + std::to_string(fragment),
            {reader, w});
      }
    }
  }
  return CheckReport::Pass();
}

CheckReport CheckFragmentwiseSerializability(const History& history,
                                             int fragment_count) {
  for (FragmentId f = 0; f < fragment_count; ++f) {
    CheckReport p1 = CheckProperty1(history, f);
    if (!p1.ok) return p1;
    CheckReport p2 = CheckProperty2(history, f);
    if (!p2.ok) return p2;
  }
  return CheckReport::Pass();
}

CheckReport CheckQuorumFreshness(const History& history) {
  if (history.quorum_reads().empty()) return CheckReport::Pass();
  // Per fragment: sweep W-acked writes and completed reads in time order,
  // maintaining the per-object floor (newest W-acked sequence). Every
  // read started after a write's W-ack must observe at least the floor.
  std::map<FragmentId, std::vector<const QuorumWriteRecord*>> writes_by_frag;
  for (const QuorumWriteRecord& w : history.quorum_writes()) {
    writes_by_frag[w.fragment].push_back(&w);
  }
  std::map<FragmentId, std::vector<const QuorumReadRecord*>> reads_by_frag;
  for (const QuorumReadRecord& r : history.quorum_reads()) {
    reads_by_frag[r.fragment].push_back(&r);
  }
  for (auto& [fragment, reads] : reads_by_frag) {
    std::vector<const QuorumWriteRecord*>& writes = writes_by_frag[fragment];
    std::sort(writes.begin(), writes.end(),
              [](const QuorumWriteRecord* a, const QuorumWriteRecord* b) {
                return std::tie(a->acked_at, a->seq) <
                       std::tie(b->acked_at, b->seq);
              });
    std::sort(reads.begin(), reads.end(),
              [](const QuorumReadRecord* a, const QuorumReadRecord* b) {
                return std::tie(a->at, a->reader) <
                       std::tie(b->at, b->reader);
              });
    std::map<ObjectId, std::pair<SeqNum, TxnId>> floor;
    size_t next_write = 0;
    for (const QuorumReadRecord* read : reads) {
      // Strictly-before: a W-ack and a read start at the same instant are
      // concurrent and impose no obligation.
      while (next_write < writes.size() &&
             writes[next_write]->acked_at < read->at) {
        const QuorumWriteRecord* w = writes[next_write++];
        for (const WriteOp& op : history.WritesOf(w->txn)) {
          auto& slot = floor[op.object];
          if (w->seq > slot.first) slot = {w->seq, w->txn};
        }
      }
      for (const auto& [object, seq] : read->observed) {
        auto it = floor.find(object);
        if (it == floor.end() || seq >= it->second.first) continue;
        std::ostringstream os;
        os << "T" << read->reader << " quorum read of object " << object
           << " on F" << fragment << " at t=" << read->at
           << "us observed seq " << seq << " < seq " << it->second.first
           << " of T" << it->second.second
           << ", which reached its write quorum earlier";
        return CheckReport::Fail(os.str(), {read->reader, it->second.second});
      }
    }
  }
  return CheckReport::Pass();
}

namespace {

/// The first decision record of each (fragment, seq) slot.
using DecidedSlots =
    std::map<std::pair<FragmentId, SeqNum>, const CommitDecisionRecord*>;

CheckReport CheckInstallsAgainst(const History& history,
                                 const DecidedSlots& decided) {
  if (decided.empty()) return CheckReport::Pass();
  std::vector<std::tuple<FragmentId, SeqNum, NodeId, int>> installed;
  for (const InstallRecord& rec : history.installs()) {
    auto it = decided.find({rec.fragment, rec.seq});
    if (it == decided.end()) continue;
    const CommitDecisionRecord& d = *it->second;
    if (!d.commit || rec.writer != d.txn) {
      std::ostringstream os;
      os << "N" << rec.node << " installed T" << rec.writer << " at F"
         << rec.fragment << " seq " << rec.seq << ", but the slot decided "
         << (d.commit ? "T" + std::to_string(d.txn) : std::string("abort"));
      return CheckReport::Fail(os.str(), {rec.writer, d.txn});
    }
    installed.emplace_back(rec.fragment, rec.seq, rec.node, rec.incarnation);
  }
  std::sort(installed.begin(), installed.end());
  auto dup = std::adjacent_find(installed.begin(), installed.end());
  if (dup != installed.end()) {
    const auto& [fragment, seq, node, incarnation] = *dup;
    std::ostringstream os;
    os << "N" << node << " installed F" << fragment << " seq " << seq
       << " twice in one lifetime (incarnation " << incarnation << ")";
    return CheckReport::Fail(os.str(), {decided.at({fragment, seq})->txn});
  }
  return CheckReport::Pass();
}

}  // namespace

CheckReport CheckCommitAtomicity(const History& history) {
  // All decisions of one (fragment, seq) slot must agree, and a slot that
  // decided commit must correspond to a transaction the history marks
  // committed.
  DecidedSlots first;
  for (const CommitDecisionRecord& d : history.decisions()) {
    auto [it, inserted] = first.try_emplace({d.fragment, d.seq}, &d);
    const CommitDecisionRecord* head = it->second;
    if (!inserted && head->commit != d.commit) {
      std::ostringstream os;
      os << "commit decision for F" << d.fragment << " seq " << d.seq
         << " disagrees: N" << head->node << " decided "
         << (head->commit ? "commit" : "abort") << ", N" << d.node
         << " decided " << (d.commit ? "commit" : "abort");
      return CheckReport::Fail(os.str(), {head->txn, d.txn});
    }
  }
  for (const auto& [slot, d] : first) {
    if (!d->commit || d->txn == kInvalidTxn) continue;
    const TxnRecord* rec = history.FindTxn(d->txn);
    if (rec == nullptr || !rec->committed) {
      std::ostringstream os;
      os << "F" << slot.first << " seq " << slot.second
         << " decided commit for T" << d->txn
         << " but the history does not mark it committed";
      return CheckReport::Fail(os.str(), {d->txn});
    }
  }
  return CheckInstallsAgainst(history, first);
}

CheckReport CheckDecidedInstalls(const History& history) {
  DecidedSlots decided;
  for (const CommitDecisionRecord& d : history.decisions()) {
    decided.try_emplace({d.fragment, d.seq}, &d);
  }
  return CheckInstallsAgainst(history, decided);
}

CheckReport CheckMutualConsistency(
    const std::vector<const ObjectStore*>& replicas) {
  if (replicas.size() < 2) return CheckReport::Pass();
  const ObjectStore* first = replicas[0];
  for (size_t i = 1; i < replicas.size(); ++i) {
    std::vector<ObjectId> diff = first->DiffContents(*replicas[i]);
    if (!diff.empty()) {
      std::ostringstream os;
      os << "replica 0 and replica " << i << " differ on " << diff.size()
         << " object(s), first: "
         << first->catalog()->ObjectName(diff[0]) << " (" << first->Read(diff[0])
         << " vs " << replicas[i]->Read(diff[0]) << ")";
      return CheckReport::Fail(os.str());
    }
  }
  return CheckReport::Pass();
}

bool IsSingleFragment(const ConsistencyPredicate& p, const Catalog& catalog) {
  if (p.inputs.empty()) return true;
  FragmentId f = catalog.FragmentOf(p.inputs[0]);
  for (ObjectId o : p.inputs) {
    if (catalog.FragmentOf(o) != f) return false;
  }
  return true;
}

bool EvaluatePredicate(const ConsistencyPredicate& p,
                       const ObjectStore& store) {
  std::vector<Value> values;
  values.reserve(p.inputs.size());
  for (ObjectId o : p.inputs) values.push_back(store.Read(o));
  return p.fn(values);
}

PredicateTimeline TracePredicate(const History& history,
                                 const Catalog& catalog,
                                 const ConsistencyPredicate& predicate,
                                 NodeId node) {
  // Rebuild the node's value stream from its recorded installs.
  std::map<ObjectId, Value> values;
  for (ObjectId o : predicate.inputs) values[o] = catalog.InitialValue(o);
  auto eval = [&] {
    std::vector<Value> in;
    in.reserve(predicate.inputs.size());
    for (ObjectId o : predicate.inputs) in.push_back(values[o]);
    return predicate.fn(in);
  };

  // Installs at `node`, in installation order.
  std::vector<const InstallRecord*> installs;
  for (const InstallRecord& rec : history.installs()) {
    if (rec.node == node) installs.push_back(&rec);
  }
  std::sort(installs.begin(), installs.end(),
            [](const InstallRecord* a, const InstallRecord* b) {
              return a->node_order < b->node_order;
            });

  PredicateTimeline timeline;
  bool holds = eval();
  timeline.evaluations = 1;
  if (!holds) {
    ++timeline.violations;
    timeline.transitions.emplace_back(0, false);
  }
  for (const InstallRecord* rec : installs) {
    for (const WriteOp& w : rec->writes) {
      if (values.count(w.object) > 0) values[w.object] = w.value;
    }
    bool now = eval();
    ++timeline.evaluations;
    if (!now) ++timeline.violations;
    if (now != holds) {
      timeline.transitions.emplace_back(rec->at, now);
      holds = now;
    }
  }
  timeline.holds_at_end = holds;
  return timeline;
}

void FifoOrderChecker::Observe(const Message& m) {
  ++observed_;
  SimTime& last = last_sent_[{m.from, m.to}];
  if (m.sent_at < last) {
    ++violations_;
    if (first_violation_.empty()) {
      std::ostringstream os;
      os << "channel " << m.from << "->" << m.to << " delivered sent_at="
         << m.sent_at << "us after sent_at=" << last << "us";
      first_violation_ = os.str();
    }
    return;  // keep `last` at the highest stamp seen
  }
  last = m.sent_at;
}

CheckReport FifoOrderChecker::Report() const {
  if (violations_ == 0) return CheckReport::Pass();
  std::ostringstream os;
  os << violations_ << " of " << observed_
     << " deliveries out of FIFO order; first: " << first_violation_;
  return CheckReport::Fail(os.str());
}

CheckReport CheckAvailabilityIntervals(
    const std::vector<AvailabilityInterval>& intervals, SimTime horizon) {
  auto cell = [](const AvailabilityInterval& iv) {
    return std::make_tuple(iv.node, iv.fragment, static_cast<int>(iv.access));
  };
  auto describe = [](const AvailabilityInterval& iv) {
    std::ostringstream os;
    os << "N" << iv.node << "/F" << iv.fragment << "/"
       << AccessKindName(iv.access) << " [" << iv.start << "," << iv.end
       << ")us " << ServeStateName(iv.state);
    return os.str();
  };
  for (size_t i = 0; i < intervals.size(); ++i) {
    const AvailabilityInterval& iv = intervals[i];
    if (iv.start >= iv.end) {
      return CheckReport::Fail("empty availability interval: " + describe(iv));
    }
    if (iv.start < 0 || iv.end > horizon) {
      return CheckReport::Fail("availability interval outside [0," +
                               std::to_string(horizon) +
                               "]us: " + describe(iv));
    }
    if (iv.state == ServeState::kServing) {
      return CheckReport::Fail("serving-state interval recorded: " +
                               describe(iv));
    }
    if (i == 0) continue;
    const AvailabilityInterval& prev = intervals[i - 1];
    if (cell(prev) > cell(iv) ||
        (cell(prev) == cell(iv) && prev.start > iv.start)) {
      return CheckReport::Fail("availability intervals out of order: " +
                               describe(prev) + " before " + describe(iv));
    }
    if (cell(prev) == cell(iv) && prev.end > iv.start) {
      return CheckReport::Fail("overlapping availability intervals: " +
                               describe(prev) + " and " + describe(iv));
    }
  }
  return CheckReport::Pass();
}

CheckReport CheckPredicateNeverViolated(const History& history,
                                        const Catalog& catalog,
                                        const ConsistencyPredicate& predicate,
                                        int node_count) {
  for (NodeId node = 0; node < node_count; ++node) {
    PredicateTimeline t = TracePredicate(history, catalog, predicate, node);
    if (t.violations > 0) {
      std::ostringstream os;
      os << "predicate '" << predicate.name << "' violated at node " << node
         << " (" << t.violations << " of " << t.evaluations
         << " evaluations)";
      if (!t.transitions.empty()) {
        os << ", first flip at t=" << t.transitions.front().first << "us";
      }
      return CheckReport::Fail(os.str());
    }
  }
  return CheckReport::Pass();
}

}  // namespace fragdb

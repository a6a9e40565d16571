#include "verify/checkers.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>

#include "common/logging.h"
#include "common/radix_sort.h"

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

/// The verdict on a global serialization graph.
CheckReport GlobalGraphReport(const History& history, const TxnGraph& g) {
  std::vector<TxnId> cycle = g.FindCycle();
  if (cycle.empty()) return CheckReport::Pass();
  return CheckReport::Fail("global serialization graph has cycle: " +
                               JoinTxns(cycle, &history),
                           cycle);
}

}  // namespace

CheckReport CheckGlobalSerializability(const History& history) {
  return GlobalGraphReport(history, BuildGlobalSerializationGraph(history));
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
  // Per updater, in id order: its sequence and its objects, ascending.
  std::vector<SeqNum> seq_of;
  std::vector<std::vector<ObjectId>> objects_of;
  for (TxnId w : updaters) {
    seq_of.push_back(history.FindTxn(w)->frag_seq);
    std::vector<ObjectId>& objects = objects_of.emplace_back();
    for (const WriteOp& op : history.WritesOf(w)) objects.push_back(op.object);
    std::sort(objects.begin(), objects.end());
  }
  // The fragment's read observations, grouped by reader.
  const std::vector<const ReadRecord*>& on = history.ReadsOn(fragment);
  std::vector<const ReadRecord*> reads(on.begin(), on.end());
  std::stable_sort(reads.begin(), reads.end(),
                   [](const ReadRecord* a, const ReadRecord* b) {
                     return a->reader < b->reader;
                   });
  for (size_t begin = 0, end = 0; begin < reads.size(); begin = end) {
    const TxnId reader = reads[begin]->reader;
    while (end < reads.size() && reads[end]->reader == reader) ++end;
    const TxnRecord* reader_rec = history.FindTxn(reader);
    if (reader_rec == nullptr || !reader_rec->committed) continue;
    for (size_t u = 0; u < updaters.size(); ++u) {
      const TxnId w = updaters[u];
      if (w == reader) continue;
      const std::vector<ObjectId>& wset = objects_of[u];
      bool saw = false, missed = false;
      for (size_t i = begin; i < end; ++i) {
        const ReadRecord* r = reads[i];
        if (!std::binary_search(wset.begin(), wset.end(), r->object)) {
          continue;
        }
        if (r->version_seq >= seq_of[u]) {
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

/// A history's decision records grouped by (fragment, seq) slot.
struct DecidedSlots {
  /// The first record (in record order) of each slot, in slot order.
  std::vector<const CommitDecisionRecord*> first;
  /// The first record (in record order) whose outcome contradicts its
  /// slot's first, and that first; null when every slot agrees.
  const CommitDecisionRecord* clash = nullptr;
  const CommitDecisionRecord* clash_first = nullptr;
};

DecidedSlots GroupDecisions(const History& history) {
  const std::span<const CommitDecisionRecord> decisions = history.decisions();
  // Stable, so each slot's records stay in record order.
  const SortedRecords order(decisions.size(), [&decisions](uint32_t i) {
    return std::array<int64_t, 2>{decisions[i].fragment, decisions[i].seq};
  });
  DecidedSlots slots;
  // first_of[i]: the first record of decision i's slot.
  std::vector<uint32_t> first_of(decisions.size());
  for (size_t j = 0; j < order.size();) {
    const size_t head = j;
    slots.first.push_back(&decisions[order.index(head)]);
    for (; j < order.size() && order.SameKey(j, head); ++j) {
      first_of[order.index(j)] = order.index(head);
    }
  }
  for (size_t i = 0; i < decisions.size(); ++i) {
    const CommitDecisionRecord& first = decisions[first_of[i]];
    if (decisions[i].commit != first.commit) {
      slots.clash = &decisions[i];
      slots.clash_first = &first;
      break;
    }
  }
  return slots;
}

CheckReport CheckInstallsAgainst(const History& history,
                                 const DecidedSlots& decided) {
  if (decided.first.empty()) return CheckReport::Pass();
  // Installs by (fragment, seq, node, incarnation), merged against the
  // slots: a decided slot's installs must carry its transaction, once per
  // node lifetime.
  const std::span<const InstallRecord> installs = history.installs();
  const SortedRecords order(installs.size(), [&installs](uint32_t i) {
    const InstallRecord& rec = installs[i];
    return std::array<int64_t, 4>{rec.fragment, rec.seq, rec.node,
                                  rec.incarnation};
  });
  // slot_of[i]: the decided slot install i fills, if any; `twice`: the
  // first repeated lifetime, in slot order.
  constexpr uint32_t kUndecided = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> slot_of(installs.size(), kUndecided);
  std::array<int64_t, 4> twice{};
  const CommitDecisionRecord* twice_slot = nullptr;
  size_t s = 0;
  for (size_t j = 0; j < order.size(); ++j) {
    const std::array<int64_t, 4> k = order.key(j);
    auto slot_before = [&k](const CommitDecisionRecord* d) {
      return std::make_pair(int64_t{d->fragment}, d->seq) <
             std::make_pair(k[0], k[1]);
    };
    while (s < decided.first.size() && slot_before(decided.first[s])) ++s;
    if (s == decided.first.size()) break;
    const CommitDecisionRecord& d = *decided.first[s];
    if (d.fragment != k[0] || d.seq != k[1]) continue;
    slot_of[order.index(j)] = static_cast<uint32_t>(s);
    // Every install of a decided slot is checked below, so a repeat only
    // matters when all of them carry the slot's transaction.
    if (twice_slot == nullptr && j > 0 && order.SameKey(j - 1, j)) {
      twice = k;
      twice_slot = &d;
    }
  }
  // The first wrong install in record order.
  const InstallRecord* wrong = nullptr;
  const CommitDecisionRecord* wrong_slot = nullptr;
  for (size_t i = 0; i < installs.size() && wrong == nullptr; ++i) {
    if (slot_of[i] == kUndecided) continue;
    const CommitDecisionRecord& d = *decided.first[slot_of[i]];
    if (!d.commit || installs[i].writer != d.txn) {
      wrong = &installs[i];
      wrong_slot = &d;
    }
  }
  if (wrong != nullptr) {
    const CommitDecisionRecord& d = *wrong_slot;
    std::ostringstream os;
    os << "N" << wrong->node << " installed T" << wrong->writer << " at F"
       << wrong->fragment << " seq " << wrong->seq
       << ", but the slot decided "
       << (d.commit ? "T" + std::to_string(d.txn) : std::string("abort"));
    return CheckReport::Fail(os.str(), {wrong->writer, d.txn});
  }
  if (twice_slot != nullptr) {
    std::ostringstream os;
    os << "N" << twice[2] << " installed F" << twice[0] << " seq "
       << twice[1] << " twice in one lifetime (incarnation " << twice[3]
       << ")";
    return CheckReport::Fail(os.str(), {twice_slot->txn});
  }
  return CheckReport::Pass();
}

}  // namespace

CheckReport CheckCommitAtomicity(const History& history) {
  // All decisions of one (fragment, seq) slot must agree, and a slot that
  // decided commit must correspond to a transaction the history marks
  // committed.
  const DecidedSlots slots = GroupDecisions(history);
  if (slots.clash != nullptr) {
    const CommitDecisionRecord* head = slots.clash_first;
    const CommitDecisionRecord* d = slots.clash;
    std::ostringstream os;
    os << "commit decision for F" << d->fragment << " seq " << d->seq
       << " disagrees: N" << head->node << " decided "
       << (head->commit ? "commit" : "abort") << ", N" << d->node
       << " decided " << (d->commit ? "commit" : "abort");
    return CheckReport::Fail(os.str(), {head->txn, d->txn});
  }
  for (const CommitDecisionRecord* d : slots.first) {
    if (!d->commit || d->txn == kInvalidTxn) continue;
    const TxnRecord* rec = history.FindTxn(d->txn);
    if (rec == nullptr || !rec->committed) {
      std::ostringstream os;
      os << "F" << d->fragment << " seq " << d->seq
         << " decided commit for T" << d->txn
         << " but the history does not mark it committed";
      return CheckReport::Fail(os.str(), {d->txn});
    }
  }
  return CheckInstallsAgainst(history, slots);
}

CheckReport CheckDecidedInstalls(const History& history) {
  return CheckInstallsAgainst(history, GroupDecisions(history));
}

HistoryAudit AuditHistory(const History& history, int fragment_count,
                          const TaskRunner& run,
                          const std::function<void()>& alongside) {
  history.PrepareLookups(run);
  GlobalGraphTasks gsr(history);
  HistoryAudit audit;
  const size_t fragments = static_cast<size_t>(std::max(fragment_count, 0));
  audit.property1.resize(fragments);
  audit.property2.resize(fragments);
  // Tasks: the global graph's chunks, each fragment's P1, each
  // fragment's P2, then quorum freshness, commit atomicity, `alongside`.
  const size_t p1 = gsr.tasks();
  const size_t p2 = p1 + fragments;
  const size_t rest = p2 + fragments;
  RunTasks(run, rest + 3, [&](size_t task) {
    if (task < p1) {
      gsr.Run(task);
    } else if (task < p2) {
      const FragmentId f = static_cast<FragmentId>(task - p1);
      audit.property1[f] = CheckProperty1(history, f);
    } else if (task < rest) {
      const FragmentId f = static_cast<FragmentId>(task - p2);
      audit.property2[f] = CheckProperty2(history, f);
    } else if (task == rest) {
      audit.quorum_freshness = CheckQuorumFreshness(history);
    } else if (task == rest + 1) {
      audit.commit_atomicity = CheckCommitAtomicity(history);
    } else if (alongside) {
      alongside();
    }
  });
  audit.global_serializability = GlobalGraphReport(history, gsr.Graph());
  return audit;
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
    for (const WriteOp& w : history.WritesOf(*rec)) {
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
  FRAGDB_CHECK(m.from >= 0 && m.to >= 0);
  if (static_cast<size_t>(m.to) >= last_sent_.size()) {
    last_sent_.resize(static_cast<size_t>(m.to) + 1);
  }
  std::vector<SimTime>& row = last_sent_[m.to];
  if (static_cast<size_t>(m.from) >= row.size()) {
    row.resize(static_cast<size_t>(m.from) + 1, 0);
  }
  SimTime& last = row[m.from];
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

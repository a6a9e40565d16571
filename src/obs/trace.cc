#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace fragdb {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string JsonUnescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      char next = s[++i];
      out += next == 'n' ? '\n' : next;
    } else {
      out += s[i];
    }
  }
  return out;
}

}  // namespace

std::string TraceEventToJsonLine(const TraceEvent& ev) {
  std::string line = "{\"name\":\"" + JsonEscape(ev.kind) + "\"";
  line += ",\"ph\":\"i\",\"s\":\"p\"";
  line += ",\"ts\":" + std::to_string(ev.at);
  line += ",\"pid\":" + std::to_string(ev.node);
  line += ",\"tid\":" + std::to_string(ev.txn);
  line += ",\"args\":{";
  line += "\"fragment\":" + std::to_string(ev.fragment);
  line += ",\"seq\":" + std::to_string(ev.seq);
  line += ",\"detail\":\"" + JsonEscape(ev.detail) + "\"";
  line += "}}";
  return line;
}

namespace {

/// Extracts the value of `"field":` in `line` starting the search at
/// `from`. Returns npos-marked empty on absence.
bool FindField(const std::string& line, const std::string& field,
               size_t* value_begin) {
  std::string needle = "\"" + field + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *value_begin = pos + needle.size();
  return true;
}

int64_t ParseIntField(const std::string& line, const std::string& field,
                      int64_t fallback) {
  size_t begin;
  if (!FindField(line, field, &begin)) return fallback;
  return std::stoll(line.substr(begin));
}

std::string ParseStringField(const std::string& line,
                             const std::string& field) {
  size_t begin;
  if (!FindField(line, field, &begin)) return "";
  if (begin >= line.size() || line[begin] != '"') return "";
  size_t i = begin + 1;
  std::string raw;
  while (i < line.size() && line[i] != '"') {
    if (line[i] == '\\' && i + 1 < line.size()) {
      raw += line[i];
      raw += line[i + 1];
      i += 2;
    } else {
      raw += line[i];
      i += 1;
    }
  }
  return JsonUnescape(raw);
}

}  // namespace

Tracer::Tracer(int nodes, int capacity)
    : capacity_(capacity), rings_(static_cast<size_t>(nodes) + 1) {
  FRAGDB_CHECK(nodes >= 0 && capacity >= 0);
}

size_t Tracer::RingIndex(NodeId node) const {
  if (node < 0 || static_cast<size_t>(node) + 1 >= rings_.size()) {
    return rings_.size() - 1;
  }
  return static_cast<size_t>(node);
}

void Tracer::Record(TraceEvent ev, NodeId acting) {
  // The acting node is the only context that may write concurrently;
  // globals and setup route by subject.
  Ring& ring = rings_[RingIndex(acting != kInvalidNode ? acting : ev.node)];
  Slot slot{ring.next_seq++, std::move(ev)};
  if (capacity_ == 0 || ring.slots.size() < static_cast<size_t>(capacity_)) {
    ring.slots.push_back(std::move(slot));
    return;
  }
  ring.slots[ring.next] = std::move(slot);
  ring.next = (ring.next + 1) % ring.slots.size();
}

void Tracer::Clear() {
  for (Ring& ring : rings_) ring = Ring{};
}

uint64_t Tracer::total_recorded() const {
  uint64_t total = 0;
  for (const Ring& ring : rings_) total += ring.next_seq;
  return total;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<std::pair<size_t, const Slot*>> all;
  for (size_t r = 0; r < rings_.size(); ++r) {
    for (const Slot& slot : rings_[r].slots) all.emplace_back(r, &slot);
  }
  // Per-ring seqs are not globally ordered; (time, ring, seq) is the
  // deterministic total order.
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second->ev.at != b.second->ev.at) {
      return a.second->ev.at < b.second->ev.at;
    }
    if (a.first != b.first) return a.first < b.first;
    return a.second->seq < b.second->seq;
  });
  std::vector<TraceEvent> out;
  out.reserve(all.size());
  for (const auto& [ring, slot] : all) out.push_back(slot->ev);
  return out;
}

std::vector<TraceEvent> Tracer::NodeEvents(NodeId node) const {
  const Ring& ring = rings_[RingIndex(node)];
  std::vector<TraceEvent> out;
  const size_t n = ring.slots.size();
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring.slots[(ring.next + i) % n].ev);
  }
  return out;
}

std::vector<TraceEvent> Tracer::TxnSpan(TxnId txn) const {
  std::vector<TraceEvent> span;
  for (TraceEvent& ev : events()) {
    if (ev.txn == txn) span.push_back(std::move(ev));
  }
  return span;
}

std::string Tracer::ToJsonl() const {
  std::string out;
  for (const TraceEvent& ev : events()) {
    out += TraceEventToJsonLine(ev);
    out += "\n";
  }
  return out;
}

std::string Tracer::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events()) {
    if (!first) out += ",";
    first = false;
    out += "\n" + TraceEventToJsonLine(ev);
  }
  out += "\n]}";
  return out;
}

Status Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot open trace file: " + path);
  out << ToJsonl();
  out.close();
  if (!out) return Status::Internal("failed writing trace file: " + path);
  return Status::Ok();
}

Result<std::vector<TraceEvent>> Tracer::ParseJsonl(const std::string& text) {
  std::vector<TraceEvent> events;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.front() != '{' || line.back() != '}') {
      return Status::InvalidArgument("not a JSONL trace line: " + line);
    }
    TraceEvent ev;
    ev.kind = ParseStringField(line, "name");
    if (ev.kind.empty()) {
      return Status::InvalidArgument("trace line without name: " + line);
    }
    ev.at = ParseIntField(line, "ts", 0);
    ev.node = static_cast<NodeId>(ParseIntField(line, "pid", kInvalidNode));
    ev.txn = static_cast<TxnId>(ParseIntField(line, "tid", kInvalidTxn));
    ev.fragment = static_cast<FragmentId>(
        ParseIntField(line, "fragment", kInvalidFragment));
    ev.seq = static_cast<SeqNum>(ParseIntField(line, "seq", 0));
    ev.detail = ParseStringField(line, "detail");
    events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace fragdb

#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace fragdb {

// --------------------------------------------------------------------------
// Histogram
// --------------------------------------------------------------------------

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  FRAGDB_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

const std::vector<int64_t>& Histogram::DefaultTimeBounds() {
  static const std::vector<int64_t> kBounds = {
      10,     20,     50,      100,     200,     500,      1000,
      2000,   5000,   10000,   20000,   50000,   100000,   200000,
      500000, 1000000, 2000000, 5000000, 10000000};
  return kBounds;
}

void Histogram::Observe(int64_t v) {
  // First bound >= v, or the overflow bucket past the last bound.
  size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) -
             bounds_.begin();
  buckets_[i] += 1;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += 1;
  sum_ += v;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  FRAGDB_CHECK(bounds_ == other.bounds_);
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

int64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::min(1.0, std::max(0.0, p));
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    uint64_t c = buckets_[i];
    seen += c;
    if (seen < rank) continue;
    // Linear interpolation inside the selected bucket. The bucket's value
    // range is (lo, hi]; Observe() puts a value exactly equal to bounds_[i]
    // in bucket i (closed upper bound), so a bucket filled only with its
    // boundary value must report that boundary exactly — clamping lo/hi to
    // the recorded min_/max_ achieves that, and makes single-observation
    // and all-equal histograms exact as well.
    int64_t lo, hi;
    if (i < bounds_.size()) {
      lo = i > 0 ? bounds_[i - 1] : min_;
      hi = std::min(bounds_[i], max_);
    } else {
      lo = bounds_.empty() ? min_ : bounds_.back();
      hi = max_;
    }
    lo = std::max(lo, min_);
    if (hi <= lo) return hi;
    // rank-th observation is the (rank - (seen - c))-th of this bucket's c;
    // interpolate so position c (the last) lands exactly on hi.
    uint64_t pos = rank - (seen - c);
    return lo + static_cast<int64_t>(
                    (static_cast<double>(hi - lo) * static_cast<double>(pos)) /
                    static_cast<double>(c));
  }
  return max_;
}

// --------------------------------------------------------------------------
// Keys
// --------------------------------------------------------------------------

std::string MetricKey::ToString() const {
  std::string out = name;
  std::string dims;
  if (node != kInvalidNode) dims += "node=" + std::to_string(node);
  if (fragment != kInvalidFragment) {
    if (!dims.empty()) dims += ",";
    dims += "fragment=" + std::to_string(fragment);
  }
  if (!label.empty()) {
    if (!dims.empty()) dims += ",";
    dims += "label=" + label;
  }
  if (!dims.empty()) out += "{" + dims + "}";
  return out;
}

namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

std::string JoinInts(const std::vector<int64_t>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out;
}

std::string JoinUints(const std::vector<uint64_t>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out;
}

bool EntryLess(const MetricEntry& a, const MetricEntry& b) {
  if (a.key != b.key) return a.key < b.key;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

}  // namespace

// --------------------------------------------------------------------------
// Snapshot
// --------------------------------------------------------------------------

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const MetricEntry& e : other.entries) {
    auto it = std::lower_bound(entries.begin(), entries.end(), e, EntryLess);
    if (it != entries.end() && it->key == e.key && it->kind == e.kind) {
      switch (e.kind) {
        case MetricKind::kCounter:
          it->counter += e.counter;
          break;
        case MetricKind::kGauge:
          it->gauge += e.gauge;
          break;
        case MetricKind::kHistogram:
          if (it->histogram.count() == 0) {
            it->histogram = e.histogram;
          } else {
            it->histogram.Merge(e.histogram);
          }
          break;
      }
    } else {
      entries.insert(it, e);
    }
  }
}

MetricsSnapshot MetricsSnapshot::Relabeled(const std::string& tag) const {
  MetricsSnapshot out;
  out.entries = entries;
  for (MetricEntry& e : out.entries) {
    e.key.label = e.key.label.empty() ? tag : tag + "/" + e.key.label;
  }
  std::sort(out.entries.begin(), out.entries.end(), EntryLess);
  return out;
}

const MetricEntry* MetricsSnapshot::Find(const MetricKey& key) const {
  for (const MetricEntry& e : entries) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterTotal(const std::string& name) const {
  uint64_t total = 0;
  for (const MetricEntry& e : entries) {
    if (e.kind == MetricKind::kCounter && e.key.name == name) {
      total += e.counter;
    }
  }
  return total;
}

int64_t MetricsSnapshot::HistogramMax(const std::string& name) const {
  int64_t max = 0;
  for (const MetricEntry& e : entries) {
    if (e.kind == MetricKind::kHistogram && e.key.name == name &&
        e.histogram.count() > 0) {
      max = std::max(max, e.histogram.max());
    }
  }
  return max;
}

uint64_t MetricsSnapshot::HistogramCount(const std::string& name) const {
  uint64_t total = 0;
  for (const MetricEntry& e : entries) {
    if (e.kind == MetricKind::kHistogram && e.key.name == name) {
      total += e.histogram.count();
    }
  }
  return total;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const MetricEntry& e : entries) {
    out += KindName(e.kind);
    out += " ";
    out += e.key.ToString();
    switch (e.kind) {
      case MetricKind::kCounter:
        out += " " + std::to_string(e.counter);
        break;
      case MetricKind::kGauge:
        out += " " + std::to_string(e.gauge);
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = e.histogram;
        out += " count=" + std::to_string(h.count());
        out += " sum=" + std::to_string(h.sum());
        out += " min=" + std::to_string(h.min());
        out += " max=" + std::to_string(h.max());
        out += " bounds=" + JoinInts(h.bounds());
        out += " buckets=" + JoinUints(h.buckets());
        break;
      }
    }
    out += "\n";
  }
  return out;
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

Counter* MetricsRegistry::GetCounter(const MetricKey& key) {
  auto& slot = counters_[key];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const MetricKey& key) {
  auto& slot = gauges_[key];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const MetricKey& key,
                                         const std::vector<int64_t>& bounds) {
  auto& slot = histograms_[key];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.entries.reserve(series_count());
  for (const auto& [key, counter] : counters_) {
    MetricEntry e;
    e.key = key;
    e.kind = MetricKind::kCounter;
    e.counter = counter->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [key, gauge] : gauges_) {
    MetricEntry e;
    e.key = key;
    e.kind = MetricKind::kGauge;
    e.gauge = gauge->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [key, hist] : histograms_) {
    MetricEntry e;
    e.key = key;
    e.kind = MetricKind::kHistogram;
    e.histogram = *hist;
    snap.entries.push_back(std::move(e));
  }
  std::sort(snap.entries.begin(), snap.entries.end(), EntryLess);
  return snap;
}

}  // namespace fragdb

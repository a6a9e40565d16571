#ifndef FRAGDB_OBS_METRICS_H_
#define FRAGDB_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace fragdb {

/// Monotonically increasing event count. Handles returned by the registry
/// are stable for its lifetime, so hot paths pay one pointer chase per
/// update and nothing else.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// An instantaneous level (queue depth, applied sequence, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t d) { value_ += d; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// extra overflow bucket counts the rest. Bounds are chosen at creation
/// and never change, so Merge() across nodes/runs is bucket-wise addition.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds);

  /// Exponential microsecond bounds, 10us .. 10s — suits every simulated
  /// duration in the cluster (scheduler steps are 50-100us, link latencies
  /// milliseconds, recovery tens of milliseconds).
  static const std::vector<int64_t>& DefaultTimeBounds();

  void Observe(int64_t v);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const;
  /// Estimate of the p-quantile (p in [0,1]): linear interpolation inside
  /// the bucket holding the p-th observation, with the bucket range clamped
  /// to the recorded min/max so exact-boundary, all-equal and
  /// single-observation histograms report exact values. 0 when empty.
  int64_t Percentile(double p) const;

  const std::vector<int64_t>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<int64_t> bounds_;
  std::vector<uint64_t> buckets_;  // bounds_.size() + 1 (overflow last)
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// Identity of one metric series: a name plus optional node / fragment
/// scope and a free-form label dimension (e.g. a message type).
struct MetricKey {
  std::string name;
  NodeId node = kInvalidNode;          // kInvalidNode = not node-scoped
  FragmentId fragment = kInvalidFragment;
  std::string label;

  auto operator<=>(const MetricKey&) const = default;
  /// "name{node=0,fragment=2,label=x}" — empty braces omitted.
  std::string ToString() const;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One series in a snapshot, decoupled from the live registry.
struct MetricEntry {
  MetricKey key;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  Histogram histogram{std::vector<int64_t>{}};
};

/// Frozen copy of a registry, safe to keep, merge and serialize after the
/// cluster is gone. Entries are sorted by (key, kind) so identical runs
/// produce byte-identical expositions (the determinism tests rely on it).
class MetricsSnapshot {
 public:
  std::vector<MetricEntry> entries;

  /// Sums `other` into this snapshot: counters and histogram buckets add,
  /// gauges add (summing levels across nodes is the useful cluster view).
  /// Series present only in `other` are inserted.
  void Merge(const MetricsSnapshot& other);

  /// Copy with every series tagged by `tag` in the free label dimension:
  /// an empty label becomes `tag`, an existing label becomes "tag/label".
  /// Used to mark per-scenario snapshots before merging them into a grid
  /// aggregate without colliding series from different cells. Entries are
  /// re-sorted, preserving the determinism guarantee.
  MetricsSnapshot Relabeled(const std::string& tag) const;

  const MetricEntry* Find(const MetricKey& key) const;
  /// Sum of every counter series with this name (over all scopes/labels).
  uint64_t CounterTotal(const std::string& name) const;
  /// Largest observation across every histogram series with this name.
  int64_t HistogramMax(const std::string& name) const;
  /// Total observation count across every histogram series with this name.
  uint64_t HistogramCount(const std::string& name) const;

  /// Line-oriented human-readable form, one series per line.
  std::string ToText() const;
};

/// Owner of all live series. Get* creates the series on first use and
/// returns a stable handle; instruments resolve handles once and update
/// them with plain arithmetic afterwards.
class MetricsRegistry {
 public:
  Counter* GetCounter(const MetricKey& key);
  Gauge* GetGauge(const MetricKey& key);
  /// `bounds` applies only on first creation of the series.
  Histogram* GetHistogram(const MetricKey& key,
                          const std::vector<int64_t>& bounds =
                              Histogram::DefaultTimeBounds());

  MetricsSnapshot Snapshot() const;
  size_t series_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::map<MetricKey, std::unique_ptr<Counter>> counters_;
  std::map<MetricKey, std::unique_ptr<Gauge>> gauges_;
  std::map<MetricKey, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace fragdb

#endif  // FRAGDB_OBS_METRICS_H_

#ifndef SPATIALBUFFER_OBS_METRICS_H_
#define SPATIALBUFFER_OBS_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sdb::obs {

/// Monotonically increasing event/sample counter. The fast path is a single
/// pointer-indirect increment; no allocation, no atomics (a registry belongs
/// to exactly one replay — the sweep runner gives every worker task its own
/// registry and merges the snapshots deterministically at join).
class Counter {
 public:
  void Add(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-written sample (e.g. the current ASB candidate-set size). Merging
/// registries takes the maximum, which — unlike "last writer" — does not
/// depend on the order snapshots arrive in.
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in ascending
/// order, plus one implicit overflow bucket. Observe() is a short linear
/// scan over the bounds (a dozen at most) and two plain increments — no
/// allocation after construction.
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void Observe(double value) {
    size_t b = 0;
    while (b < bounds_.size() && value > bounds_[b]) ++b;
    ++counts_[b];
    sum_ += value;
    ++observations_;
  }

  /// Folds another histogram's state (same bounds) into this one:
  /// bucket-wise count addition plus exact sum/observation totals.
  void MergeFrom(std::span<const uint64_t> counts, double sum,
                 uint64_t observations);

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& counts() const { return counts_; }
  double sum() const { return sum_; }
  uint64_t observations() const { return observations_; }
  double mean() const {
    return observations_ == 0
               ? 0.0
               : sum_ / static_cast<double>(observations_);
  }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  double sum_ = 0.0;
  uint64_t observations_ = 0;
};

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// Point-in-time value of one named metric — plain data, so snapshots can
/// cross thread joins inside result structs and merge without touching the
/// registry that produced them.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t count = 0;                  ///< counter value
  double value = 0.0;                  ///< gauge value / histogram sum
  std::vector<double> bounds;          ///< histogram only
  std::vector<uint64_t> bucket_counts; ///< histogram only (bounds + 1)
  uint64_t observations = 0;           ///< histogram only

  bool operator==(const MetricValue&) const = default;
};

/// All metrics of one registry, sorted by name.
using MetricsSnapshot = std::vector<MetricValue>;

/// Named metric registry of one buffer replay. Registration (Get*) is the
/// only allocating operation; call sites register once and keep the returned
/// handle, so the per-event fast path never touches the registry again.
/// Handles stay valid for the registry's lifetime. Not thread-safe — one
/// registry per replay, merged at join.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// Re-registering an existing name with a different kind (or different
  /// histogram bounds) aborts — a metric name means one thing.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name,
                          std::span<const double> bounds);

  size_t size() const { return entries_.size(); }

  /// Current values of every metric, sorted by name.
  MetricsSnapshot Snapshot() const;

  /// Folds a snapshot into this registry: counters and histogram buckets
  /// add, gauges take the maximum. Metrics absent here are registered.
  /// Merging is commutative and associative over these rules, so a merged
  /// sweep registry is identical for every worker-thread count as long as
  /// snapshots are folded in a deterministic order.
  void Merge(const MetricsSnapshot& snapshot);

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // std::map keeps Snapshot() iteration sorted without a per-snapshot sort.
  std::map<std::string, Entry, std::less<>> entries_;
};

/// One uint64_t counter of a plain stats struct and the metric name it is
/// exported under. The stats structs (core::BufferStats, wal::WalStats,
/// svc::ShardStats) are the only store of their counters; each names its
/// fields once in a table of these, and every metrics view and
/// field-by-field sum walks that table.
template <typename Stats>
struct StatsCounter {
  std::string_view name;
  uint64_t Stats::*field;
};

/// Adds every field named in `table` to `registry` as a counter holding
/// the field's absolute value (registries merging several structs sum).
template <typename Stats, size_t N>
void AddStatsCounters(const StatsCounter<Stats> (&table)[N],
                      const Stats& stats, MetricsRegistry* registry) {
  for (const StatsCounter<Stats>& counter : table) {
    registry->GetCounter(counter.name)->Add(stats.*counter.field);
  }
}

/// Quantile estimate over fixed-bucket histogram state (`counts` has
/// bounds.size() + 1 entries, the last being overflow). Linear
/// interpolation inside the covering bucket, the way fixed-bucket p50/p95/
/// p99 are conventionally reported; the overflow bucket reports the top
/// bound (the estimate saturates there). `q` in [0, 1]. Returns 0 with no
/// observations.
double HistogramQuantile(std::span<const double> bounds,
                         std::span<const uint64_t> counts, double q);

/// Same, over a snapshot value (must be a histogram metric).
double HistogramQuantile(const MetricValue& value, double q);

}  // namespace sdb::obs

#endif  // SPATIALBUFFER_OBS_METRICS_H_

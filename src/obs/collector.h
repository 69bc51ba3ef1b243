#ifndef SPATIALBUFFER_OBS_COLLECTOR_H_
#define SPATIALBUFFER_OBS_COLLECTOR_H_

#include <cstddef>
#include <cstdint>

#include "obs/events.h"
#include "obs/metrics.h"

namespace sdb::obs {

/// Construction knobs of a Collector.
struct CollectorOptions {
  /// Event-ring capacity: 0 = no events, EventRing::kUnbounded = keep all
  /// (required for access-trace recording and full adaptation traces).
  size_t event_capacity = 4096;
  /// Record every buffer request as a kPageAccess event (trace-recording
  /// mode; expensive — one event per request).
  bool record_accesses = false;
  /// Sliding-window length (in buffer requests) of the windowed hit-ratio
  /// metric.
  size_t window = 1024;
};

/// One replay's observability sink: a metrics registry plus a structured
/// event ring. A collector belongs to exactly one BufferManager at a time
/// and is not thread-safe — the concurrent sweep runner creates one
/// collector per replay task and merges the snapshots deterministically
/// after the join.
///
/// Overhead contract: with no collector attached (the default) every
/// instrumentation site in the buffer/policy hot paths is one pointer
/// compare. With a collector attached, the per-request cost is a handful of
/// plain counter increments, per-eviction cost adds two histogram
/// observations plus an O(frames) victim-recency-rank scan, and event
/// pushes are copies into a preallocated ring.
class Collector {
 public:
  explicit Collector(const CollectorOptions& options = CollectorOptions{})
      : events_(options.event_capacity),
        record_accesses_(options.record_accesses),
        window_(options.window == 0 ? 1 : options.window) {
    requests_ = metrics_.GetCounter("buffer.requests");
    hits_ = metrics_.GetCounter("buffer.hits");
    misses_ = metrics_.GetCounter("buffer.misses");
    static constexpr double kRatioBounds[] = {0.1, 0.2, 0.3, 0.4, 0.5,
                                              0.6, 0.7, 0.8, 0.9, 1.0};
    window_ratio_ = metrics_.GetHistogram("buffer.window_hit_ratio",
                                          kRatioBounds);
    window_ratio_last_ = metrics_.GetGauge("buffer.window_hit_ratio.last");
  }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  EventRing& events() { return events_; }
  const EventRing& events() const { return events_; }
  bool record_accesses() const { return record_accesses_; }
  size_t window() const { return window_; }

  /// Called by BufferManager on every Fetch/New. Maintains the request
  /// counters and the sliding-window hit ratio; in trace-recording mode
  /// also appends a kPageAccess event.
  void OnBufferRequest(uint64_t page, uint64_t query, bool hit) {
    requests_->Add();
    hit ? hits_->Add() : misses_->Add();
    window_hits_ += hit ? 1 : 0;
    if (++window_fill_ == window_) {
      const double ratio = static_cast<double>(window_hits_) /
                           static_cast<double>(window_);
      window_ratio_->Observe(ratio);
      window_ratio_last_->Set(ratio);
      window_fill_ = 0;
      window_hits_ = 0;
    }
    if (record_accesses_) {
      Event event;
      event.kind = EventKind::kPageAccess;
      event.flag = hit;
      event.page = page;
      event.query = query;
      events_.Push(event);
    }
  }

 private:
  MetricsRegistry metrics_;
  EventRing events_;
  const bool record_accesses_;
  const size_t window_;
  Counter* requests_;
  Counter* hits_;
  Counter* misses_;
  Histogram* window_ratio_;
  Gauge* window_ratio_last_;
  size_t window_fill_ = 0;
  size_t window_hits_ = 0;
};

}  // namespace sdb::obs

#endif  // SPATIALBUFFER_OBS_COLLECTOR_H_

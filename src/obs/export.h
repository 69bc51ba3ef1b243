#ifndef SPATIALBUFFER_OBS_EXPORT_H_
#define SPATIALBUFFER_OBS_EXPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace sdb::obs {

/// Version stamped as "schema_version" into every row of every BENCH_*.json
/// writer (sweep rows, metrics dumps, the per-bench JSONL mains), so
/// downstream analysis can detect row-shape changes. Bump when a writer
/// renames, removes, or re-types a field.
///   1: implicit (rows without the field)
///   2: the field itself + concurrent-service rows (BENCH_concurrent.json)
///   3: metrics blocks in concurrent/fault rows + the BENCH_timeseries.json
///      writer (additive only — version-2 fields are unchanged)
///   4: fixed counter set; every stats-struct counter is exported, zero or
///      not
inline constexpr int kBenchJsonSchemaVersion = 4;

/// Compact single-line JSON object of a snapshot: counters and gauges as
/// numbers, histograms as {"bounds":[...],"counts":[...],"sum":s,"n":n}.
/// Embedded verbatim into BENCH_sweep.json rows.
std::string MetricsJson(const MetricsSnapshot& snapshot);

/// Writes one JSON-Lines record per metric, each tagged with `label`
/// ({"label":...,"metric":...,...}). Truncates `path`. Returns false on I/O
/// failure. The standalone metrics dump of a bench run.
bool WriteMetricsJsonLines(const std::string& path, std::string_view label,
                           const MetricsSnapshot& snapshot);

/// Accumulates Chrome trace_event "complete" events and writes a JSON file
/// loadable in chrome://tracing or https://ui.perfetto.dev — used to render
/// the sweep runner's worker timelines and the query span traces.
/// Timestamps are from an arbitrary common origin; events are stored at
/// nanosecond resolution and written as fractional microseconds (the
/// trace_event "ts" unit), so sub-microsecond device spans stay visible.
class ChromeTraceWriter {
 public:
  /// `tid` groups events into horizontal tracks (one per worker thread).
  void AddCompleteEvent(std::string_view name, uint32_t tid,
                        uint64_t begin_us, uint64_t duration_us,
                        std::string_view category = "replay");

  /// Same, at nanosecond resolution (span traces).
  void AddCompleteEventNs(std::string_view name, uint32_t tid,
                          uint64_t begin_ns, uint64_t duration_ns,
                          std::string_view category = "trace");

  /// Names a track, so the viewer shows "worker 3" instead of a bare tid.
  void SetThreadName(uint32_t tid, std::string_view name);

  size_t event_count() const { return events_.size(); }

  /// Writes the accumulated events; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct TraceEvent {
    std::string name;
    std::string category;
    uint32_t tid = 0;
    uint64_t begin_ns = 0;
    uint64_t duration_ns = 0;
  };
  struct ThreadName {
    uint32_t tid = 0;
    std::string name;
  };
  std::vector<TraceEvent> events_;
  std::vector<ThreadName> thread_names_;
};

/// Prometheus text exposition (version 0.0.4) of a snapshot: counters and
/// gauges as single samples, histograms as cumulative `_bucket{le=...}`
/// series plus `_sum`/`_count`. Metric names are prefixed with `prefix_`
/// and non-identifier characters become underscores ("svc.latch_waits" →
/// "sdb_svc_latch_waits"). The live stats surface of bench/db_stats and
/// svc::BufferService::StatsText.
std::string PrometheusText(const MetricsSnapshot& snapshot,
                           std::string_view prefix = "sdb");

}  // namespace sdb::obs

#endif  // SPATIALBUFFER_OBS_EXPORT_H_

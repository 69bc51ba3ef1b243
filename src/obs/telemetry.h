#ifndef SPATIALBUFFER_OBS_TELEMETRY_H_
#define SPATIALBUFFER_OBS_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace sdb::obs {

/// One telemetry window: the change in the merged metric state between two
/// consecutive samples, reduced to the series the roadmap questions need.
/// `clock` is the logical clock (buffer requests so far) at the window's
/// right edge, so windows line up across runs regardless of wall time.
struct TelemetryWindow {
  uint64_t clock = 0;
  uint64_t requests = 0;   ///< buffer requests in this window
  uint64_t hits = 0;       ///< buffer hits in this window
  double hit_rate = 0.0;   ///< hits / requests (0 when the window is empty)
  uint64_t latch_waits = 0;
  uint64_t latch_acquires = 0;
  uint64_t disk_reads = 0;
  uint64_t quarantined_frames = 0;   ///< gauge: total at sample time
  uint64_t asb_candidate = 0;        ///< gauge: candidate-set size

  bool operator==(const TelemetryWindow&) const = default;
};

/// A labelled point on the logical clock (e.g. "workload shift"), kept with
/// the windows so downstream analysis can align phase changes with the
/// series.
struct TelemetryMark {
  uint64_t clock = 0;
  std::string label;
};

struct TelemetryHubOptions {
  /// Take a sample every time the logical clock advances by this many
  /// ticks past the previous sample. 0 samples on every call.
  uint64_t window_clock_interval = 1 << 12;
};

/// Thread-safe windowed time-series accumulator. A poller (bench thread,
/// service dump hook) calls Sample() with the merged service snapshot; the
/// hub keeps saturating deltas of the counter series and the latest gauge
/// values per window. Sampling cost is one snapshot scan under a mutex —
/// nothing on the buffer hot path ever touches the hub.
class TelemetryHub {
 public:
  explicit TelemetryHub(const TelemetryHubOptions& options = {});

  /// True when `clock` has advanced a full interval past the last sample —
  /// lets the poller skip snapshot assembly entirely between windows.
  bool WantsSample(uint64_t clock) const;

  /// Closes a window at `clock` over the given merged snapshot.
  /// `asb_candidate` overrides the "asb.candidate" gauge when nonzero
  /// (the shared-tuning candidate size is not a registry metric).
  /// Windows with no clock progress are dropped.
  void Sample(uint64_t clock, const MetricsSnapshot& snapshot,
              uint64_t asb_candidate = 0);

  void Mark(uint64_t clock, std::string_view label);

  std::vector<TelemetryWindow> Windows() const;
  std::vector<TelemetryMark> Marks() const;

 private:
  const uint64_t interval_;
  mutable std::mutex mu_;
  uint64_t last_clock_ = 0;
  bool have_base_ = false;
  TelemetryWindow base_;  ///< running totals at the last sample
  std::vector<TelemetryWindow> windows_;
  std::vector<TelemetryMark> marks_;
};

/// Writes the series as JSON Lines — one {"kind":"window",...} record per
/// window and one {"kind":"mark",...} per mark, each stamped with
/// schema_version. The BENCH_timeseries.json format. Returns false on I/O
/// failure.
bool WriteTimeSeriesJson(const std::string& path,
                         const std::vector<TelemetryWindow>& windows,
                         const std::vector<TelemetryMark>& marks);

}  // namespace sdb::obs

#endif  // SPATIALBUFFER_OBS_TELEMETRY_H_

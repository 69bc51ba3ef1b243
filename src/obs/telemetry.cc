#include "obs/telemetry.h"

#include <cstdio>

#include "obs/export.h"

namespace sdb::obs {

namespace {

/// Running totals the hub tracks, read off one merged snapshot. Missing
/// metrics read as zero, so the hub works against partial registries
/// (e.g. a service without latch instrumentation).
struct Totals {
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t latch_waits = 0;
  uint64_t latch_acquires = 0;
  uint64_t disk_reads = 0;
  uint64_t quarantined_frames = 0;
  uint64_t asb_candidate = 0;
};

Totals ReadTotals(const MetricsSnapshot& snapshot) {
  Totals totals;
  for (const MetricValue& metric : snapshot) {
    if (metric.name == "buffer.requests") {
      totals.requests = metric.count;
    } else if (metric.name == "buffer.hits") {
      totals.hits = metric.count;
    } else if (metric.name == "svc.latch_waits") {
      totals.latch_waits = metric.count;
    } else if (metric.name == "svc.latch_acquires") {
      totals.latch_acquires = metric.count;
    } else if (metric.name == "svc.disk_reads") {
      totals.disk_reads = metric.count;
    } else if (metric.name == "io.quarantined_frames") {
      totals.quarantined_frames = metric.count;
    } else if (metric.name == "asb.candidate") {
      totals.asb_candidate = static_cast<uint64_t>(metric.value);
    }
  }
  return totals;
}

uint64_t SatDelta(uint64_t now, uint64_t base) {
  return now >= base ? now - base : 0;
}

}  // namespace

TelemetryHub::TelemetryHub(const TelemetryHubOptions& options)
    : interval_(options.window_clock_interval) {}

bool TelemetryHub::WantsSample(uint64_t clock) const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock >= last_clock_ + interval_ && clock > last_clock_;
}

void TelemetryHub::Sample(uint64_t clock, const MetricsSnapshot& snapshot,
                          uint64_t asb_candidate) {
  const Totals totals = ReadTotals(snapshot);
  std::lock_guard<std::mutex> lock(mu_);
  if (have_base_ && clock <= last_clock_) return;
  TelemetryWindow window;
  window.clock = clock;
  window.requests = SatDelta(totals.requests, base_.requests);
  window.hits = SatDelta(totals.hits, base_.hits);
  window.hit_rate = window.requests == 0
                        ? 0.0
                        : static_cast<double>(window.hits) /
                              static_cast<double>(window.requests);
  window.latch_waits = SatDelta(totals.latch_waits, base_.latch_waits);
  window.latch_acquires =
      SatDelta(totals.latch_acquires, base_.latch_acquires);
  window.disk_reads = SatDelta(totals.disk_reads, base_.disk_reads);
  window.quarantined_frames = totals.quarantined_frames;
  window.asb_candidate =
      asb_candidate != 0 ? asb_candidate : totals.asb_candidate;
  // The base keeps running totals (not deltas) so the next window's
  // subtraction is against absolute counter state.
  base_.requests = totals.requests;
  base_.hits = totals.hits;
  base_.latch_waits = totals.latch_waits;
  base_.latch_acquires = totals.latch_acquires;
  base_.disk_reads = totals.disk_reads;
  last_clock_ = clock;
  // The very first sample establishes the base; recording it as a window
  // would fold startup noise into the series.
  if (!have_base_) {
    have_base_ = true;
    return;
  }
  windows_.push_back(window);
}

void TelemetryHub::Mark(uint64_t clock, std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  marks_.push_back(TelemetryMark{clock, std::string(label)});
}

std::vector<TelemetryWindow> TelemetryHub::Windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_;
}

std::vector<TelemetryMark> TelemetryHub::Marks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return marks_;
}

bool WriteTimeSeriesJson(const std::string& path,
                         const std::vector<TelemetryWindow>& windows,
                         const std::vector<TelemetryMark>& marks) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  bool ok = true;
  for (const TelemetryWindow& w : windows) {
    ok = std::fprintf(
             file,
             "{\"schema_version\":%d,\"kind\":\"window\",\"clock\":%llu,"
             "\"requests\":%llu,\"hits\":%llu,\"hit_rate\":%.6f,"
             "\"latch_waits\":%llu,\"latch_acquires\":%llu,"
             "\"disk_reads\":%llu,\"quarantined_frames\":%llu,"
             "\"asb_candidate\":%llu}\n",
             kBenchJsonSchemaVersion,
             static_cast<unsigned long long>(w.clock),
             static_cast<unsigned long long>(w.requests),
             static_cast<unsigned long long>(w.hits), w.hit_rate,
             static_cast<unsigned long long>(w.latch_waits),
             static_cast<unsigned long long>(w.latch_acquires),
             static_cast<unsigned long long>(w.disk_reads),
             static_cast<unsigned long long>(w.quarantined_frames),
             static_cast<unsigned long long>(w.asb_candidate)) >= 0 &&
         ok;
  }
  for (const TelemetryMark& mark : marks) {
    ok = std::fprintf(file,
                      "{\"schema_version\":%d,\"kind\":\"mark\","
                      "\"clock\":%llu,\"label\":\"%s\"}\n",
                      kBenchJsonSchemaVersion,
                      static_cast<unsigned long long>(mark.clock),
                      mark.label.c_str()) >= 0 &&
         ok;
  }
  ok = std::fclose(file) == 0 && ok;
  return ok;
}

}  // namespace sdb::obs

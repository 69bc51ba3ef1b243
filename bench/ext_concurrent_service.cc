// Extension: the concurrent shared-buffer service. The paper evaluates its
// buffers single-client; a spatial database server runs many clients over
// one shared pool. This bench drives batches of browsing sessions through
// the sharded BufferService via the SessionExecutor and reports throughput
// (pages accessed per second), hit rate, and per-pin latency percentiles
// (p50/p95/p99 from the executor's fixed-bucket histogram) as the worker
// count (1..16) and shard count (1, 4, 16) grow. The service is read-only,
// so its shards run the optimistic protocol (version-stamped latch-free
// hits; a miss takes its shard latch); micro_policy_overhead's
// latch_overhead row compares it with the shard mutex a writable service
// takes.
//
// Accounting contracts verified on every cell: total logical page accesses
// are identical for every (workers, shards) configuration — concurrency
// must never change what the workload reads — and a repeated 1-worker run
// reproduces its hit count exactly at a fixed seed (the optimistic path's
// deferred policy events replay in arrival order, so a single-threaded run
// is deterministic). Rows are appended as JSON-Lines to
// BENCH_concurrent.json (override with SDB_BENCH_CONCURRENT; empty
// disables). Note that speedup numbers are only meaningful on a
// multi-core host; the invariants hold anywhere.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/asb_timeline.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "svc/buffer_service.h"
#include "svc/session_executor.h"
#include "workload/query_generator.h"
#include "workload/session_generator.h"

namespace {

using namespace sdb;

/// The buffer floor's frames per worker in every shard. It is the width of
/// the leaf batches the R-tree traversal used to pin at once; a traversal
/// now pins one page at a time, so the floor keeps that width only so that
/// cells stay comparable with earlier runs (EXPERIMENTS.md).
constexpr size_t kFloorFramesPerWorker = 8;

struct CellResult {
  size_t workers = 0;
  size_t shards = 0;
  double seconds = 0.0;
  uint64_t accesses = 0;
  uint64_t result_objects = 0;
  svc::ShardStats stats;
  uint64_t backpressure_waits = 0;
  svc::PinLatencyHistogram pin_latency;
  obs::MetricsSnapshot metrics;

  double PagesPerSecond() const {
    return seconds <= 0.0 ? 0.0
                          : static_cast<double>(accesses) / seconds;
  }
  double PinQuantileNs(double q) const {
    return obs::HistogramQuantile(
        std::span<const double>(svc::kPinLatencyBoundsNs),
        std::span<const uint64_t>(pin_latency.counts), q);
  }
};

CellResult RunCell(const sim::Scenario& scenario,
                   const std::vector<workload::QuerySet>& sessions,
                   size_t total_frames, size_t workers, size_t shards) {
  svc::BufferServiceConfig service_config;
  service_config.total_frames = total_frames;
  service_config.shard_count = shards;
  service_config.policy_spec = "ASB";
  // Collectors only count — attaching them must not (and does not) perturb
  // the grid's access/hit invariants.
  service_config.collect_metrics = true;
  // Fault soak via SDB_FAULT_PROFILE (disabled when unset). The grid's
  // cross-configuration invariants assume a *recoverable* profile
  // (transient/bitflip/torn): a bad-sector range makes traversals skip
  // subtrees, which legitimately changes the per-cell access counts.
  service_config.fault_profile = bench::BenchFaultProfile();
  svc::BufferService service(*scenario.disk, service_config);

  svc::SessionExecutorConfig executor_config;
  executor_config.workers = workers;
  executor_config.queue_capacity = std::max<size_t>(2 * workers, 4);
  executor_config.record_pin_latency = true;

  CellResult cell;
  cell.workers = workers;
  cell.shards = shards;
  const auto begin = std::chrono::steady_clock::now();
  {
    svc::SessionExecutor executor(scenario.disk.get(), &service,
                                  scenario.tree_meta, executor_config);
    for (const workload::QuerySet& session : sessions) {
      executor.Submit(session);
    }
    const std::vector<svc::SessionResult> results = executor.Finish();
    cell.backpressure_waits = executor.stats().backpressure_waits;
    cell.pin_latency = executor.pin_latency();
    for (const svc::SessionResult& result : results) {
      cell.accesses += result.page_accesses;
      cell.result_objects += result.result_objects;
    }
  }
  cell.seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - begin)
                     .count();
  cell.stats = service.AggregateStats();
  cell.metrics = service.MetricsSnapshot();
  if (cell.accesses != cell.stats.buffer.requests) {
    std::fprintf(stderr,
                 "FATAL: session accounting (%llu) != service requests "
                 "(%llu)\n",
                 static_cast<unsigned long long>(cell.accesses),
                 static_cast<unsigned long long>(cell.stats.buffer.requests));
    std::exit(1);
  }
  return cell;
}

std::string CellJson(const std::string& workload_name, size_t total_frames,
                     const CellResult& cell) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\":%d,\"bench\":\"concurrent_service\","
      "\"workload\":\"%s\",\"policy\":\"ASB\","
      "\"buffer_frames\":%zu,\"workers\":%zu,\"shards\":%zu,"
      "\"seconds\":%.6f,\"pages_per_sec\":%.1f,\"accesses\":%llu,"
      "\"hits\":%llu,\"hit_rate\":%.6f,\"disk_reads\":%llu,"
      "\"latch_waits\":%llu,\"latch_acquires\":%llu,"
      "\"optimistic_hits\":%llu,\"optimistic_retries\":%llu,"
      "\"version_conflicts\":%llu,\"pin_p50_ns\":%.0f,\"pin_p95_ns\":%.0f,"
      "\"pin_p99_ns\":%.0f,\"backpressure_waits\":%llu",
      obs::kBenchJsonSchemaVersion, workload_name.c_str(), total_frames,
      cell.workers, cell.shards, cell.seconds, cell.PagesPerSecond(),
      static_cast<unsigned long long>(cell.accesses),
      static_cast<unsigned long long>(cell.stats.buffer.hits),
      cell.stats.buffer.HitRate(),
      static_cast<unsigned long long>(cell.stats.io.reads),
      static_cast<unsigned long long>(cell.stats.latch_waits),
      static_cast<unsigned long long>(cell.stats.latch_acquires),
      static_cast<unsigned long long>(cell.stats.optimistic_hits),
      static_cast<unsigned long long>(cell.stats.optimistic_retries),
      static_cast<unsigned long long>(cell.stats.version_conflicts),
      cell.PinQuantileNs(0.50), cell.PinQuantileNs(0.95),
      cell.PinQuantileNs(0.99),
      static_cast<unsigned long long>(cell.backpressure_waits));
  std::string line(buf);
  if (!cell.metrics.empty()) {
    line += ",\"metrics\":";
    line += obs::MetricsJson(cell.metrics);
  }
  line += "}";
  return line;
}

/// A batch of sessions with disjoint seeds; `uniform` draws i.i.d. uniform
/// windows (the paper's U family — the acceptance workload), otherwise
/// Markov browsing sessions.
std::vector<workload::QuerySet> MakeSessions(const sim::Scenario& scenario,
                                             bool uniform, size_t count,
                                             size_t steps) {
  std::vector<workload::QuerySet> sessions;
  sessions.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (uniform) {
      workload::QuerySpec spec;
      spec.family = workload::QueryFamily::kUniform;
      spec.ex = 100;
      spec.count = steps;
      spec.seed = 7000 + i;
      sessions.push_back(
          workload::MakeQuerySet(spec, scenario.dataset, scenario.places));
    } else {
      workload::SessionParams params;
      params.steps = steps;
      params.seed = 7000 + i;
      sessions.push_back(
          workload::MakeSessionQuerySet(params, scenario.places));
    }
  }
  return sessions;
}

void RunGrid(const sim::Scenario& scenario, const std::string& workload_name,
             bool uniform, const std::string& json_path) {
  const size_t session_count = bench::EnvSizeT("SDB_BENCH_SESSIONS", 16);
  const size_t steps = bench::EnvSizeT("SDB_BENCH_SESSION_STEPS", 1000);
  const std::vector<workload::QuerySet> sessions =
      MakeSessions(scenario, uniform, session_count, steps);
  const std::vector<size_t> worker_counts{1, 2, 4, 8, 16};
  const std::vector<size_t> shard_counts{1, 4, 16};
  // One buffer size for the whole grid (cells stay comparable), floored at
  // kFloorFramesPerWorker frames per worker plus one in every shard.
  const size_t total_frames =
      std::max(scenario.BufferFrames(0.047),
               shard_counts.back() *
                   (worker_counts.back() * kFloorFramesPerWorker + 1));

  sim::Table table({"workers", "shards", "pages/s", "hit rate",
                    "latch waits", "p50 ns", "p99 ns", "speedup vs 1w/1s"});
  bool json_ok = true;
  uint64_t expected_accesses = 0;
  double base_pages_per_sec = 0.0;
  for (const size_t shards : shard_counts) {
    for (const size_t workers : worker_counts) {
      const CellResult cell =
          RunCell(scenario, sessions, total_frames, workers, shards);
      // Hard contract: the logical workload is configuration-invariant
      // (across worker counts and shard counts).
      if (expected_accesses == 0) {
        expected_accesses = cell.accesses;
      } else if (cell.accesses != expected_accesses) {
        std::fprintf(stderr,
                     "FATAL: %zuw/%zus accessed %llu pages, expected %llu\n",
                     workers, shards,
                     static_cast<unsigned long long>(cell.accesses),
                     static_cast<unsigned long long>(expected_accesses));
        std::exit(1);
      }
      if (workers == 1 && shards == 1) {
        // Reproducibility: a second serial run must reproduce the hit
        // count bit-for-bit at the fixed seed (deferred events replay in
        // arrival order).
        const CellResult again =
            RunCell(scenario, sessions, total_frames, workers, shards);
        if (again.stats.buffer.hits != cell.stats.buffer.hits) {
          std::fprintf(stderr,
                       "FATAL: serial runs hit %llu/%llu pages\n",
                       static_cast<unsigned long long>(cell.stats.buffer.hits),
                       static_cast<unsigned long long>(
                           again.stats.buffer.hits));
          std::exit(1);
        }
        base_pages_per_sec = cell.PagesPerSecond();
      }
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    base_pages_per_sec <= 0.0
                        ? 0.0
                        : cell.PagesPerSecond() / base_pages_per_sec);
      table.AddRow({std::to_string(workers), std::to_string(shards),
                    sim::FormatDouble(cell.PagesPerSecond(), 0),
                    sim::FormatDouble(cell.stats.buffer.HitRate(), 4),
                    std::to_string(cell.stats.latch_waits),
                    sim::FormatDouble(cell.PinQuantileNs(0.50), 0),
                    sim::FormatDouble(cell.PinQuantileNs(0.99), 0),
                    speedup});
      if (!json_path.empty()) {
        json_ok = sim::AppendJsonLine(json_path,
                                      CellJson(workload_name, total_frames,
                                               cell)) &&
                  json_ok;
      }
    }
  }
  char title[160];
  std::snprintf(title, sizeof(title),
                "Extension — concurrent service, %s, %zu sessions x %zu "
                "queries, ASB, buffer %zu frames",
                workload_name.c_str(), session_count, steps, total_frames);
  table.Print(title);
  if (!json_ok) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  }
}

/// Telemetry phase: one persistent 16-worker x 4-shard service runs a
/// uniform workload, shifts mid-run to browsing sessions, and a poller
/// thread samples the merged service metrics into an obs::TelemetryHub on
/// a logical clock (buffer requests). Products: BENCH_timeseries.json
/// (per-window hit rate, latch contention, disk reads, quarantined frames,
/// ASB candidate size), a convergence-lag report of the candidate series
/// around the shift (obs::AnalyzeAsbTimeline), and — with SDB_BENCH_TRACE
/// set — a Perfetto span trace where sampled queries show their
/// session -> query -> shard-fetch causality.
void RunAdaptationTimeline(const sim::Scenario& scenario) {
  constexpr size_t kWorkers = 16;
  constexpr size_t kShards = 4;
  const size_t session_count = bench::EnvSizeT("SDB_BENCH_SESSIONS", 16);
  const size_t steps = bench::EnvSizeT("SDB_BENCH_SESSION_STEPS", 1000);
  const size_t total_frames =
      std::max(scenario.BufferFrames(0.047),
               kShards * (kWorkers * kFloorFramesPerWorker + 1));

  svc::BufferServiceConfig service_config;
  service_config.total_frames = total_frames;
  service_config.shard_count = kShards;
  service_config.policy_spec = "ASB";
  service_config.collect_metrics = true;
  service_config.fault_profile = bench::BenchFaultProfile();
  svc::BufferService service(*scenario.disk, service_config);

  obs::TracerOptions tracer_options;
  tracer_options.sample_every =
      bench::EnvSizeT("SDB_BENCH_TRACE_SAMPLE", 64);
  obs::Tracer tracer(tracer_options);

  obs::TelemetryHubOptions hub_options;
  hub_options.window_clock_interval =
      bench::EnvSizeT("SDB_BENCH_WINDOW", 2048);
  obs::TelemetryHub hub(hub_options);

  // The poller is the only consumer of the stats surface while the
  // workload runs — exactly the live-dashboard shape the hub is for.
  std::atomic<bool> stop{false};
  const auto clock_now = [&service] {
    return service.AggregateStats().buffer.requests;
  };
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t clock = clock_now();
      if (hub.WantsSample(clock)) {
        hub.Sample(clock, service.MetricsSnapshot(),
                   service.shared_candidate());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const auto run_phase = [&](bool uniform, size_t index_offset) {
    svc::SessionExecutorConfig executor_config;
    executor_config.workers = kWorkers;
    executor_config.queue_capacity = 2 * kWorkers;
    executor_config.tracer = &tracer;
    executor_config.session_index_offset = index_offset;
    svc::SessionExecutor executor(scenario.disk.get(), &service,
                                  scenario.tree_meta, executor_config);
    for (const workload::QuerySet& session :
         MakeSessions(scenario, uniform, session_count, steps)) {
      executor.Submit(session);
    }
    executor.Finish();
  };
  hub.Sample(0, service.MetricsSnapshot(), service.shared_candidate());
  run_phase(/*uniform=*/true, 0);
  const uint64_t shift_clock = clock_now();
  hub.Mark(shift_clock, "workload_shift:uniform->browsing");
  run_phase(/*uniform=*/false, session_count);
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  // Close the final window so the tail of phase 2 is in the series.
  hub.Sample(clock_now(), service.MetricsSnapshot(),
             service.shared_candidate());

  const std::vector<obs::TelemetryWindow> windows = hub.Windows();
  const std::string timeseries_path =
      bench::EnvOr("SDB_BENCH_TIMESERIES", "BENCH_timeseries.json");
  if (!timeseries_path.empty() &&
      !obs::WriteTimeSeriesJson(timeseries_path, windows, hub.Marks())) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 timeseries_path.c_str());
  }

  // Convergence lag of the ASB candidate series around the shift.
  const obs::AsbTimelineReport report = obs::AnalyzeAsbTimeline(
      obs::AsbPointsFromWindows(windows), {shift_clock}, /*tolerance=*/2);
  sim::Table table({"phase start", "settled candidate", "converged at",
                    "lag (accesses)"});
  for (const obs::AsbPhase& phase : report.phases) {
    table.AddRow({std::to_string(phase.shift_clock),
                  std::to_string(phase.settled_candidate),
                  phase.converged ? std::to_string(phase.converged_clock)
                                  : std::string("never"),
                  phase.converged ? std::to_string(phase.lag)
                                  : std::string("-")});
  }
  char title[160];
  std::snprintf(title, sizeof(title),
                "Extension — ASB adaptation timeline, %zu windows, shift "
                "at access %llu, %zuw/%zus, buffer %zu frames",
                windows.size(),
                static_cast<unsigned long long>(shift_clock), kWorkers,
                kShards, total_frames);
  table.Print(title);

  // Span accounting: every sampled query trace should show the full
  // session -> query -> shard-fetch chain at least once. The service is
  // read-only, so no write-path span occurs.
  const std::vector<obs::Event> spans = tracer.Spans();
  uint64_t sessions = 0, queries = 0, shard_fetches = 0;
  for (const obs::Event& span : spans) {
    switch (obs::SpanKindOf(span)) {
      case obs::SpanKind::kSession: ++sessions; break;
      case obs::SpanKind::kQuery: ++queries; break;
      case obs::SpanKind::kShardFetch: ++shard_fetches; break;
      case obs::SpanKind::kWalAppend:
      case obs::SpanKind::kCheckpoint:
      case obs::SpanKind::kRecovery:
      case obs::SpanKind::kFlush: break;
    }
  }
  std::printf(
      "spans: %llu session, %llu query (1-in-%llu sampled), %llu "
      "shard-fetch (%llu emitted, %llu dropped)\n",
      static_cast<unsigned long long>(sessions),
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(tracer.sample_every()),
      static_cast<unsigned long long>(shard_fetches),
      static_cast<unsigned long long>(tracer.total()),
      static_cast<unsigned long long>(tracer.dropped()));
  const std::string trace_path = bench::BenchTracePath();
  if (!trace_path.empty() && !tracer.WriteChromeTrace(trace_path)) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 trace_path.c_str());
  }
  // Live stats surface smoke: the dump must render (consumed by db_stats;
  // printed here once so the bench log shows the service's final shape).
  const std::string prom = service.StatsText();
  std::printf("prometheus dump: %zu bytes, %zu series\n", prom.size(),
              static_cast<size_t>(
                  std::count(prom.begin(), prom.end(), '\n')));
}

}  // namespace

int main() {
  const sim::Scenario scenario =
      bench::BuildBenchDatabase(sim::DatabaseKind::kUsLike);
  const std::string json_path =
      bench::EnvOr("SDB_BENCH_CONCURRENT", "BENCH_concurrent.json");
  RunGrid(scenario, "uniform U-W-100", /*uniform=*/true, json_path);
  RunGrid(scenario, "browsing sessions", /*uniform=*/false, json_path);
  RunAdaptationTimeline(scenario);
  return 0;
}

// Buffer observer: runs a workload that drifts from hot-spot traffic to
// uniform scans with an observability collector attached, streams the
// windowed hit ratio and ASB adaptation activity while the replay
// progresses, and finishes with the full metrics snapshot — the quickstart
// for the obs subsystem.
//
//   ./examples/buffer_observer [metrics.jsonl]
//
// With a path argument the final snapshot is also written as JSON-Lines
// (one {"label":...,"metric":...,"value":...} record per metric).

#include <cstdio>
#include <string>
#include <vector>

#include "obs/collector.h"
#include "obs/export.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

int main(int argc, char** argv) {
  using namespace sdb;

  sim::ScenarioOptions options;
  options.kind = sim::DatabaseKind::kUsLike;
  options.build = sim::BuildMode::kBulkLoad;
  options.scale = 0.25;
  const sim::Scenario scenario = sim::BuildScenario(options);

  const workload::QuerySet hot = sim::StandardQuerySet(
      scenario, workload::QueryFamily::kIntensified, 33);
  const workload::QuerySet scan =
      sim::StandardQuerySet(scenario, workload::QueryFamily::kUniform, 33);
  const workload::QuerySet mixed = workload::ConcatQuerySets({hot, scan});

  obs::CollectorOptions collect;
  collect.event_capacity = obs::EventRing::kUnbounded;
  collect.window = 256;
  obs::Collector collector(collect);
  sim::RunOptions run;
  run.buffer_frames = scenario.BufferFrames(0.047);
  run.collector = &collector;
  const sim::RunResult result = sim::RunQuerySet(
      scenario.disk.get(), scenario.tree_meta, "ASB", mixed, run);

  std::printf("workload: %s (%zu queries), ASB over %zu frames\n\n",
              mixed.name.c_str(), mixed.queries.size(), run.buffer_frames);

  // Replay the event stream as a per-phase activity report: the candidate
  // trace tells us where the buffer was at every query, the adaptation
  // events how hard it was steering.
  const std::vector<size_t> trace =
      sim::AsbCandidateTrace(collector.events(), mixed.queries.size());
  const size_t phase_end = hot.queries.size();
  size_t down = 0, up = 0;
  collector.events().ForEach([&](const obs::Event& event) {
    if (event.kind != obs::EventKind::kAsbAdapt) return;
    if (event.delta < 0) ++down;
    if (event.delta > 0) ++up;
  });
  std::printf("adaptation: %zu shrink events, %zu grow events\n", down, up);
  if (!trace.empty()) {
    std::printf("candidate set: start %zu, after hot phase %zu, end %zu\n",
                trace.front(), trace[phase_end - 1], trace.back());
  }
  std::printf("hit ratio: %.1f%% overall (%llu of %llu requests)\n\n",
              100.0 * result.hit_rate(),
              static_cast<unsigned long long>(result.buffer.hits),
              static_cast<unsigned long long>(result.buffer.requests));

  // The full snapshot: everything the buffer, policy and device recorded.
  std::printf("metrics snapshot:\n");
  for (const obs::MetricValue& metric : result.metrics) {
    switch (metric.kind) {
      case obs::MetricKind::kCounter:
        std::printf("  %-32s %llu\n", metric.name.c_str(),
                    static_cast<unsigned long long>(metric.count));
        break;
      case obs::MetricKind::kGauge:
        std::printf("  %-32s %.3f\n", metric.name.c_str(), metric.value);
        break;
      case obs::MetricKind::kHistogram:
        std::printf("  %-32s n=%llu mean=%.2f\n", metric.name.c_str(),
                    static_cast<unsigned long long>(metric.observations),
                    metric.observations == 0
                        ? 0.0
                        : metric.value /
                              static_cast<double>(metric.observations));
        break;
    }
  }

  if (argc > 1) {
    const std::string path = argv[1];
    if (obs::WriteMetricsJsonLines(path, "buffer_observer", result.metrics)) {
      std::printf("\nmetrics written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "\ncould not write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}

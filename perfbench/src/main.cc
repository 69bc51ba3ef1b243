// perfbench: the repository's end-to-end benchmark. One workload per run:
//
//   perfbench --workload replay|sessions|churn --seed N --seconds S --trace 0|1
//
// Prints a human-readable report, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics
// are the end-to-end metrics every workload has, with --trace 1 the
// per-layer metrics plus the end-to-end metrics only some workloads have
// (prefixed "e2e."). Exits 1 when any correctness check failed. See
// perfbench/README.md for what each workload and metric means.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "common.h"
#include "geom/kernels/kernels.h"
#include "workloads.h"

namespace perfbench {
namespace {


std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

/// Prints one table row per spec; a metric the run did not set is "n/a".
template <size_t N>
void PrintTable(const Report& report, const MetricSpec (&specs)[N]) {
  for (const MetricSpec& spec : specs) {
    const auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end()) {
      std::printf("  %-34s %16s %-8s\n", spec.name, "n/a", spec.unit);
    } else {
      std::printf("  %-34s %16.6g %-8s %s\n", spec.name, it->second.value,
                  spec.unit, it->second.note.c_str());
    }
  }
}

/// Appends `"prefix+name": {"value": v, "unit": u}` for every spec (0 for a
/// metric the run did not set).
template <size_t N>
void AppendJson(const Report& report, const MetricSpec (&specs)[N],
                const std::string& prefix, std::string* out) {
  for (const MetricSpec& spec : specs) {
    const auto it = report.metrics.find(spec.name);
    const double value = it == report.metrics.end() ? 0 : it->second.value;
    if (!out->empty()) *out += ", ";
    *out += "\"" + prefix + spec.name + "\": {\"value\": " +
            JsonNumber(value) + ", \"unit\": \"" + spec.unit + "\"}";
  }
}

int Main(int argc, char** argv) {
  const std::optional<Options> options = ParseOptions(argc, argv);
  if (!options.has_value()) return 2;
  std::unique_ptr<Workload> workload;
  if (options->workload == "replay") {
    workload = MakeReplay();
  } else if (options->workload == "sessions") {
    workload = MakeSessions();
  } else if (options->workload == "churn") {
    workload = MakeChurn();
  } else {
    std::fprintf(stderr, "unknown workload %s (replay|sessions|churn)\n",
                 options->workload.c_str());
    return 2;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options->workload.c_str(),
              static_cast<unsigned long long>(options->seed),
              options->seconds, options->trace ? 1 : 0);
  std::printf("build type %s, geometry kernel tier %s, %u hardware threads\n",
              PERFBENCH_BUILD_TYPE,
              std::string(sdb::geom::kernels::LevelName(
                              sdb::geom::kernels::ActiveLevel()))
                  .c_str(),
              std::thread::hardware_concurrency());

  // Set-up: map synthesis, R*-tree insert build and query generation (from
  // the seed alone).
  host_speed::Prepare();
  const Clock::time_point start = Clock::now();
  const sim::Scenario scenario = BuildScenario();
  const Clock::time_point built = Clock::now();
  workload->Generate(scenario, options->seed);
  const Clock::time_point generated = Clock::now();
  std::printf("database %s: %llu objects, %u tree pages, height %u\n",
              scenario.name.c_str(),
              static_cast<unsigned long long>(
                  scenario.tree_stats.object_count),
              scenario.tree_stats.total_pages(), scenario.tree_stats.height);

  Report report;
  workload->Run(*options, scenario, &report);

  // Set-up at reference speed, by the median host scale of the untraced
  // rounds that follow it. Slices taken right before and after the set-up
  // find the kernel's data still cached, and tracked the host worse than
  // the raw time did.
  const double setup_scale = report.metrics.at("trace.host_scale").value;
  report.Set("setup_s",
             std::chrono::duration<double>(generated - start).count() *
                 setup_scale,
             "at reference speed (host scale " +
                 std::to_string(setup_scale) + ")");
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("error_rate",
             report.attempted == 0
                 ? 1.0
                 : static_cast<double>(report.failed) / report.attempted,
             std::to_string(report.failed) + " failed of " +
                 std::to_string(report.attempted) + " checked operations");
  report.Set("workload.build_s",
             std::chrono::duration<double>(built - start).count() *
                 setup_scale);
  report.Set("workload.querygen_s",
             std::chrono::duration<double>(generated - built).count() *
                 setup_scale);

  std::printf("\nend-to-end\n");
  PrintTable(report, kCommonEndToEnd);
  PrintTable(report, kOtherEndToEnd);
  if (options->trace) {
    std::printf("\nper-layer (traced phase)\n");
    PrintTable(report, kPerLayer);
  }
  for (const std::string& why : report.failures) {
    std::printf("FAILED: %s\n", why.c_str());
  }

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string metrics;
  if (!options->trace) {
    AppendJson(report, kCommonEndToEnd, "", &metrics);
  } else {
    AppendJson(report, kPerLayer, "", &metrics);
    AppendJson(report, kOtherEndToEnd, "e2e.", &metrics);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

#ifndef SPATIALBUFFER_SIM_SWEEP_H_
#define SPATIALBUFFER_SIM_SWEEP_H_

#include <cstddef>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/scenario.h"
#include "workload/query_generator.h"

namespace sdb::sim {

/// One query-set coordinate of a sweep: a family plus the paper's
/// reciprocal window extent (0 = point queries).
struct SweepSet {
  workload::QueryFamily family;
  int ex = 0;
};

/// A full experiment grid: every (buffer fraction × query set × policy)
/// cell, plus one baseline run per (fraction, set) pair that all policy
/// columns of that table row share — the repeated LRU re-runs of the old
/// per-cell loop are gone in sequential mode too.
struct SweepSpec {
  std::vector<double> fractions;
  std::vector<SweepSet> sets;
  std::vector<std::string> policies;  ///< table columns
  std::string baseline = "LRU";       ///< gain reference, run once per row
  /// Worker threads; 0 = read SDB_BENCH_THREADS (default 1). The results
  /// are identical for every thread count.
  unsigned threads = 0;
  /// Attach a private obs::Collector to every run (one per replay — the
  /// runner stays lock-free) and merge the snapshots into SweepResult
  /// deterministically after the join. Per-run snapshots land in each
  /// RunResult::metrics; events are not collected (capacity 0).
  bool collect_metrics = false;
  /// Forwarded to every run's RunOptions: when the profile is enabled(),
  /// each run reads through its own FaultInjectingDevice and its JSON row
  /// gains the fault-accounting fields. Disabled (the default) leaves the
  /// sweep and its JSON byte-identical to a build without the fault layer.
  storage::FaultProfile fault_profile;
};

/// One measured grid cell.
struct SweepCell {
  size_t fraction_index = 0;
  size_t set_index = 0;
  size_t policy_index = 0;
  RunResult result;
  double gain = 0.0;  ///< versus the (fraction, set) baseline
};

/// Wall-clock span of one replay task, for the Chrome-trace export of the
/// runner's worker timelines. Timestamps are microseconds from the sweep
/// start. The worker assignment (and hence the timing layout) depends on
/// scheduling; the measured results never do.
struct TaskTiming {
  std::string name;     ///< "policy/query_set/frames"
  uint32_t worker = 0;  ///< worker-thread index (0 when sequential)
  uint64_t begin_us = 0;
  uint64_t end_us = 0;
};

/// All runs of a sweep, in deterministic (fraction, set, policy) order.
struct SweepResult {
  std::vector<RunResult> baselines;  ///< fraction-major × set
  std::vector<SweepCell> cells;      ///< fraction-major × set × policy
  size_t set_count = 0;
  size_t policy_count = 0;
  /// Merged metrics of every run (baselines first, then cells, in index
  /// order — the merge is deterministic for any thread count). Empty unless
  /// SweepSpec::collect_metrics.
  obs::MetricsSnapshot metrics;
  /// One entry per task, in task order.
  std::vector<TaskTiming> timings;

  const RunResult& baseline(size_t fraction_index, size_t set_index) const {
    return baselines[fraction_index * set_count + set_index];
  }
  const SweepCell& cell(size_t fraction_index, size_t set_index,
                        size_t policy_index) const {
    return cells[(fraction_index * set_count + set_index) * policy_count +
                 policy_index];
  }
};

/// Worker-thread count from the SDB_BENCH_THREADS environment variable
/// (minimum 1; unset/invalid = 1).
unsigned BenchThreadsFromEnv();

/// Runs the whole grid. Every run replays through its own BufferManager
/// over its own ReadOnlyDiskView of the scenario's disk, so runs are fully
/// independent and execute concurrently on `spec.threads` workers. Query
/// sets are generated once, up front, on the calling thread.
SweepResult RunSweep(const Scenario& scenario, const SweepSpec& spec);

/// Prints one gain table per buffer fraction (rows = query sets, columns =
/// policies, cells = gain versus the baseline) — the paper's reporting
/// format, byte-identical for every thread count.
void PrintSweepTables(const Scenario& scenario, const SweepSpec& spec,
                      const SweepResult& result, const std::string& title);

/// Appends one JSON-Lines record per measured run (baselines included) to
/// `path` — the machine-readable counterpart of the printed tables.
/// Returns false on I/O failure.
bool AppendSweepJson(const std::string& path, const std::string& title,
                     const Scenario& scenario, const SweepSpec& spec,
                     const SweepResult& result);

/// Writes the sweep's task timings as a Chrome trace_event file (one track
/// per worker) loadable in chrome://tracing / ui.perfetto.dev. Returns false
/// on I/O failure (or if the sweep recorded no timings).
bool WriteSweepTrace(const std::string& path, const SweepResult& result);

/// JSON sink of the figure benches: "BENCH_sweep.json", overridable via
/// SDB_BENCH_JSON (set to an empty string to disable; callers skip the
/// empty path).
std::string BenchJsonPath();

}  // namespace sdb::sim

#endif  // SPATIALBUFFER_SIM_SWEEP_H_

#include "sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "obs/collector.h"
#include "obs/export.h"
#include "sim/report.h"

namespace sdb::sim {

unsigned BenchThreadsFromEnv() {
  const char* env = std::getenv("SDB_BENCH_THREADS");
  if (env == nullptr || env[0] == '\0') return 1;
  const long value = std::strtol(env, nullptr, 10);
  return value < 1 ? 1u : static_cast<unsigned>(value);
}

std::string BenchJsonPath() {
  const char* env = std::getenv("SDB_BENCH_JSON");
  return env == nullptr ? std::string("BENCH_sweep.json") : std::string(env);
}

SweepResult RunSweep(const Scenario& scenario, const SweepSpec& spec) {
  SDB_CHECK_MSG(!spec.fractions.empty() && !spec.sets.empty(),
                "sweep needs at least one fraction and one query set");
  const size_t set_count = spec.sets.size();
  const size_t policy_count = spec.policies.size();

  // Query sets are generated once, on this thread; workers only read them.
  std::vector<workload::QuerySet> query_sets;
  query_sets.reserve(set_count);
  for (const SweepSet& set : spec.sets) {
    query_sets.push_back(StandardQuerySet(scenario, set.family, set.ex));
  }

  SweepResult result;
  result.set_count = set_count;
  result.policy_count = policy_count;
  result.baselines.resize(spec.fractions.size() * set_count);
  result.cells.resize(spec.fractions.size() * set_count * policy_count);

  // Flatten the grid into independent tasks, each with a preassigned result
  // slot: one baseline run per (fraction, set) — shared by all policy
  // columns — plus one run per policy cell. `policy == policy_count` marks
  // the baseline task.
  struct Task {
    size_t fraction;
    size_t set;
    size_t policy;
  };
  std::vector<Task> tasks;
  tasks.reserve(result.baselines.size() + result.cells.size());
  for (size_t fi = 0; fi < spec.fractions.size(); ++fi) {
    for (size_t si = 0; si < set_count; ++si) {
      tasks.push_back({fi, si, policy_count});
      for (size_t pi = 0; pi < policy_count; ++pi) {
        tasks.push_back({fi, si, pi});
      }
    }
  }

  result.timings.resize(tasks.size());
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto micros_since_start = [sweep_start] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - sweep_start)
            .count());
  };

  const auto run_task = [&](const Task& task, size_t task_index,
                            uint32_t worker) {
    RunOptions options;
    options.buffer_frames =
        scenario.BufferFrames(spec.fractions[task.fraction]);
    options.fault_profile = spec.fault_profile;
    // One private collector per replay keeps the runner lock-free; the
    // snapshot travels to this thread inside the task's result slot and the
    // slots are merged in index order after the join.
    std::optional<obs::Collector> collector;
    if (spec.collect_metrics) {
      obs::CollectorOptions collector_options;
      collector_options.event_capacity = 0;
      collector.emplace(collector_options);
      options.collector = &*collector;
    }
    const bool is_baseline = task.policy == policy_count;
    const std::string& policy =
        is_baseline ? spec.baseline : spec.policies[task.policy];
    TaskTiming& timing = result.timings[task_index];
    timing.worker = worker;
    timing.begin_us = micros_since_start();
    RunResult run = RunQuerySet(*scenario.disk, scenario.tree_meta, policy,
                                query_sets[task.set], options);
    timing.end_us = micros_since_start();
    timing.name = run.policy + "/" + run.query_set + "/" +
                  std::to_string(run.buffer_frames);
    const size_t row = task.fraction * set_count + task.set;
    if (is_baseline) {
      result.baselines[row] = std::move(run);
    } else {
      SweepCell& cell = result.cells[row * policy_count + task.policy];
      cell.fraction_index = task.fraction;
      cell.set_index = task.set;
      cell.policy_index = task.policy;
      cell.result = std::move(run);
    }
  };

  const unsigned threads =
      spec.threads == 0 ? BenchThreadsFromEnv() : spec.threads;
  if (threads <= 1 || tasks.size() <= 1) {
    for (size_t i = 0; i < tasks.size(); ++i) run_task(tasks[i], i, 0);
  } else {
    // Work-stealing by atomic cursor: each worker claims the next
    // unstarted task. Every task writes only its preassigned slot, so no
    // further synchronization is needed; joining (jthread destructor)
    // publishes the results to this thread.
    std::atomic<size_t> next{0};
    const unsigned workers =
        static_cast<unsigned>(std::min<size_t>(threads, tasks.size()));
    {
      std::vector<std::jthread> pool;
      pool.reserve(workers);
      for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
          for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
               i < tasks.size();
               i = next.fetch_add(1, std::memory_order_relaxed)) {
            run_task(tasks[i], i, w);
          }
        });
      }
    }
  }

  for (SweepCell& cell : result.cells) {
    cell.gain =
        GainVersus(result.baseline(cell.fraction_index, cell.set_index),
                   cell.result);
  }
  if (spec.collect_metrics) {
    // Deterministic merge: baselines then cells, in index order. The merge
    // rules are order-insensitive anyway (see MetricsRegistry::Merge), so
    // the merged snapshot is identical for every thread count.
    obs::MetricsRegistry merged;
    for (const RunResult& run : result.baselines) merged.Merge(run.metrics);
    for (const SweepCell& cell : result.cells) {
      merged.Merge(cell.result.metrics);
    }
    result.metrics = merged.Snapshot();
  }
  return result;
}

bool WriteSweepTrace(const std::string& path, const SweepResult& result) {
  if (path.empty() || result.timings.empty()) return false;
  obs::ChromeTraceWriter writer;
  uint32_t max_worker = 0;
  for (const TaskTiming& timing : result.timings) {
    max_worker = std::max(max_worker, timing.worker);
    writer.AddCompleteEvent(timing.name, timing.worker, timing.begin_us,
                            timing.end_us - timing.begin_us);
  }
  for (uint32_t w = 0; w <= max_worker; ++w) {
    writer.SetThreadName(w, "worker " + std::to_string(w));
  }
  return writer.Write(path);
}

void PrintSweepTables(const Scenario& scenario, const SweepSpec& spec,
                      const SweepResult& result, const std::string& title) {
  for (size_t fi = 0; fi < spec.fractions.size(); ++fi) {
    std::vector<std::string> header{"query set"};
    for (const std::string& policy : spec.policies) header.push_back(policy);
    Table table(header);
    for (size_t si = 0; si < spec.sets.size(); ++si) {
      std::vector<std::string> row{result.baseline(fi, si).query_set};
      for (size_t pi = 0; pi < spec.policies.size(); ++pi) {
        row.push_back(FormatGain(result.cell(fi, si, pi).gain));
      }
      table.AddRow(std::move(row));
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s — %s, buffer %.1f%% (%zu frames), gain vs %s",
                  title.c_str(), scenario.name.c_str(),
                  spec.fractions[fi] * 100.0,
                  scenario.BufferFrames(spec.fractions[fi]),
                  spec.baseline.c_str());
    table.Print(buf);
  }
}

namespace {

std::string RunJson(const std::string& title, const std::string& database,
                    double fraction, const RunResult& run, double gain,
                    bool is_baseline) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\":%d,"
      "\"bench\":\"%s\",\"database\":\"%s\",\"fraction\":%g,"
      "\"buffer_frames\":%zu,\"query_set\":\"%s\",\"policy\":\"%s\","
      "\"baseline\":%s,\"disk_reads\":%llu,\"sequential_reads\":%llu,"
      "\"random_reads\":%llu,"
      "\"buffer_requests\":%llu,\"buffer_hits\":%llu,\"gain\":%.6f",
      obs::kBenchJsonSchemaVersion,
      JsonEscape(title).c_str(), JsonEscape(database).c_str(), fraction,
      run.buffer_frames, JsonEscape(run.query_set).c_str(),
      JsonEscape(run.policy).c_str(), is_baseline ? "true" : "false",
      static_cast<unsigned long long>(run.disk_reads),
      static_cast<unsigned long long>(run.sequential_reads),
      static_cast<unsigned long long>(run.io.random_reads()),
      static_cast<unsigned long long>(run.buffer.requests),
      static_cast<unsigned long long>(run.buffer.hits), gain);
  std::string line(buf);
  if (run.fault_injection) {
    char fault_buf[448];
    std::snprintf(
        fault_buf, sizeof(fault_buf),
        ",\"faults_injected\":%llu,\"io_read_retries\":%llu,"
        "\"io_checksum_mismatches\":%llu,\"io_recovered_reads\":%llu,"
        "\"io_permanent_failures\":%llu,\"io_quarantined_frames\":%llu,"
        "\"io_errors\":%llu",
        static_cast<unsigned long long>(run.faults_injected),
        static_cast<unsigned long long>(run.buffer.io_read_retries),
        static_cast<unsigned long long>(run.buffer.io_checksum_mismatches),
        static_cast<unsigned long long>(run.buffer.io_recovered_reads),
        static_cast<unsigned long long>(run.buffer.io_permanent_failures),
        static_cast<unsigned long long>(run.buffer.io_quarantined_frames),
        static_cast<unsigned long long>(run.io_errors));
    line += fault_buf;
  }
  if (!run.metrics.empty()) {
    // Per-run registry snapshot, embedded so each JSONL row is
    // self-contained for downstream analysis.
    line += ",\"metrics\":";
    line += obs::MetricsJson(run.metrics);
  }
  line += "}";
  return line;
}

}  // namespace

bool AppendSweepJson(const std::string& path, const std::string& title,
                     const Scenario& scenario, const SweepSpec& spec,
                     const SweepResult& result) {
  if (path.empty()) return true;
  bool ok = true;
  for (size_t fi = 0; fi < spec.fractions.size(); ++fi) {
    for (size_t si = 0; si < spec.sets.size(); ++si) {
      ok = AppendJsonLine(path,
                          RunJson(title, scenario.name, spec.fractions[fi],
                                  result.baseline(fi, si), 0.0,
                                  /*is_baseline=*/true)) &&
           ok;
      for (size_t pi = 0; pi < spec.policies.size(); ++pi) {
        const SweepCell& cell = result.cell(fi, si, pi);
        ok = AppendJsonLine(path,
                            RunJson(title, scenario.name, spec.fractions[fi],
                                    cell.result, cell.gain,
                                    /*is_baseline=*/false)) &&
             ok;
      }
    }
  }
  return ok;
}

}  // namespace sdb::sim

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/scenario.h"
#include "sim/sweep.h"

namespace sdb::sim {
namespace {

/// One small shared scenario for all sweep tests (bulk-built for speed).
class SweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioOptions options;
    options.kind = DatabaseKind::kUsLike;
    options.build = BuildMode::kBulkLoad;
    options.scale = 0.05;  // 10k objects
    scenario_ = new Scenario(BuildScenario(options));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static SweepSpec Spec(unsigned threads) {
    using F = workload::QueryFamily;
    SweepSpec spec;
    spec.fractions = {0.006, 0.024};
    spec.sets = {{F::kUniform, 0}, {F::kUniform, 100}, {F::kSimilar, 33}};
    spec.policies = {"A", "SLRU:A:0.25", "ASB"};
    spec.threads = threads;
    return spec;
  }

  static Scenario* scenario_;
};

Scenario* SweepTest::scenario_ = nullptr;

TEST_F(SweepTest, GridShapeAndSharedBaselines) {
  const SweepSpec spec = Spec(1);
  const SweepResult result = RunSweep(*scenario_, spec);
  ASSERT_EQ(result.baselines.size(), spec.fractions.size() * spec.sets.size());
  ASSERT_EQ(result.cells.size(),
            result.baselines.size() * spec.policies.size());
  for (size_t fi = 0; fi < spec.fractions.size(); ++fi) {
    for (size_t si = 0; si < spec.sets.size(); ++si) {
      const RunResult& baseline = result.baseline(fi, si);
      EXPECT_EQ(baseline.policy, spec.baseline);
      EXPECT_GT(baseline.disk_reads, 0u);
      for (size_t pi = 0; pi < spec.policies.size(); ++pi) {
        const SweepCell& cell = result.cell(fi, si, pi);
        EXPECT_EQ(cell.fraction_index, fi);
        EXPECT_EQ(cell.set_index, si);
        EXPECT_EQ(cell.policy_index, pi);
        EXPECT_FALSE(cell.result.policy.empty());
        EXPECT_EQ(cell.result.result_objects, baseline.result_objects)
            << "policies must not change query results";
      }
    }
  }
}

TEST_F(SweepTest, ParallelSweepMatchesSequentialExactly) {
  const SweepResult sequential = RunSweep(*scenario_, Spec(1));
  const SweepResult parallel = RunSweep(*scenario_, Spec(4));
  ASSERT_EQ(parallel.cells.size(), sequential.cells.size());
  for (size_t i = 0; i < sequential.baselines.size(); ++i) {
    EXPECT_EQ(parallel.baselines[i].disk_reads,
              sequential.baselines[i].disk_reads);
    EXPECT_EQ(parallel.baselines[i].result_objects,
              sequential.baselines[i].result_objects);
  }
  for (size_t i = 0; i < sequential.cells.size(); ++i) {
    EXPECT_EQ(parallel.cells[i].result.disk_reads,
              sequential.cells[i].result.disk_reads);
    EXPECT_EQ(parallel.cells[i].result.sequential_reads,
              sequential.cells[i].result.sequential_reads);
    EXPECT_EQ(parallel.cells[i].result.result_objects,
              sequential.cells[i].result.result_objects);
    EXPECT_DOUBLE_EQ(parallel.cells[i].gain, sequential.cells[i].gain);
  }
}

TEST_F(SweepTest, PrintedTablesAreByteIdenticalAcrossThreadCounts) {
  const auto render = [&](unsigned threads) {
    const SweepSpec spec = Spec(threads);
    const SweepResult result = RunSweep(*scenario_, spec);
    ::testing::internal::CaptureStdout();
    PrintSweepTables(*scenario_, spec, result, "sweep-test");
    return ::testing::internal::GetCapturedStdout();
  };
  const std::string sequential = render(1);
  const std::string parallel = render(4);
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(parallel, sequential);
}

TEST_F(SweepTest, MergedMetricsAreIdenticalAcrossThreadCounts) {
  // The per-task registries are merged in task-index order after the join,
  // so the merged snapshot must not depend on the worker-thread count.
  const auto run = [&](unsigned threads) {
    SweepSpec spec = Spec(threads);
    spec.collect_metrics = true;
    return RunSweep(*scenario_, spec);
  };
  const SweepResult sequential = run(1);
  const SweepResult parallel = run(4);
  ASSERT_FALSE(sequential.metrics.empty());
  EXPECT_EQ(parallel.metrics, sequential.metrics);
  // Per-run snapshots travel in the cells too.
  for (const SweepCell& cell : sequential.cells) {
    EXPECT_FALSE(cell.result.metrics.empty());
  }
  // The merged request counter is the sum over every run in the grid.
  uint64_t total_requests = 0;
  for (const RunResult& baseline : sequential.baselines) {
    total_requests += baseline.buffer.requests;
  }
  for (const SweepCell& cell : sequential.cells) {
    total_requests += cell.result.buffer.requests;
  }
  for (const obs::MetricValue& value : sequential.metrics) {
    if (value.name == "buffer.requests") {
      EXPECT_EQ(value.count, total_requests);
    }
  }
}

TEST_F(SweepTest, MetricsAreOffByDefault) {
  const SweepResult result = RunSweep(*scenario_, Spec(2));
  EXPECT_TRUE(result.metrics.empty());
  for (const SweepCell& cell : result.cells) {
    EXPECT_TRUE(cell.result.metrics.empty());
  }
}

TEST_F(SweepTest, TaskTimingsCoverEveryRun) {
  SweepSpec spec = Spec(3);
  const SweepResult result = RunSweep(*scenario_, spec);
  ASSERT_EQ(result.timings.size(),
            result.baselines.size() + result.cells.size());
  for (const TaskTiming& timing : result.timings) {
    EXPECT_FALSE(timing.name.empty());
    EXPECT_LT(timing.worker, spec.threads);
    EXPECT_GE(timing.end_us, timing.begin_us);
  }
  const std::string path = ::testing::TempDir() + "/sweep_trace.json";
  ASSERT_TRUE(WriteSweepTrace(path, result));
}

TEST_F(SweepTest, SweepLeavesSharedDiskStatsUntouched) {
  scenario_->disk->ResetStats();
  (void)RunSweep(*scenario_, Spec(4));
  EXPECT_EQ(scenario_->disk->stats().accesses(), 0u)
      << "runs must count I/O on their private views only";
}

TEST_F(SweepTest, ThreadsEnvParsing) {
  ASSERT_EQ(setenv("SDB_BENCH_THREADS", "4", 1), 0);
  EXPECT_EQ(BenchThreadsFromEnv(), 4u);
  ASSERT_EQ(setenv("SDB_BENCH_THREADS", "0", 1), 0);
  EXPECT_EQ(BenchThreadsFromEnv(), 1u) << "clamped to at least one";
  ASSERT_EQ(setenv("SDB_BENCH_THREADS", "junk", 1), 0);
  EXPECT_EQ(BenchThreadsFromEnv(), 1u);
  ASSERT_EQ(unsetenv("SDB_BENCH_THREADS"), 0);
  EXPECT_EQ(BenchThreadsFromEnv(), 1u);
}

}  // namespace
}  // namespace sdb::sim

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/collector.h"
#include "rtree/node_view.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/scenario.h"

namespace sdb::sim {
namespace {

/// One small shared scenario for all experiment tests (bulk-built for
/// speed).
class ExperimentTest : public ::testing::Test {
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

  static workload::QuerySet Queries(workload::QueryFamily family, int ex,
                                    size_t count) {
    workload::QuerySpec spec;
    spec.family = family;
    spec.ex = ex;
    spec.count = count;
    spec.seed = 5;
    return workload::MakeQuerySet(spec, scenario_->dataset,
                                  scenario_->places);
  }

  static Scenario* scenario_;
};

Scenario* ExperimentTest::scenario_ = nullptr;

TEST_F(ExperimentTest, ScenarioIsSane) {
  EXPECT_GT(scenario_->tree_stats.total_pages(), 100u);
  EXPECT_GT(scenario_->tree_stats.height, 1u);
  EXPECT_EQ(scenario_->tree_stats.object_count, 10'000u);
  EXPECT_GT(scenario_->BufferFrames(0.047), scenario_->BufferFrames(0.003));
  EXPECT_GE(scenario_->BufferFrames(0.0001), 8u) << "lower bound";
}

TEST_F(ExperimentTest, ReplayCountsDiskReads) {
  const workload::QuerySet queries =
      Queries(workload::QueryFamily::kUniform, 33, 100);
  RunOptions options;
  options.buffer_frames = scenario_->BufferFrames(0.01);
  const RunResult result = RunQuerySet(scenario_->disk.get(),
                                       scenario_->tree_meta, "LRU", queries,
                                       options);
  EXPECT_EQ(result.policy, "LRU");
  EXPECT_EQ(result.query_set, "U-W-33");
  EXPECT_GT(result.disk_reads, 0u);
  EXPECT_GT(result.buffer.requests, result.disk_reads)
      << "some requests must be buffer hits";
  EXPECT_EQ(result.buffer.hits + result.disk_reads, result.buffer.requests);
  EXPECT_GT(result.result_objects, 0u);
}

TEST_F(ExperimentTest, QueryResultsAreInvariantUnderThePolicy) {
  const workload::QuerySet queries =
      Queries(workload::QueryFamily::kSimilar, 100, 120);
  RunOptions options;
  options.buffer_frames = scenario_->BufferFrames(0.006);
  uint64_t reference = 0;
  for (const char* policy :
       {"LRU", "FIFO", "CLOCK", "GCLOCK", "2Q", "PIN-1", "LRU-T", "LRU-P",
        "LRU-2", "LRU-3", "A", "EA", "M", "EM", "EO", "SLRU:A:0.25",
        "ASB"}) {
    const RunResult result =
        RunQuerySet(scenario_->disk.get(), scenario_->tree_meta, policy,
                    queries, options);
    if (reference == 0) {
      reference = result.result_objects;
    }
    EXPECT_EQ(result.result_objects, reference)
        << "policy " << policy << " changed query results";
    EXPECT_GT(result.disk_reads, 0u);
  }
}

TEST_F(ExperimentTest, LargerBuffersNeverIncreaseLruReads) {
  const workload::QuerySet queries =
      Queries(workload::QueryFamily::kUniform, 100, 150);
  uint64_t previous = ~0ull;
  for (double fraction : {0.003, 0.012, 0.047, 0.2}) {
    RunOptions options;
    options.buffer_frames = scenario_->BufferFrames(fraction);
    const RunResult result = RunQuerySet(
        scenario_->disk.get(), scenario_->tree_meta, "LRU", queries, options);
    EXPECT_LE(result.disk_reads, previous)
        << "LRU reads must shrink with buffer size (fraction " << fraction
        << ")";
    previous = result.disk_reads;
  }
}

TEST_F(ExperimentTest, ColdBufferLowerBound) {
  // With an enormous buffer every distinct page is read exactly once, so
  // disk reads equal the number of touched pages; any smaller buffer reads
  // at least as much.
  const workload::QuerySet queries =
      Queries(workload::QueryFamily::kUniform, 33, 80);
  RunOptions huge;
  huge.buffer_frames = scenario_->tree_stats.total_pages() + 16;
  const RunResult cold = RunQuerySet(scenario_->disk.get(),
                                     scenario_->tree_meta, "LRU", queries,
                                     huge);
  RunOptions small;
  small.buffer_frames = scenario_->BufferFrames(0.003);
  for (const char* policy : {"LRU", "LRU-2", "A", "ASB"}) {
    const RunResult result =
        RunQuerySet(scenario_->disk.get(), scenario_->tree_meta, policy,
                    queries, small);
    EXPECT_GE(result.disk_reads, cold.disk_reads) << policy;
  }
}

TEST_F(ExperimentTest, AsbTracesCandidateSize) {
  const workload::QuerySet queries =
      Queries(workload::QueryFamily::kIntensified, 33, 100);
  obs::CollectorOptions collect;
  collect.event_capacity = obs::EventRing::kUnbounded;
  obs::Collector collector(collect);
  RunOptions options;
  options.buffer_frames = scenario_->BufferFrames(0.024);
  options.collector = &collector;
  const RunResult result = RunQuerySet(
      scenario_->disk.get(), scenario_->tree_meta, "ASB", queries, options);
  const std::vector<size_t> trace =
      AsbCandidateTrace(collector.events(), queries.queries.size());
  ASSERT_EQ(trace.size(), queries.queries.size());
  for (size_t c : trace) {
    EXPECT_GE(c, 1u);
    EXPECT_LE(c, options.buffer_frames);
  }
  EXPECT_GT(result.disk_reads, 0u);
}

TEST_F(ExperimentTest, NonAsbPoliciesProduceNoTrace) {
  const workload::QuerySet queries =
      Queries(workload::QueryFamily::kUniform, 0, 50);
  obs::CollectorOptions collect;
  collect.event_capacity = obs::EventRing::kUnbounded;
  obs::Collector collector(collect);
  RunOptions options;
  options.buffer_frames = 32;
  options.collector = &collector;
  const RunResult result = RunQuerySet(
      scenario_->disk.get(), scenario_->tree_meta, "LRU", queries, options);
  EXPECT_TRUE(AsbCandidateTrace(collector.events(), queries.queries.size())
                  .empty())
      << "no kAsbInit event, so no candidate trace";
  EXPECT_GT(result.disk_reads, 0u);
}

TEST_F(ExperimentTest, RunResultCarriesIoSplitAndMetrics) {
  const workload::QuerySet queries =
      Queries(workload::QueryFamily::kUniform, 33, 80);
  obs::Collector collector;
  RunOptions options;
  options.buffer_frames = scenario_->BufferFrames(0.01);
  options.collector = &collector;
  const RunResult result = RunQuerySet(
      scenario_->disk.get(), scenario_->tree_meta, "LRU", queries, options);
  // The per-view device counters survive into the result...
  EXPECT_EQ(result.io.reads, result.disk_reads);
  EXPECT_EQ(result.io.sequential_reads, result.sequential_reads);
  EXPECT_EQ(result.io.random_reads() + result.io.sequential_reads,
            result.io.reads);
  EXPECT_EQ(result.io.writes, 0u);
  // ...and so does the metrics snapshot, consistent with the counters.
  ASSERT_FALSE(result.metrics.empty());
  auto metric = [&](std::string_view name) -> const obs::MetricValue& {
    for (const obs::MetricValue& value : result.metrics) {
      if (value.name == name) return value;
    }
    ADD_FAILURE() << "metric " << name << " missing";
    static const obs::MetricValue none{};
    return none;
  };
  EXPECT_EQ(metric("buffer.requests").count, result.buffer.requests);
  EXPECT_EQ(metric("buffer.hits").count, result.buffer.hits);
  EXPECT_EQ(metric("disk.reads").count, result.disk_reads);
  EXPECT_EQ(metric("disk.sequential_reads").count, result.sequential_reads);
  // Every miss either fills a free frame or evicts: with more misses than
  // frames, most of them evict.
  const uint64_t misses = result.buffer.requests - result.buffer.hits;
  EXPECT_EQ(metric("buffer.evictions").count,
            misses - std::min<uint64_t>(misses, options.buffer_frames));
}

TEST_F(ExperimentTest, ExportedCountersDoNotDependOnFaults) {
  // The metrics view is built from BufferStats, so a fault-free run and a
  // faulted one export the same names, and every BufferStats counter
  // appears with its value — zero or not.
  const workload::QuerySet queries =
      Queries(workload::QueryFamily::kUniform, 33, 80);
  std::vector<std::string> names[2];
  for (const bool faulty : {false, true}) {
    obs::Collector collector;
    RunOptions options;
    options.buffer_frames = scenario_->BufferFrames(0.01);
    options.collector = &collector;
    if (faulty) {
      options.fault_profile.seed = 42;
      options.fault_profile.transient_prob = 0.05;
      options.fault_profile.bit_flip_prob = 0.01;
    }
    const RunResult result = RunQuerySet(
        scenario_->disk.get(), scenario_->tree_meta, "LRU", queries, options);
    if (faulty) {
      ASSERT_GT(result.buffer.io_read_retries, 0u)
          << "the profile must inject faults";
    }
    for (const obs::MetricValue& value : result.metrics) {
      names[faulty].push_back(value.name);
    }
    for (const auto& counter : core::kBufferStatsCounters) {
      const auto it = std::find_if(
          result.metrics.begin(), result.metrics.end(),
          [&](const obs::MetricValue& value) {
            return value.name == counter.name;
          });
      ASSERT_NE(it, result.metrics.end()) << counter.name;
      EXPECT_EQ(it->count, result.buffer.*counter.field) << counter.name;
    }
  }
  EXPECT_EQ(names[0], names[1]);
}

TEST_F(ExperimentTest, GainComputation) {
  RunResult baseline, better, worse;
  baseline.disk_reads = 1200;
  better.disk_reads = 1000;
  worse.disk_reads = 1500;
  EXPECT_NEAR(GainVersus(baseline, better), 0.2, 1e-12);
  EXPECT_NEAR(GainVersus(baseline, worse), -0.2, 1e-12);
  EXPECT_DOUBLE_EQ(GainVersus(baseline, baseline), 0.0);
}

TEST_F(ExperimentTest, ReportFormatting) {
  EXPECT_EQ(FormatGain(0.123), "+12.3%");
  EXPECT_EQ(FormatGain(-0.042), "-4.2%");
  EXPECT_EQ(FormatPercent(0.973), "97.3%");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

TEST_F(ExperimentTest, CachedScenarioReplaysIdentically) {
  const std::string cache_dir = ::testing::TempDir();
  ASSERT_EQ(setenv("SDB_CACHE_DIR", cache_dir.c_str(), 1), 0);
  ScenarioOptions options;
  options.kind = DatabaseKind::kUsLike;
  options.build = BuildMode::kInsert;
  options.scale = 0.02;  // tiny: 4k objects
  options.seed = 777;

  const Scenario first = BuildCachedScenario(options);   // builds + saves
  const Scenario second = BuildCachedScenario(options);  // loads the image
  ASSERT_EQ(unsetenv("SDB_CACHE_DIR"), 0);
  EXPECT_EQ(second.tree_stats.total_pages(), first.tree_stats.total_pages());
  EXPECT_EQ(second.tree_stats.object_count, first.tree_stats.object_count);

  const workload::QuerySet queries =
      StandardQuerySet(first, workload::QueryFamily::kUniform, 100);
  RunOptions run;
  run.buffer_frames = first.BufferFrames(0.047);
  const RunResult a = RunQuerySet(first.disk.get(), first.tree_meta, "LRU",
                                  queries, run);
  const RunResult b = RunQuerySet(second.disk.get(), second.tree_meta,
                                  "LRU", queries, run);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_EQ(a.result_objects, b.result_objects);
}

TEST_F(ExperimentTest, CachedImageOfAnotherNodeLayoutIsRebuilt) {
  // An image whose meta page names another node layout (version 0, the row
  // layout) must be rebuilt and overwritten, never read with this build's
  // layout.
  const std::string cache_dir = ::testing::TempDir() + "/sdb_layout_cache";
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);
  ASSERT_EQ(setenv("SDB_CACHE_DIR", cache_dir.c_str(), 1), 0);
  ScenarioOptions options;
  options.kind = DatabaseKind::kUsLike;
  options.build = BuildMode::kBulkLoad;
  options.scale = 0.02;
  options.seed = 779;
  BuildCachedScenario(options);  // builds + saves

  std::vector<std::string> images;
  for (const auto& file : std::filesystem::directory_iterator(cache_dir)) {
    images.push_back(file.path().string());
  }
  ASSERT_EQ(images.size(), 1u);
  const std::string path = images[0];
  EXPECT_TRUE(path.ends_with(
      "_s779_n" + std::to_string(rtree::NodeView::kLayoutVersion) + ".img"))
      << path;

  // Rewrite the meta record's layout word, its last u32 (header + 44), to 0.
  std::optional<storage::DiskManager> disk =
      storage::DiskManager::LoadImage(path);
  ASSERT_TRUE(disk.has_value());
  ASSERT_TRUE(rtree::RTree::HasCurrentLayout(*disk, 0));
  const std::span<const std::byte> meta_page = disk->PeekPage(0);
  std::vector<std::byte> meta(meta_page.begin(), meta_page.end());
  const uint32_t row_layout = 0;
  std::memcpy(meta.data() + storage::PageHeaderView::kHeaderSize + 44,
              &row_layout, sizeof(row_layout));
  ASSERT_TRUE(disk->Write(0, meta).ok());
  ASSERT_FALSE(rtree::RTree::HasCurrentLayout(*disk, 0));
  ASSERT_TRUE(disk->SaveImage(path));

  const Scenario rebuilt = BuildCachedScenario(options);
  ASSERT_EQ(unsetenv("SDB_CACHE_DIR"), 0);
  const Scenario fresh = BuildScenario(options);
  EXPECT_EQ(rebuilt.tree_stats.object_count, fresh.tree_stats.object_count);
  EXPECT_EQ(rebuilt.tree_stats.height, fresh.tree_stats.height);
  EXPECT_EQ(rebuilt.tree_stats.directory_pages,
            fresh.tree_stats.directory_pages);
  EXPECT_EQ(rebuilt.tree_stats.data_pages, fresh.tree_stats.data_pages);
  EXPECT_EQ(rebuilt.tree_stats.avg_dir_fill, fresh.tree_stats.avg_dir_fill);
  EXPECT_EQ(rebuilt.tree_stats.avg_data_fill, fresh.tree_stats.avg_data_fill);
  EXPECT_GT(fresh.tree_stats.object_count, 0u);

  // The rebuild overwrote the image with the current layout.
  const std::optional<storage::DiskManager> reloaded =
      storage::DiskManager::LoadImage(path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_TRUE(rtree::RTree::HasCurrentLayout(*reloaded, 0));
  std::filesystem::remove_all(cache_dir);
}

TEST_F(ExperimentTest, MissingCacheDirWarnsAndStillBuilds) {
  // A mistyped SDB_CACHE_DIR must not silently turn every run into a full
  // rebuild: the failed save names the path on stderr.
  const std::string cache_dir =
      ::testing::TempDir() + "/sdb_missing_cache_dir/nested";
  ASSERT_EQ(setenv("SDB_CACHE_DIR", cache_dir.c_str(), 1), 0);
  ScenarioOptions options;
  options.kind = DatabaseKind::kUsLike;
  options.build = BuildMode::kBulkLoad;
  options.scale = 0.02;
  options.seed = 778;
  ::testing::internal::CaptureStderr();
  const Scenario scenario = BuildCachedScenario(options);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("SDB_CACHE_DIR"), 0);
  EXPECT_NE(err.find("warning"), std::string::npos) << err;
  EXPECT_NE(err.find(cache_dir), std::string::npos) << err;
  EXPECT_GT(scenario.tree_stats.total_pages(), 0u);
  EXPECT_EQ(scenario.tree_stats.object_count,
            scenario.dataset.objects.size());
}

TEST_F(ExperimentTest, TablePrinting) {
  Table table({"set", "LRU", "ASB"});
  table.AddRow({"U-P", "100", "90"});
  table.Print("smoke");  // must not crash; output inspected by humans
  SUCCEED();
}

TEST_F(ExperimentTest, CsvOutput) {
  Table table({"a", "b"});
  table.AddRow({"x,y", "2"});
  ::testing::internal::CaptureStdout();
  table.PrintCsv("t");
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("# csv: t"), std::string::npos);
  EXPECT_NE(out.find("a,b"), std::string::npos);
  EXPECT_NE(out.find("\"x,y\",2"), std::string::npos);
}

}  // namespace
}  // namespace sdb::sim

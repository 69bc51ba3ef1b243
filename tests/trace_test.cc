#include <gtest/gtest.h>

#include <memory>

#include "sim/experiment.h"
#include "sim/scenario.h"
#include "sim/trace.h"

namespace sdb::sim {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioOptions options;
    options.kind = DatabaseKind::kUsLike;
    options.build = BuildMode::kBulkLoad;
    options.scale = 0.05;
    scenario_ = new Scenario(BuildScenario(options));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static workload::QuerySet Queries(size_t count) {
    workload::QuerySpec spec;
    spec.family = workload::QueryFamily::kSimilar;
    spec.ex = 100;
    spec.count = count;
    spec.seed = 3;
    return workload::MakeQuerySet(spec, scenario_->dataset,
                                  scenario_->places);
  }

  static Scenario* scenario_;
};

Scenario* TraceTest::scenario_ = nullptr;

TEST_F(TraceTest, RecordsEveryBufferRequest) {
  const workload::QuerySet queries = Queries(80);
  const AccessTrace trace = RecordQueryTrace(
      scenario_->disk.get(), scenario_->tree_meta, queries, 64);
  EXPECT_EQ(trace.name, queries.name);
  EXPECT_GT(trace.accesses.size(), queries.queries.size())
      << "every query touches at least the root";
  for (const PageAccess& access : trace.accesses) {
    EXPECT_NE(access.page, storage::kInvalidPageId);
    EXPECT_GE(access.query_id, 1u);
  }
}

TEST_F(TraceTest, TraceIsIndependentOfTheRecordingPolicy) {
  const workload::QuerySet queries = Queries(60);
  const AccessTrace a = RecordQueryTrace(scenario_->disk.get(),
                                         scenario_->tree_meta, queries, 48,
                                         "LRU");
  const AccessTrace b = RecordQueryTrace(scenario_->disk.get(),
                                         scenario_->tree_meta, queries, 48,
                                         "A");
  ASSERT_EQ(a.accesses.size(), b.accesses.size());
  for (size_t i = 0; i < a.accesses.size(); ++i) {
    EXPECT_EQ(a.accesses[i].page, b.accesses[i].page);
    EXPECT_EQ(a.accesses[i].query_id, b.accesses[i].query_id);
  }
}

TEST_F(TraceTest, ReplayMatchesDirectExecution) {
  // The core guarantee: replaying the trace under policy P costs exactly
  // the same disk reads as running the queries under P.
  const workload::QuerySet queries = Queries(100);
  const size_t frames = scenario_->BufferFrames(0.012);
  const AccessTrace trace = RecordQueryTrace(
      scenario_->disk.get(), scenario_->tree_meta, queries, frames);
  for (const char* policy : {"LRU", "LRU-2", "A", "SLRU:A:0.25", "ASB",
                             "2Q", "GCLOCK"}) {
    RunOptions options;
    options.buffer_frames = frames;
    const RunResult direct = RunQuerySet(
        scenario_->disk.get(), scenario_->tree_meta, policy, queries,
        options);
    const ReplayResult replayed =
        ReplayTrace(scenario_->disk.get(), trace, policy, frames);
    EXPECT_EQ(replayed.disk_reads, direct.disk_reads) << policy;
    EXPECT_EQ(replayed.requests, direct.buffer.requests) << policy;
    EXPECT_EQ(replayed.hits, direct.buffer.hits) << policy;
  }
}

TEST_F(TraceTest, ReplayAcrossBufferSizes) {
  const workload::QuerySet queries = Queries(60);
  const AccessTrace trace = RecordQueryTrace(
      scenario_->disk.get(), scenario_->tree_meta, queries, 128);
  uint64_t previous = ~0ull;
  for (size_t frames : {16, 64, 256}) {
    const ReplayResult result =
        ReplayTrace(scenario_->disk.get(), trace, "LRU", frames);
    EXPECT_LE(result.disk_reads, previous);
    previous = result.disk_reads;
  }
}

}  // namespace
}  // namespace sdb::sim

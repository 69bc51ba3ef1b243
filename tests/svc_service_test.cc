#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy_asb.h"
#include "core/policy_factory.h"
#include "rtree/rtree.h"
#include "sim/scenario.h"
#include "svc/buffer_service.h"
#include "workload/query_generator.h"

namespace sdb::svc {
namespace {

using storage::PageId;

/// One small shared database for every service test (bulk-built for speed).
class BufferServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioOptions options;
    options.kind = sim::DatabaseKind::kUsLike;
    options.build = sim::BuildMode::kBulkLoad;
    options.scale = 0.02;
    scenario_ = new sim::Scenario(sim::BuildScenario(options));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static const storage::DiskManager& disk() { return *scenario_->disk; }

  /// Page-for-page copy of the (shared, const) scenario disk, for a
  /// writable service over the same pages.
  static storage::DiskManager CopyDisk() {
    storage::DiskManager copy(disk().page_size());
    for (PageId id = 0; id < disk().page_count(); ++id) {
      EXPECT_EQ(copy.AllocateOrDie(), id);
      EXPECT_TRUE(copy.Write(id, disk().PeekPage(id)).ok());
    }
    return copy;
  }

  /// Every allocated page id of the scenario's disk (the fetch universe).
  static std::vector<PageId> AllPages() {
    std::vector<PageId> pages;
    for (PageId id = 0; id < disk().page_count(); ++id) pages.push_back(id);
    return pages;
  }

  /// Runs one serial op sequence — single fetches, immediate re-touches
  /// and 3-page groups whose handles all live until the group ends —
  /// against a service built from `config` and against plain
  /// BufferManagers, one per shard (routed by ShardOf, sized by
  /// ShardFrames). Every shard must match its reference counter for
  /// counter. Returns the service's aggregate stats.
  static ShardStats ExpectSerialServiceMatchesPlainBuffers(
      const BufferServiceConfig& config) {
    BufferService service(disk(), config);
    std::vector<std::unique_ptr<storage::ReadOnlyDiskView>> views;
    std::vector<std::unique_ptr<core::BufferManager>> plain;
    for (size_t s = 0; s < service.shard_count(); ++s) {
      views.push_back(std::make_unique<storage::ReadOnlyDiskView>(disk()));
      plain.push_back(std::make_unique<core::BufferManager>(
          views.back().get(), service.ShardFrames(s),
          core::CreatePolicy(config.policy_spec)));
    }
    const auto reference = [&](PageId page) -> core::BufferManager& {
      return *plain[service.ShardOf(page)];
    };
    const std::vector<PageId> pages = AllPages();
    uint64_t query = 0;
    std::vector<core::PageHandle> group;
    std::vector<core::PageHandle> reference_group;
    for (size_t round = 0; round < 3; ++round) {
      for (size_t i = 0; i < pages.size(); ++i) {
        const core::AccessContext ctx{++query};
        if (i % 7 == 0 && i + 3 <= pages.size()) {
          for (size_t k = i; k < i + 3; ++k) {
            group.push_back(service.FetchOrDie(pages[k], ctx));
            reference_group.push_back(
                reference(pages[k]).FetchOrDie(pages[k], ctx));
          }
          group.clear();
          reference_group.clear();
          i += 2;
        } else {
          service.FetchOrDie(pages[i], ctx).Release();
          reference(pages[i]).FetchOrDie(pages[i], ctx).Release();
          const core::AccessContext again{++query};
          service.FetchOrDie(pages[i], again).Release();
          reference(pages[i]).FetchOrDie(pages[i], again).Release();
        }
      }
    }
    for (size_t s = 0; s < service.shard_count(); ++s) {
      const ShardStats stats = service.StatsOfShard(s);
      const core::BufferStats& want = plain[s]->stats();
      EXPECT_GT(want.evictions, 0u) << "shard " << s << " never evicted";
      EXPECT_EQ(stats.buffer.requests, want.requests) << "shard " << s;
      EXPECT_EQ(stats.buffer.hits, want.hits) << "shard " << s;
      EXPECT_EQ(stats.buffer.misses, want.misses) << "shard " << s;
      EXPECT_EQ(stats.buffer.evictions, want.evictions) << "shard " << s;
      EXPECT_EQ(stats.io.reads, views[s]->stats().reads) << "shard " << s;
    }
    return service.AggregateStats();
  }

  static sim::Scenario* scenario_;
};

sim::Scenario* BufferServiceTest::scenario_ = nullptr;

TEST_F(BufferServiceTest, SplitsCapacityWithRemainderToLowShards) {
  BufferServiceConfig config;
  config.total_frames = 103;
  config.shard_count = 4;
  BufferService service(disk(), config);
  ASSERT_EQ(service.shard_count(), 4u);
  size_t sum = 0;
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(service.ShardFrames(s), s < 3 ? 26u : 25u);
    EXPECT_EQ(service.shard_buffer(s).frame_count(), service.ShardFrames(s));
    sum += service.ShardFrames(s);
  }
  EXPECT_EQ(sum, config.total_frames);
}

TEST_F(BufferServiceTest, ShardingIsStableAndInRange) {
  BufferServiceConfig config;
  config.total_frames = 64;
  config.shard_count = 7;
  BufferService service(disk(), config);
  std::vector<size_t> population(config.shard_count, 0);
  for (PageId id : AllPages()) {
    const size_t shard = service.ShardOf(id);
    ASSERT_LT(shard, config.shard_count);
    EXPECT_EQ(service.ShardOf(id), shard) << "hash must be stable";
    ++population[shard];
  }
  // The mix must not starve any shard on sequential page ids.
  for (size_t s = 0; s < config.shard_count; ++s) {
    EXPECT_GT(population[s], 0u) << "shard " << s << " serves no page";
  }
}

TEST_F(BufferServiceTest, FetchServesTheDiskImage) {
  BufferServiceConfig config;
  config.total_frames = 32;
  config.shard_count = 4;
  BufferService service(disk(), config);
  const core::AccessContext ctx{1};
  for (PageId id : {PageId{0}, PageId{5}, PageId{9}}) {
    core::PageHandle handle = service.FetchOrDie(id, ctx);
    ASSERT_TRUE(handle.valid());
    EXPECT_EQ(handle.page_id(), id);
    const std::span<const std::byte> expected = disk().PeekPage(id);
    ASSERT_EQ(handle.bytes().size(), expected.size());
    EXPECT_EQ(std::memcmp(handle.bytes().data(), expected.data(),
                          expected.size()),
              0);
    EXPECT_TRUE(service.Contains(id));
    EXPECT_FALSE(service.Peek(id).empty());
  }
  const ShardStats stats = service.AggregateStats();
  EXPECT_EQ(stats.buffer.requests, 3u);
  EXPECT_EQ(stats.buffer.misses, 3u);
  EXPECT_EQ(stats.io.reads, 3u);
}

TEST_F(BufferServiceTest, OneShardBehavesLikeAPrivateBuffer) {
  // With one shard the service is a latched BufferManager: replaying the
  // same access string must produce identical counters.
  const std::vector<PageId> pages = AllPages();
  BufferServiceConfig config;
  config.total_frames = 16;
  config.shard_count = 1;
  config.policy_spec = "LRU";
  BufferService service(disk(), config);
  storage::ReadOnlyDiskView view(disk());
  core::BufferManager reference(&view, 16, core::CreatePolicy("LRU"));
  uint64_t query = 0;
  for (size_t round = 0; round < 3; ++round) {
    for (PageId id : pages) {
      const core::AccessContext ctx{++query};
      service.FetchOrDie(id, ctx).Release();
      reference.FetchOrDie(id, ctx).Release();
    }
  }
  const ShardStats stats = service.AggregateStats();
  EXPECT_EQ(stats.buffer.requests, reference.stats().requests);
  EXPECT_EQ(stats.buffer.hits, reference.stats().hits);
  EXPECT_EQ(stats.buffer.misses, reference.stats().misses);
  EXPECT_EQ(stats.buffer.evictions, reference.stats().evictions);
  EXPECT_EQ(stats.io.reads, view.stats().reads);
}

// Thread-shaped fetch storm (the tsan-labeled core of the suite): invariants
// that hold for ANY interleaving, checked after the join.
TEST_F(BufferServiceTest, ConcurrentFetchStormKeepsInvariants) {
  const std::vector<PageId> pages = AllPages();
  BufferServiceConfig config;
  config.total_frames = 48;
  config.shard_count = 4;
  config.policy_spec = "ASB";
  BufferService service(disk(), config);

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 3;
  // Per-shard request counts are interleaving-invariant: the page→shard map
  // is fixed, so they equal this precomputed expectation.
  std::vector<uint64_t> expected_requests(config.shard_count, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t round = 0; round < kRounds; ++round) {
      for (size_t i = t; i < pages.size(); i += 2) {
        ++expected_requests[service.ShardOf(pages[i])];
      }
    }
  }

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &pages, t] {
      uint64_t query = t * 1000000;
      for (size_t round = 0; round < kRounds; ++round) {
        // Stride-2 with thread-dependent phase: every page is contended by
        // half the threads each round.
        for (size_t i = t; i < pages.size(); i += 2) {
          const core::AccessContext ctx{++query};
          core::PageHandle handle = service.FetchOrDie(pages[i], ctx);
          ASSERT_EQ(handle.page_id(), pages[i]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  uint64_t total_requests = 0;
  uint64_t expected_total = 0;
  for (uint64_t n : expected_requests) expected_total += n;
  for (size_t s = 0; s < service.shard_count(); ++s) {
    const ShardStats stats = service.StatsOfShard(s);
    EXPECT_EQ(stats.buffer.requests, expected_requests[s])
        << "per-shard request count must not depend on interleaving";
    EXPECT_EQ(stats.buffer.requests, stats.buffer.hits + stats.buffer.misses);
    EXPECT_EQ(stats.buffer.misses, stats.io.reads)
        << "every miss costs exactly one read on the shard's view";
    EXPECT_EQ(stats.io.writes, 0u) << "read-only service must not write";
    EXPECT_LE(service.shard_buffer(s).resident_count(),
              service.ShardFrames(s));
    total_requests += stats.buffer.requests;
  }
  EXPECT_EQ(total_requests, expected_total);
}

TEST_F(BufferServiceTest, SharedAsbTuningPublishesOneClampedCandidate) {
  BufferServiceConfig config;
  config.total_frames = 60;
  config.shard_count = 3;
  config.policy_spec = "ASB";
  BufferService service(disk(), config);
  ASSERT_NE(service.shared_tuning(), nullptr);

  // The global clamp is the smallest shard's main capacity.
  size_t min_main = SIZE_MAX;
  for (size_t s = 0; s < service.shard_count(); ++s) {
    const auto& policy = dynamic_cast<const core::AsbPolicy&>(
        service.shard_buffer(s).policy());
    ASSERT_EQ(policy.shared_tuning(), service.shared_tuning());
    min_main = std::min(min_main, policy.main_capacity());
  }
  EXPECT_EQ(service.shared_tuning()->max_candidate(),
            static_cast<int64_t>(min_main));

  // Drive enough traffic to trigger adaptation, racing over all shards.
  const std::vector<PageId> pages = AllPages();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&service, &pages, t] {
      uint64_t query = t * 1000000;
      for (size_t round = 0; round < 4; ++round) {
        for (size_t i = 0; i < pages.size(); ++i) {
          const core::AccessContext ctx{++query};
          // Re-touch a sliding window so overflow pages get hit again.
          service.FetchOrDie(pages[(i * (t + 1)) % pages.size()], ctx).Release();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const size_t c = service.shared_candidate();
  EXPECT_GE(c, 1u);
  EXPECT_LE(c, min_main);
  // Every shard's working candidate equals the published value (clamped to
  // its own capacity — identical capacities here make them equal).
  for (size_t s = 0; s < service.shard_count(); ++s) {
    const auto& policy = dynamic_cast<const core::AsbPolicy&>(
        service.shard_buffer(s).policy());
    EXPECT_LE(policy.candidate_size(), policy.main_capacity());
  }
}

TEST_F(BufferServiceTest, NonAsbPolicyIgnoresSharing) {
  BufferServiceConfig config;
  config.total_frames = 12;
  config.shard_count = 2;
  config.policy_spec = "LRU";
  BufferService service(disk(), config);
  EXPECT_EQ(service.shared_tuning(), nullptr);
  EXPECT_EQ(service.shared_candidate(), 0u);
}

TEST_F(BufferServiceTest, MetricsMergeShardsAndFlushDeltas) {
  BufferServiceConfig config;
  config.total_frames = 24;
  config.shard_count = 3;
  config.collect_metrics = true;
  BufferService service(disk(), config);
  const std::vector<PageId> pages = AllPages();
  uint64_t query = 0;
  for (PageId id : pages) {
    service.FetchOrDie(id, core::AccessContext{++query}).Release();
  }
  const ShardStats aggregate = service.AggregateStats();

  auto find = [](const obs::MetricsSnapshot& snapshot,
                 std::string_view name) -> const obs::MetricValue* {
    for (const obs::MetricValue& metric : snapshot) {
      if (metric.name == name) return &metric;
    }
    return nullptr;
  };

  obs::MetricsSnapshot merged = service.MetricsSnapshot();
  const obs::MetricValue* requests = find(merged, "buffer.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->count, aggregate.buffer.requests);
  const obs::MetricValue* reads = find(merged, "svc.disk_reads");
  ASSERT_NE(reads, nullptr);
  EXPECT_EQ(reads->count, aggregate.io.reads);
  const obs::MetricValue* acquires = find(merged, "svc.latch_acquires");
  ASSERT_NE(acquires, nullptr);
  EXPECT_GE(acquires->count, aggregate.buffer.requests);

  // Snapshotting again without traffic must not double-count.
  obs::MetricsSnapshot again = service.MetricsSnapshot();
  EXPECT_EQ(find(again, "buffer.requests")->count, requests->count);
  EXPECT_EQ(find(again, "svc.disk_reads")->count, reads->count);

  // Per-shard snapshots cover every shard and sum to the merged counters.
  std::vector<obs::MetricsSnapshot> shards = service.ShardMetricsSnapshots();
  ASSERT_EQ(shards.size(), service.shard_count());
  uint64_t shard_sum = 0;
  for (const obs::MetricsSnapshot& snapshot : shards) {
    shard_sum += find(snapshot, "buffer.requests")->count;
  }
  EXPECT_EQ(shard_sum, requests->count);
}

TEST_F(BufferServiceTest, LatchProtocolFollowsWritability) {
  // Read-only shards run the optimistic protocol; writable shards, which
  // carry the WAL and the write path, stay on the plain shard mutex.
  BufferServiceConfig config;
  config.total_frames = 16;
  config.shard_count = 4;
  const BufferService read_only(disk(), config);
  storage::DiskManager copy = CopyDisk();
  storage::DiskManager log;
  wal::WalManager wal(&log);
  const BufferService writable(&copy, &wal, config);
  for (size_t s = 0; s < config.shard_count; ++s) {
    EXPECT_TRUE(read_only.shard_buffer(s).concurrent()) << "shard " << s;
    EXPECT_FALSE(writable.shard_buffer(s).concurrent()) << "shard " << s;
  }
}

TEST_F(BufferServiceTest, OptimisticSerialRunIsBitIdenticalToMutex) {
  // The deferred-event protocol's core promise: executed serially, the
  // optimistic (read-only) service replays policy events in arrival order
  // and therefore produces the exact eviction/hit sequence of a mutex
  // service — a writable one over a page-for-page copy of the same disk.
  const std::vector<PageId> pages = AllPages();
  BufferServiceConfig config;
  config.total_frames = 24;
  config.shard_count = 4;
  config.policy_spec = "ASB";
  storage::DiskManager copy = CopyDisk();
  storage::DiskManager log;
  wal::WalManager wal(&log);
  BufferService mutex_service(&copy, &wal, config);
  BufferService optimistic_service(disk(), config);

  uint64_t query = 0;
  std::vector<core::PageHandle> group;
  for (size_t round = 0; round < 3; ++round) {
    for (size_t i = 0; i < pages.size(); ++i) {
      const core::AccessContext ctx{++query};
      // Mix single fetches with 3-page groups held until the group ends
      // (same calls on both sides).
      if (i % 7 == 0 && i + 3 <= pages.size()) {
        for (BufferService* service : {&mutex_service, &optimistic_service}) {
          for (size_t k = i; k < i + 3; ++k) {
            group.push_back(service->FetchOrDie(pages[k], ctx));
          }
          group.clear();
        }
        i += 2;
      } else {
        mutex_service.FetchOrDie(pages[i], ctx).Release();
        optimistic_service.FetchOrDie(pages[i], ctx).Release();
        // Immediate re-touch: a guaranteed hit, served latch-free on the
        // optimistic side (a pure cyclic scan would never hit at all).
        const core::AccessContext again{++query};
        mutex_service.FetchOrDie(pages[i], again).Release();
        optimistic_service.FetchOrDie(pages[i], again).Release();
      }
    }
  }
  const ShardStats mutex_stats = mutex_service.AggregateStats();
  const ShardStats optimistic_stats = optimistic_service.AggregateStats();
  EXPECT_EQ(optimistic_stats.buffer.requests, mutex_stats.buffer.requests);
  EXPECT_EQ(optimistic_stats.buffer.hits, mutex_stats.buffer.hits);
  EXPECT_EQ(optimistic_stats.buffer.misses, mutex_stats.buffer.misses);
  EXPECT_EQ(optimistic_stats.buffer.evictions, mutex_stats.buffer.evictions);
  EXPECT_EQ(optimistic_stats.io.reads, mutex_stats.io.reads);
  EXPECT_GT(optimistic_stats.optimistic_hits, 0u);
  EXPECT_EQ(mutex_stats.optimistic_hits, 0u);
}

TEST_F(BufferServiceTest, SerialOneShardAsbServiceMatchesPlainBuffer) {
  // One shard: the shared ASB tuning has a single participant, so it
  // adapts exactly like a private policy. The 3-page groups all land on
  // that shard.
  BufferServiceConfig config;
  config.total_frames = 24;
  config.shard_count = 1;
  config.policy_spec = "ASB";
  const ShardStats stats = ExpectSerialServiceMatchesPlainBuffers(config);
  EXPECT_GT(stats.optimistic_hits, 0u);
}

TEST_F(BufferServiceTest, SerialFourShardLruServiceMatchesPlainBuffers) {
  BufferServiceConfig config;
  config.total_frames = 40;
  config.shard_count = 4;
  config.policy_spec = "LRU";
  ExpectSerialServiceMatchesPlainBuffers(config);
}

/// The single-threaded reference of a sharded service: routes each fetch
/// to the plain BufferManager of the page's service shard.
class ShardRoutedSource final : public core::PageSource {
 public:
  ShardRoutedSource(const BufferService* service,
                    const std::vector<std::unique_ptr<core::BufferManager>>*
                        plain)
      : service_(service), plain_(plain) {}

  core::StatusOr<core::PageHandle> Fetch(PageId page,
                                         const core::AccessContext& ctx)
      override {
    return (*plain_)[service_->ShardOf(page)]->Fetch(page, ctx);
  }
  core::StatusOr<core::PageHandle> New(const core::AccessContext&) override {
    return core::Status::Unimplemented("the reference is read-only");
  }
  std::span<const std::byte> Peek(PageId page) const override {
    return (*plain_)[service_->ShardOf(page)]->Peek(page);
  }

 private:
  const BufferService* service_;
  const std::vector<std::unique_ptr<core::BufferManager>>* plain_;
};

// The paper charges one read per miss of a page-at-a-time traversal, and a
// window query through the service must be exactly that traversal. Run
// serially, every query returns as many entries as through plain buffers
// of the same frames and policy (one per shard, routed by ShardOf), and
// every shard sees its plain buffer's requests, hits, evictions and device
// reads. A traversal holding several pins at once would change ASB's
// victims in a 12-frame shard.
TEST_F(BufferServiceTest, WindowQueriesThroughServiceMatchPlainBuffers) {
  const workload::QuerySet set =
      sim::StandardQuerySet(*scenario_, workload::QueryFamily::kSimilar, 33);
  ASSERT_FALSE(set.queries.empty());
  const auto expect_plain_traversal = [&](BufferService& service,
                                          const storage::DiskManager& disk_of,
                                          const char* label) {
    SCOPED_TRACE(label);
    std::vector<std::unique_ptr<storage::ReadOnlyDiskView>> views;
    std::vector<std::unique_ptr<core::BufferManager>> plain;
    for (size_t s = 0; s < service.shard_count(); ++s) {
      views.push_back(std::make_unique<storage::ReadOnlyDiskView>(disk()));
      plain.push_back(std::make_unique<core::BufferManager>(
          views.back().get(), service.ShardFrames(s),
          core::CreatePolicy(service.policy_spec())));
    }
    ShardRoutedSource routed(&service, &plain);
    const rtree::RTree via_service =
        rtree::RTree::Open(&disk_of, &service, scenario_->tree_meta);
    const rtree::RTree via_plain =
        rtree::RTree::Open(&disk(), &routed, scenario_->tree_meta);
    for (size_t q = 0; q < set.queries.size(); ++q) {
      const core::AccessContext ctx{q + 1};
      EXPECT_EQ(via_service.WindowQuery(set.queries[q], ctx).size(),
                via_plain.WindowQuery(set.queries[q], ctx).size())
          << "query " << q;
    }
    for (size_t s = 0; s < service.shard_count(); ++s) {
      const ShardStats stats = service.StatsOfShard(s);
      const core::BufferStats& want = plain[s]->stats();
      EXPECT_GT(want.evictions, 0u) << "shard " << s << " never evicted";
      EXPECT_EQ(stats.buffer.requests, want.requests) << "shard " << s;
      EXPECT_EQ(stats.buffer.hits, want.hits) << "shard " << s;
      EXPECT_EQ(stats.buffer.evictions, want.evictions) << "shard " << s;
      EXPECT_EQ(stats.io.reads, views[s]->stats().reads) << "shard " << s;
    }
  };

  BufferServiceConfig asb;
  asb.total_frames = 12;
  asb.shard_count = 1;
  asb.policy_spec = "ASB";
  BufferService read_only(disk(), asb);
  expect_plain_traversal(read_only, disk(), "1-shard ASB, read-only");

  storage::DiskManager copy = CopyDisk();
  storage::DiskManager log;
  wal::WalManager wal(&log);
  BufferService writable(&copy, &wal, asb);
  expect_plain_traversal(writable, copy, "1-shard ASB, writable");

  BufferServiceConfig lru;
  lru.total_frames = 40;
  lru.shard_count = 4;
  lru.policy_spec = "LRU";
  BufferService sharded(disk(), lru);
  expect_plain_traversal(sharded, disk(), "4-shard LRU, read-only");
}

TEST_F(BufferServiceTest, MovedHandleTransfersItsPin) {
  BufferServiceConfig config;
  config.total_frames = 16;
  config.shard_count = 1;
  BufferService service(disk(), config);
  // Move semantics: assignment releases the destination's old pin, the
  // source becomes invalid, self-sufficient double-Release is a no-op.
  core::PageHandle a = service.FetchOrDie(4, core::AccessContext{3});
  core::PageHandle b = service.FetchOrDie(5, core::AccessContext{4});
  b = std::move(a);
  EXPECT_FALSE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(b.page_id(), 4u);
  b.Release();
  b.Release();
  // All pins gone: sweeping more distinct pages than frames must succeed
  // (a leaked pin would leave the single shard unevictable and abort).
  uint64_t query = 10;
  for (PageId id = 0; id < 2 * config.total_frames; ++id) {
    service.FetchOrDie(id % disk().page_count(), core::AccessContext{++query})
        .Release();
  }
}

// Thread-shaped satellite of the move test: racing pin/unpin on the SAME
// frame through handle moves, while other threads force eviction pressure
// on the rest of the shard. Invariant checked at the end: every pin was
// released exactly once (the shard survives a full eviction sweep).
TEST_F(BufferServiceTest, ConcurrentMovesRaceOnOneFrame) {
  BufferServiceConfig config;
  config.total_frames = 48;
  config.shard_count = 2;
  BufferService service(disk(), config);
  const PageId hot = 1;  // every thread hammers this page's frame
  const size_t page_count = disk().page_count();

  constexpr size_t kThreads = 4;
  constexpr size_t kIters = 400;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t query = t * 1000000;
      for (size_t i = 0; i < kIters; ++i) {
        const core::AccessContext ctx{++query};
        switch ((t + i) % 2) {
          case 0: {  // move chain, single release at scope end
            core::PageHandle handle = service.FetchOrDie(hot, ctx);
            core::PageHandle moved = std::move(handle);
            core::PageHandle again = std::move(moved);
            ASSERT_EQ(again.page_id(), hot);
            break;
          }
          case 1: {  // eviction pressure elsewhere in both shards
            service
                .FetchOrDie(static_cast<PageId>((t * 131 + i) % page_count),
                            ctx)
                .Release();
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const ShardStats stats = service.AggregateStats();
  EXPECT_EQ(stats.buffer.requests, kThreads * kIters);
  // No pin leaked: a sweep wider than the pool must not abort.
  uint64_t query = uint64_t{1} << 40;
  for (PageId id = 0; id < static_cast<PageId>(page_count); ++id) {
    service.FetchOrDie(id, core::AccessContext{++query}).Release();
  }
}

TEST_F(BufferServiceTest, TinyEventRingFallsBackWithoutLosingEvents) {
  const std::vector<PageId> pages = AllPages();
  BufferServiceConfig config;
  config.total_frames = 24;
  config.shard_count = 2;
  config.policy_spec = "ASB";
  config.event_ring_capacity = 4;  // storm: constant ring-full fallbacks
  BufferService service(disk(), config);

  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &pages, t] {
      uint64_t query = t * 1000000;
      for (size_t round = 0; round < 2; ++round) {
        for (const PageId id : pages) {
          service.FetchOrDie(id, core::AccessContext{++query}).Release();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const ShardStats stats = service.AggregateStats();
  EXPECT_EQ(stats.buffer.requests, kThreads * 2 * pages.size())
      << "ring-full fallbacks must not drop or double-count accesses";
  EXPECT_EQ(stats.buffer.hits + stats.buffer.misses, stats.buffer.requests);
  EXPECT_EQ(stats.buffer.misses, stats.io.reads);
}

// Two threads pin the shard's only resident frame latch-free, each on its
// own stripe's counter, and release it one after the other: A pins, B pins,
// A releases, B releases. Hits queue per thread stripe and releases queue
// nothing, so the drain replays only the two hits, stripe by stripe. The
// threads keep their stripes and swap roles between rounds, so either
// stripe drains first once. After the drain the unpinned frame must be the
// policy's victim: a concurrent shard's policy sees every resident frame as
// evictable, whatever order the hits replay in.
TEST_F(BufferServiceTest, HitEdgeDrainedAfterFinalUnpinLeavesFrameEvictable) {
  BufferServiceConfig config;
  config.total_frames = 8;
  config.shard_count = 1;
  config.policy_spec = "LRU";
  BufferService service(disk(), config);
  auto& buffer = const_cast<core::BufferManager&>(service.shard_buffer(0));
  const PageId page = 1;
  service.FetchOrDie(page, core::AccessContext{1}).Release();
  const core::FrameId frame = 0;  // the free list hands out frame 0 first

  std::barrier step(2);
  const auto run = [&](size_t me) {
    for (size_t round = 0; round < 2; ++round) {
      const uint64_t hits_before =
          me == 0 ? service.StatsOfShard(0).optimistic_hits : 0;
      step.arrive_and_wait();
      const core::AccessContext ctx{100 * round + me + 10};
      if (round == me) {  // A: the hit edge, then the non-final release
        core::PageHandle handle = service.FetchOrDie(page, ctx);
        step.arrive_and_wait();  // A pinned
        step.arrive_and_wait();  // B pinned
        handle.Release();
        step.arrive_and_wait();  // A released
      } else {  // B: a hit without an edge, then the final release
        step.arrive_and_wait();  // A pinned
        core::PageHandle handle = service.FetchOrDie(page, ctx);
        step.arrive_and_wait();  // B pinned
        step.arrive_and_wait();  // A released
        handle.Release();
      }
      step.arrive_and_wait();  // both released
      if (me == 0) {
        const ShardStats after = service.StatsOfShard(0);  // drains
        EXPECT_EQ(after.optimistic_hits - hits_before, 2u)
            << "round " << round << ": both pins must be latch-free hits";
        EXPECT_EQ(buffer.policy().ChooseVictim(core::AccessContext{99},
                                               storage::kInvalidPageId),
                  std::optional<core::FrameId>(frame))
            << "round " << round;
      }
      step.arrive_and_wait();  // checked
    }
  };
  std::thread first(run, 0);
  std::thread second(run, 1);
  first.join();
  second.join();
}

// A pin released on another thread than the one that took it lands on two
// stripes' counters: +1 on the fetching thread's, -1 (wrapped) on the
// releasing thread's. Two fresh threads take consecutive stripe ordinals,
// so they use two stripes wherever there are at least two. The live count
// is the wrapping sum, so the frame must read unpinned again: with every
// other frame of the shard held, the next miss has to evict it. Once with a
// pin from a miss (taken under the latch) and once with a latch-free hit.
TEST_F(BufferServiceTest, PinReleasedOnAnotherThreadLeavesFrameEvictable) {
  constexpr size_t kFrames = 8;
  BufferServiceConfig config;
  config.total_frames = kFrames;
  config.shard_count = 1;
  config.policy_spec = "LRU";
  BufferService service(disk(), config);
  uint64_t query = 0;
  const auto hand_over = [&](PageId page) {
    core::PageHandle handle;
    std::thread([&] {
      handle = service.FetchOrDie(page, core::AccessContext{++query});
    }).join();
    std::thread([&] { handle.Release(); }).join();
  };
  std::vector<core::PageHandle> held;
  for (PageId id = 1; id < kFrames; ++id) {
    held.push_back(service.FetchOrDie(id, core::AccessContext{++query}));
  }
  hand_over(0);  // a miss: the pin is taken under the shard latch
  core::StatusOr<core::PageHandle> next =
      service.Fetch(kFrames, core::AccessContext{++query});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_FALSE(service.Contains(0)) << "the handed-over frame stayed pinned";
  next.value().Release();

  const uint64_t hits_before = service.StatsOfShard(0).optimistic_hits;
  hand_over(kFrames);  // resident: a latch-free hit
  EXPECT_EQ(service.StatsOfShard(0).optimistic_hits - hits_before, 1u);
  next = service.Fetch(0, core::AccessContext{++query});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_FALSE(service.Contains(kFrames))
      << "the handed-over frame stayed pinned";
  for (PageId id = 1; id < kFrames; ++id) EXPECT_TRUE(service.Contains(id));
}

// A concurrent shard's policy sees every resident frame as evictable, so
// LRU can choose a pinned frame; eviction sets it aside for that
// acquisition and restores it before returning. Hold the least recently
// used page: the next miss must evict the second-oldest instead. Release
// the held page: it is the oldest again, and the next miss must evict it.
// A plain BufferManager, whose policy never sees the held frame as
// evictable, makes the same evictions.
TEST_F(BufferServiceTest, PinnedVictimIsSetAsideThenRestored) {
  constexpr size_t kFrames = 8;
  BufferServiceConfig config;
  config.total_frames = kFrames;
  config.shard_count = 1;
  config.policy_spec = "LRU";
  BufferService service(disk(), config);
  storage::ReadOnlyDiskView view(disk());
  core::BufferManager plain(&view, kFrames, core::CreatePolicy("LRU"));
  // Residency of pages 0-2 after each of the two misses.
  const auto run = [](auto& source) {
    uint64_t query = 0;
    core::PageHandle held = source.FetchOrDie(0, core::AccessContext{++query});
    for (PageId id = 1; id < kFrames; ++id) {
      source.FetchOrDie(id, core::AccessContext{++query}).Release();
    }
    std::vector<bool> resident;
    source.FetchOrDie(kFrames, core::AccessContext{++query}).Release();
    for (PageId id = 0; id < 3; ++id) resident.push_back(source.Contains(id));
    held.Release();
    source.FetchOrDie(kFrames + 1, core::AccessContext{++query}).Release();
    for (PageId id = 0; id < 3; ++id) resident.push_back(source.Contains(id));
    return resident;
  };
  const std::vector<bool> want = {true, false, true, false, false, true};
  EXPECT_EQ(run(plain), want);
  EXPECT_EQ(run(service), want);
  EXPECT_EQ(service.StatsOfShard(0).buffer.evictions, plain.stats().evictions);
}

TEST_F(BufferServiceTest, MetricsStayMonotonicAcrossMidRunQuarantine) {
  // Quarantine (and the frame churn it causes) mid-run must never make an
  // exported counter go backwards or under-report, nor change which
  // counters are exported.
  BufferServiceConfig config;
  config.total_frames = 24;
  config.shard_count = 2;
  config.collect_metrics = true;
  config.fault_profile.bad_begin = 4;
  config.fault_profile.bad_end = 6;  // pages 4,5 terminally unreadable
  BufferService service(disk(), config);

  auto counter_value = [](const obs::MetricsSnapshot& snapshot,
                          std::string_view name) -> uint64_t {
    for (const obs::MetricValue& metric : snapshot) {
      if (metric.name == name) return metric.count;
    }
    return 0;
  };
  auto metric_names = [](const obs::MetricsSnapshot& snapshot) {
    std::vector<std::string> names;
    for (const obs::MetricValue& metric : snapshot) {
      names.push_back(metric.name);
    }
    return names;
  };
  const std::vector<std::string> names_before_faults =
      metric_names(service.MetricsSnapshot());
  const char* kMonotonic[] = {"svc.latch_waits", "svc.latch_acquires",
                              "svc.disk_reads", "svc.optimistic_hits",
                              "buffer.requests"};
  std::vector<uint64_t> last(std::size(kMonotonic), 0);
  uint64_t query = 0;
  const std::vector<PageId> pages = AllPages();
  for (size_t round = 0; round < 4; ++round) {
    for (const PageId id : pages) {
      // Bad pages fail (and quarantine their staging frame); keep going.
      auto fetched = service.Fetch(id, core::AccessContext{++query});
      if (fetched.ok()) std::move(fetched).value().Release();
    }
    const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
    for (size_t m = 0; m < std::size(kMonotonic); ++m) {
      const uint64_t now = counter_value(snapshot, kMonotonic[m]);
      EXPECT_GE(now, last[m]) << kMonotonic[m] << " went backwards in round "
                              << round;
      last[m] = now;
    }
  }
  const ShardStats stats = service.AggregateStats();
  EXPECT_GT(stats.quarantined_frames, 0u)
      << "the profile must actually quarantine mid-run";
  // Final exported totals equal the live sources (no under-report).
  const obs::MetricsSnapshot final_snapshot = service.MetricsSnapshot();
  EXPECT_EQ(counter_value(final_snapshot, "svc.disk_reads"), stats.io.reads);
  EXPECT_EQ(counter_value(final_snapshot, "buffer.requests"),
            stats.buffer.requests);
  EXPECT_EQ(counter_value(final_snapshot, "io.quarantined_frames"),
            stats.buffer.io_quarantined_frames);
  // The exported counter set is fixed: faults change values, not names.
  EXPECT_EQ(metric_names(final_snapshot), names_before_faults);
}

TEST_F(BufferServiceTest, StatsTextCountersDoNotDependOnCollectors) {
  // StatsText is a view of the stats structs, so collect_metrics may add
  // histograms, gauges and the policies' own counters to the dump, but it
  // never adds, drops or retypes any other series.
  auto series_types = [](const std::string& text) {
    std::map<std::string, std::string> types;  // series name -> TYPE
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      if (!line.starts_with("# TYPE ")) continue;
      const size_t space = line.find(' ', 7);
      types[line.substr(7, space - 7)] = line.substr(space + 1);
    }
    return types;
  };
  std::map<std::string, std::string> dumps[2];
  for (const bool collect : {false, true}) {
    storage::DiskManager copy = CopyDisk();
    storage::DiskManager log;
    wal::WalManager wal(&log);
    BufferServiceConfig config;
    config.total_frames = 16;
    config.shard_count = 2;
    config.flusher_threads = 1;
    config.collect_metrics = collect;
    BufferService service(&copy, &wal, config);
    const core::AccessContext ctx{1};
    for (int i = 0; i < 24; ++i) {
      core::StatusOr<core::PageHandle> page = service.New(ctx);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      std::memset(page->bytes().data(), 0x40 + i, page->bytes().size());
      page->MarkDirty();
      page->Release();
      if (i % 4 == 3) {
        ASSERT_TRUE(service.Commit(ctx).ok());
      }
    }
    dumps[collect] = series_types(service.StatsText());
  }
  const std::map<std::string, std::string>& without = dumps[0];
  const std::map<std::string, std::string>& with = dumps[1];
  for (const char* name : {"sdb_wal_flusher_pages", "sdb_io_quarantined_frames",
                           "sdb_buffer_dirty_writebacks",
                           "sdb_buffer_header_decodes", "sdb_wal_commits",
                           "sdb_svc_degraded"}) {
    EXPECT_TRUE(without.contains(name)) << name;
  }
  for (const auto& [name, type] : without) {
    const auto it = with.find(name);
    ASSERT_NE(it, with.end()) << name << " vanishes with collectors on";
    EXPECT_EQ(it->second, type) << name;
  }
  for (const auto& [name, type] : with) {
    if (without.contains(name) || type != "counter") continue;
    EXPECT_TRUE(name.starts_with("sdb_policy_") || name.starts_with("sdb_asb_"))
        << name << ": a counter only collectors export";
  }
}

TEST_F(BufferServiceTest, FullyPinnedShardReturnsResourceExhausted) {
  // A client holding every frame of a shard is an operational condition,
  // not a harness bug: the next fetch that needs a frame gets an error,
  // and succeeds again once a pin is released. Both latch protocols: a
  // read-only (optimistic) and a writable (mutex) service.
  storage::DiskManager copy = CopyDisk();
  storage::DiskManager log;
  wal::WalManager wal(&log);
  for (const bool writable : {false, true}) {
    BufferServiceConfig config;
    config.total_frames = 8;
    config.shard_count = 1;
    const std::unique_ptr<BufferService> owned =
        writable ? std::make_unique<BufferService>(&copy, &wal, config)
                 : std::make_unique<BufferService>(disk(), config);
    BufferService& service = *owned;
    uint64_t query = 0;
    std::vector<core::PageHandle> held;
    for (PageId id = 0; id < config.total_frames; ++id) {
      held.push_back(service.FetchOrDie(id, core::AccessContext{++query}));
    }
    const PageId other = config.total_frames;
    core::StatusOr<core::PageHandle> refused =
        service.Fetch(other, core::AccessContext{++query});
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), core::StatusCode::kResourceExhausted);
    held.front().Release();
    core::StatusOr<core::PageHandle> served =
        service.Fetch(other, core::AccessContext{++query});
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served.value().page_id(), other);
  }
}

TEST_F(BufferServiceTest, NewFailsOnReadOnlyService) {
  BufferServiceConfig config;
  config.total_frames = 8;
  config.shard_count = 2;
  BufferService service(disk(), config);
  core::StatusOr<core::PageHandle> made = service.New(core::AccessContext{1});
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), core::StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace sdb::svc

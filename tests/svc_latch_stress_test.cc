// Soak test of the optimistic latching protocol: 16 worker threads over a
// 16-shard service, mixing single fetches, batched fetches, handle moves
// and detach/manual-unpin — the full pin/unpin surface — over a buffer
// small enough that eviction (the writer side of the version-stamp
// protocol) runs constantly. The suite carries the "tsan" label; under
// ThreadSanitizer it is the latch-stress CI job's main payload.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/disk_manager.h"
#include "svc/buffer_service.h"

namespace sdb::svc {
namespace {

using storage::PageId;

class LatchStressTest : public ::testing::Test {
 protected:
  // Synthetic page universe, sized well above the service's frame floor so
  // the soak constantly evicts (the scenario databases are too small for a
  // 16-shard pool with full batch headroom).
  static constexpr size_t kPages = 4096;

  static void SetUpTestSuite() {
    disk_ = new storage::DiskManager();
    std::vector<std::byte> image(disk_->page_size(), std::byte{0});
    for (size_t i = 0; i < kPages; ++i) {
      image[0] = static_cast<std::byte>(i);
      ASSERT_TRUE(disk_->Write(disk_->AllocateOrDie(), image).ok());
    }
  }
  static void TearDownTestSuite() {
    delete disk_;
    disk_ = nullptr;
  }

  static const storage::DiskManager& disk() { return *disk_; }

  static storage::DiskManager* disk_;
};

storage::DiskManager* LatchStressTest::disk_ = nullptr;

TEST_F(LatchStressTest, SixteenWorkersSixteenShardsSoak) {
  constexpr size_t kWorkers = 16;
  constexpr size_t kShards = 16;
  constexpr size_t kOpsPerWorker = 1500;
  constexpr size_t kBatch = 4;
  const size_t page_count = disk().page_count();
  ASSERT_GT(page_count, 0u);

  BufferServiceConfig config;
  config.shard_count = kShards;
  // Tight: enough headroom for every worker's batch to land in one shard
  // (the unevictable-buffer contract), but small against the page universe
  // so the soak constantly evicts.
  config.total_frames = kShards * (kWorkers * (kBatch + 1) + 1);
  config.policy_spec = "ASB";
  config.event_ring_capacity = 64;  // small ring: force frequent drains
  BufferService service(disk(), config);

  std::atomic<uint64_t> total_fetches{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(0x51e55ull + w);
      uint64_t fetches = 0;
      uint64_t query = w * (uint64_t{1} << 32);
      core::PageHandle held;  // carried across iterations (move semantics)
      for (size_t op = 0; op < kOpsPerWorker; ++op) {
        const core::AccessContext ctx{++query};
        const PageId page =
            static_cast<PageId>(rng.NextBelow(page_count));
        switch (op % 4) {
          case 0: {  // fetch + immediate release
            core::PageHandle handle = service.FetchOrDie(page, ctx);
            ASSERT_EQ(handle.page_id(), page);
            ++fetches;
            break;
          }
          case 1: {  // fetch, hold across the next iteration via move
            core::PageHandle handle = service.FetchOrDie(page, ctx);
            held = std::move(handle);
            EXPECT_FALSE(handle.valid());
            ++fetches;
            break;
          }
          case 2: {  // batched fetch, pages possibly duplicated
            PageId batch[kBatch];
            for (size_t i = 0; i < kBatch; ++i) {
              batch[i] = static_cast<PageId>(
                  (page + i * (i == kBatch - 1 ? 0 : 17)) % page_count);
            }
            std::vector<core::StatusOr<core::PageHandle>> handles;
            service.FetchBatch(batch, ctx, &handles);
            ASSERT_EQ(handles.size(), kBatch);
            for (size_t i = 0; i < kBatch; ++i) {
              ASSERT_TRUE(handles[i].ok());
              EXPECT_EQ(handles[i].value().page_id(), batch[i]);
            }
            fetches += kBatch;
            break;
          }
          case 3: {  // release whatever is held
            held.Release();
            break;
          }
        }
      }
      held.Release();
      total_fetches.fetch_add(fetches, std::memory_order_relaxed);
    });
  }
  for (std::thread& worker : workers) worker.join();

  const ShardStats stats = service.AggregateStats();
  EXPECT_EQ(stats.buffer.requests, total_fetches.load());
  EXPECT_EQ(stats.buffer.hits + stats.buffer.misses, stats.buffer.requests);
  EXPECT_EQ(stats.buffer.misses, stats.io.reads)
      << "every miss costs exactly one device read (fault-free)";
  EXPECT_GT(stats.buffer.evictions, 0u) << "the soak must exercise eviction";
  EXPECT_GT(stats.optimistic_hits, 0u)
      << "the soak must exercise the latch-free hit path";
  // After the storm every pin is released: a full sweep of the page
  // universe must not abort on an unevictable shard.
  uint64_t query = uint64_t{1} << 62;
  for (PageId page = 0; page < page_count; ++page) {
    service.FetchOrDie(page, core::AccessContext{++query}).Release();
  }
}

}  // namespace
}  // namespace sdb::svc

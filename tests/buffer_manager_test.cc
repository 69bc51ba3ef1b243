#include <gtest/gtest.h>

#include <memory>

#include "core/buffer_manager.h"
#include "core/policy_lru.h"
#include "core/policy_spatial.h"
#include "storage/fault_injection.h"
#include "test_util.h"
#include "wal/wal.h"

namespace sdb::core {
namespace {

using storage::DiskManager;
using storage::PageId;
using storage::PageType;
using test::StagePage;
using test::Touch;

std::unique_ptr<BufferManager> MakeLruBuffer(DiskManager& disk,
                                             size_t frames) {
  return std::make_unique<BufferManager>(&disk, frames,
                                         std::make_unique<LruPolicy>());
}

class BufferManagerTest : public ::testing::Test {
 protected:
  void StagePages(int n) {
    for (int i = 0; i < n; ++i) {
      pages_.push_back(StagePage(disk_, PageType::kData, 0,
                                 geom::Rect(0, 0, 1.0 + i, 1.0)));
    }
    disk_.ResetStats();
  }

  DiskManager disk_;
  std::vector<PageId> pages_;
};

TEST_F(BufferManagerTest, MissReadsFromDiskHitDoesNot) {
  StagePages(2);
  auto buffer = MakeLruBuffer(disk_, 4);
  Touch(*buffer, pages_[0], 1);
  EXPECT_EQ(disk_.stats().reads, 1u);
  Touch(*buffer, pages_[0], 2);
  EXPECT_EQ(disk_.stats().reads, 1u);
  Touch(*buffer, pages_[1], 3);
  EXPECT_EQ(disk_.stats().reads, 2u);
  EXPECT_EQ(buffer->stats().requests, 3u);
  EXPECT_EQ(buffer->stats().hits, 1u);
  EXPECT_EQ(buffer->stats().misses, 2u);
}

TEST_F(BufferManagerTest, EvictsWhenFullAndRereadsOnReturn) {
  StagePages(3);
  auto buffer = MakeLruBuffer(disk_, 2);
  Touch(*buffer, pages_[0], 1);
  Touch(*buffer, pages_[1], 2);
  Touch(*buffer, pages_[2], 3);  // evicts pages_[0] (LRU)
  EXPECT_FALSE(buffer->Contains(pages_[0]));
  EXPECT_TRUE(buffer->Contains(pages_[1]));
  EXPECT_TRUE(buffer->Contains(pages_[2]));
  EXPECT_EQ(buffer->stats().evictions, 1u);
  Touch(*buffer, pages_[0], 4);  // miss again
  EXPECT_EQ(disk_.stats().reads, 4u);
}

TEST_F(BufferManagerTest, PinnedPageIsNotEvicted) {
  StagePages(3);
  auto buffer = MakeLruBuffer(disk_, 2);
  const AccessContext ctx{1};
  PageHandle pinned = buffer->FetchOrDie(pages_[0], ctx);  // stays pinned
  Touch(*buffer, pages_[1], 2);
  Touch(*buffer, pages_[2], 3);  // must evict pages_[1], not the pinned one
  EXPECT_TRUE(buffer->Contains(pages_[0]));
  EXPECT_FALSE(buffer->Contains(pages_[1]));
  pinned.Release();
}

TEST_F(BufferManagerTest, DirtyPageIsWrittenBackOnEviction) {
  StagePages(2);
  auto buffer = MakeLruBuffer(disk_, 1);
  {
    const AccessContext ctx{1};
    PageHandle handle = buffer->FetchOrDie(pages_[0], ctx);
    handle.bytes()[100] = std::byte{0x77};
    handle.MarkDirty();
  }
  Touch(*buffer, pages_[1], 2);  // evicts the dirty page
  EXPECT_EQ(disk_.stats().writes, 1u);
  EXPECT_EQ(buffer->stats().dirty_writebacks, 1u);
  // The modification survived the round trip.
  const AccessContext ctx{3};
  PageHandle handle = buffer->FetchOrDie(pages_[0], ctx);
  EXPECT_EQ(handle.bytes()[100], std::byte{0x77});
}

TEST_F(BufferManagerTest, CleanEvictionDoesNotWrite) {
  StagePages(2);
  auto buffer = MakeLruBuffer(disk_, 1);
  Touch(*buffer, pages_[0], 1);
  Touch(*buffer, pages_[1], 2);
  EXPECT_EQ(disk_.stats().writes, 0u);
}

TEST_F(BufferManagerTest, NewAllocatesPinnedZeroedPage) {
  StagePages(0);
  auto buffer = MakeLruBuffer(disk_, 2);
  const AccessContext ctx{1};
  PageHandle handle = buffer->NewOrDie(ctx);
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(disk_.stats().reads, 0u) << "New must not read";
  for (std::byte b : handle.bytes()) EXPECT_EQ(b, std::byte{0});
  const PageId id = handle.page_id();
  handle.Release();
  buffer->FlushAll();
  EXPECT_EQ(disk_.stats().writes, 1u) << "new pages reach disk on flush";
  EXPECT_TRUE(buffer->Contains(id));
}

TEST_F(BufferManagerTest, FlushAllWritesEveryDirtyPageOnce) {
  StagePages(3);
  auto buffer = MakeLruBuffer(disk_, 3);
  for (int i = 0; i < 3; ++i) {
    const AccessContext ctx{static_cast<uint64_t>(i + 1)};
    PageHandle handle = buffer->FetchOrDie(pages_[i], ctx);
    handle.MarkDirty();
  }
  buffer->FlushAll();
  EXPECT_EQ(disk_.stats().writes, 3u);
  buffer->FlushAll();  // now clean
  EXPECT_EQ(disk_.stats().writes, 3u);
}

TEST_F(BufferManagerTest, GetMetaReflectsInPlaceModification) {
  StagePages(1);
  auto buffer = MakeLruBuffer(disk_, 2);
  const AccessContext ctx{1};
  PageHandle handle = buffer->FetchOrDie(pages_[0], ctx);
  storage::PageHeaderView header = handle.header();
  header.set_level(7);
  geom::EntryAggregates agg;
  agg.mbr = geom::Rect(0, 0, 9, 9);
  header.set_aggregates(agg);
  handle.MarkDirty();
  // The policy-facing metadata must see the new values immediately.
  const storage::PageMeta meta = buffer->GetMeta(/*frame=*/0);
  EXPECT_EQ(meta.level, 7);
  EXPECT_EQ(meta.mbr, geom::Rect(0, 0, 9, 9));
}

TEST_F(BufferManagerTest, HandleMoveTransfersThePin) {
  StagePages(2);
  auto buffer = MakeLruBuffer(disk_, 1);
  const AccessContext ctx{1};
  PageHandle a = buffer->FetchOrDie(pages_[0], ctx);
  PageHandle b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): post-move test
  EXPECT_TRUE(b.valid());
  b.Release();
  // Pin released exactly once: the frame is evictable again.
  Touch(*buffer, pages_[1], 2);
  EXPECT_TRUE(buffer->Contains(pages_[1]));
}

TEST_F(BufferManagerTest, RepinningSamePageCounts) {
  StagePages(2);
  auto buffer = MakeLruBuffer(disk_, 1);
  const AccessContext ctx{1};
  PageHandle a = buffer->FetchOrDie(pages_[0], ctx);
  PageHandle b = buffer->FetchOrDie(pages_[0], ctx);
  a.Release();
  // Still pinned through b; with a single frame, fetching another page must
  // abort (no evictable frame) — checked via death below, here we just
  // confirm b still works.
  EXPECT_EQ(b.page_id(), pages_[0]);
  b.Release();
  Touch(*buffer, pages_[1], 2);
  EXPECT_TRUE(buffer->Contains(pages_[1]));
}

TEST_F(BufferManagerTest, ResetStatsClearsCounters) {
  StagePages(1);
  auto buffer = MakeLruBuffer(disk_, 1);
  Touch(*buffer, pages_[0], 1);
  buffer->ResetStats();
  EXPECT_EQ(buffer->stats().requests, 0u);
  EXPECT_EQ(buffer->stats().hits, 0u);
  EXPECT_EQ(buffer->stats().misses, 0u);
}

TEST_F(BufferManagerTest, HitRateComputation) {
  BufferStats stats;
  EXPECT_EQ(stats.HitRate(), 0.0);
  stats.requests = 10;
  stats.hits = 4;
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.4);
}

TEST_F(BufferManagerTest, MetaCacheServesVictimScansWithoutDecodes) {
  // Victim scans of metadata-consuming policies go through GetMeta once per
  // resident frame per eviction. With the per-frame cache, pages that were
  // not modified since load are served from the cache: a read-only workload
  // performs zero header decodes on behalf of GetMeta, no matter how many
  // evictions run.
  StagePages(8);
  auto buffer = std::make_unique<BufferManager>(
      &disk_, 4, std::make_unique<SpatialPolicy>(SpatialCriterion::kArea));
  uint64_t query = 0;
  for (int round = 0; round < 3; ++round) {
    for (const PageId page : pages_) Touch(*buffer, page, ++query);
  }
  EXPECT_GT(buffer->stats().evictions, 10u);
  EXPECT_EQ(buffer->header_decodes(), 0u);
}

TEST_F(BufferManagerTest, MetaCacheRedecodesOnceAfterInvalidation) {
  StagePages(1);
  auto buffer = std::make_unique<BufferManager>(
      &disk_, 2, std::make_unique<SpatialPolicy>(SpatialCriterion::kArea));
  const AccessContext ctx{1};
  PageHandle handle = buffer->FetchOrDie(pages_[0], ctx);
  EXPECT_EQ(buffer->header_decodes(), 0u) << "load fill is not a decode";
  buffer->GetMeta(0);
  EXPECT_EQ(buffer->header_decodes(), 0u) << "served from the load fill";
  handle.MarkDirty();  // invalidates
  buffer->GetMeta(0);
  buffer->GetMeta(0);
  EXPECT_EQ(buffer->header_decodes(), 1u)
      << "one re-decode, then cached again";
}

TEST_F(BufferManagerTest, FailedFetchLeavesNoPinBehind) {
  StagePages(3);
  storage::FaultProfile profile;
  profile.bad_begin = pages_[0];
  profile.bad_end = pages_[0] + 1;
  storage::FaultInjectingDevice device(disk_, profile);
  // Two frames, quarantine cap = 1: the first bad fetch quarantines its
  // frame, after which one frame must still cycle both healthy pages —
  // which only works if the failed fetch released every claim it held.
  BufferManager buffer(&device, 2, std::make_unique<LruPolicy>());
  ASSERT_FALSE(buffer.Fetch(pages_[0], AccessContext{1}).ok());
  ASSERT_EQ(buffer.quarantined_count(), 1u);
  for (uint64_t q = 2; q < 8; ++q) {
    const PageId page = pages_[1 + (q % 2)];
    PageHandle handle = buffer.FetchOrDie(page, AccessContext{q});
    ASSERT_TRUE(handle.valid());
  }
}

using BufferManagerDeathTest = BufferManagerTest;

TEST_F(BufferManagerDeathTest, AllPinnedAborts) {
  StagePages(2);
  auto buffer = MakeLruBuffer(disk_, 1);
  const AccessContext ctx{1};
  PageHandle pinned = buffer->FetchOrDie(pages_[0], ctx);
  EXPECT_DEATH(Touch(*buffer, pages_[1], 2), "no evictable frame");
  pinned.Release();
}

TEST_F(BufferManagerDeathTest, ConcurrentBufferRefusesTheWritePath) {
  // A concurrent buffer is a read-only service shard: its latch-free
  // readers must never race the write path, in either attach order.
  DiskManager log;
  wal::WalManager wal(&log);
  auto logged = MakeLruBuffer(disk_, 4);
  logged->AttachWal(&wal);
  EXPECT_DEATH(logged->EnableConcurrency({}), "read-only shard");
  auto concurrent = MakeLruBuffer(disk_, 4);
  concurrent->EnableConcurrency({});
  EXPECT_DEATH(concurrent->AttachWal(&wal), "read-only shard");
  EXPECT_DEATH(concurrent->EnableBackgroundWriteback(0.10),
               "read-only shard");
}

}  // namespace
}  // namespace sdb::core

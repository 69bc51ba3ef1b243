// The buffer-manager write path end to end: dirty tracking and recovery
// LSNs, the write-ahead rule on eviction (including forced steals and
// re-logging after a redirty), typed Evict refusals, the dirty-pin
// lifecycle edges around quarantine, the writable sharded BufferService
// (New / Commit / Checkpoint across shards), a churn-then-crash-then-
// recover round trip through the R-tree, and the read-only (optimistic)
// vs writable (mutex) serial-equality regression for held page groups.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/buffer_manager.h"
#include "core/policy_lru.h"
#include "geom/rect.h"
#include "rtree/rtree.h"
#include "sim/churn.h"
#include "storage/crc32c.h"
#include "storage/disk_manager.h"
#include "storage/disk_view.h"
#include "storage/fault_injection.h"
#include "svc/buffer_service.h"
#include "svc/flush_coordinator.h"
#include "test_util.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace sdb {
namespace {

using core::AccessContext;
using core::BufferManager;
using core::EvictStatus;
using core::PageHandle;
using storage::DiskManager;
using storage::PageId;
using storage::PageType;

/// The CI flusher soak varies the churn seed run-to-run; locally the
/// default is fixed so failures reproduce.
uint64_t SoakSeed(uint64_t fallback) {
  if (const char* env = std::getenv("SDB_SOAK_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

std::unique_ptr<BufferManager> MakeBuffer(storage::PageDevice& disk,
                                          size_t frames) {
  return std::make_unique<BufferManager>(&disk, frames,
                                         std::make_unique<core::LruPolicy>());
}

void FillPage(PageHandle& handle, uint8_t fill) {
  std::memset(handle.bytes().data(), fill, handle.bytes().size());
  handle.MarkDirty();
}

std::vector<std::byte> ReadPage(DiskManager& disk, PageId page) {
  std::vector<std::byte> out(disk.page_size());
  SDB_CHECK(disk.Read(page, out).ok());
  return out;
}

class WritePathTest : public ::testing::Test {
 protected:
  WritePathTest() : wal_(&log_) {}

  DiskManager disk_;
  DiskManager log_;
  wal::WalManager wal_;
  AccessContext ctx_{1};
};

TEST_F(WritePathTest, NewPinsAZeroedDirtyFrame) {
  auto buffer = MakeBuffer(disk_, 4);
  buffer->AttachWal(&wal_);
  core::StatusOr<PageHandle> page = buffer->New(ctx_);
  ASSERT_TRUE(page.ok());
  for (const std::byte b : page->bytes()) {
    ASSERT_EQ(b, std::byte{0});
  }
  EXPECT_EQ(buffer->dirty_count(), 1u);
  page->Release();
}

TEST_F(WritePathTest, CommitKeepsFramesDirtyButCheapToEvict) {
  auto buffer = MakeBuffer(disk_, 4);
  buffer->AttachWal(&wal_);
  PageHandle page = buffer->NewOrDie(ctx_);
  const PageId id = page.page_id();
  FillPage(page, 0x5A);
  page.Release();

  ASSERT_TRUE(buffer->Commit(ctx_).ok());
  EXPECT_EQ(wal_.stats().commits, 1u);
  EXPECT_EQ(wal_.stats().appends, 2u);  // one image + the commit record
  EXPECT_EQ(buffer->dirty_count(), 1u) << "commit does not write back";

  // The committed frame evicts without a steal: its image is in the log.
  EXPECT_EQ(buffer->Evict(id), EvictStatus::kOk);
  EXPECT_EQ(wal_.stats().forced_steals, 0u);
  EXPECT_FALSE(buffer->Contains(id));
  EXPECT_EQ(ReadPage(disk_, id)[0], std::byte{0x5A});
  EXPECT_EQ(buffer->stats().dirty_writebacks, 1u);
}

TEST_F(WritePathTest, EvictingUnloggedDirtyFrameForcesASteal) {
  auto buffer = MakeBuffer(disk_, 4);
  buffer->AttachWal(&wal_);
  PageHandle page = buffer->NewOrDie(ctx_);
  const PageId id = page.page_id();
  FillPage(page, 0x7C);
  page.Release();

  EXPECT_EQ(buffer->Evict(id), EvictStatus::kOk);
  EXPECT_EQ(wal_.stats().forced_steals, 1u)
      << "a dirty-unlogged victim must commit its own image first";
  EXPECT_EQ(ReadPage(disk_, id)[0], std::byte{0x7C});

  // The steal is a real commit: recovery replays it onto a fresh device.
  DiskManager recovered;
  const core::StatusOr<wal::RecoveryResult> result =
      wal::Recover(log_, recovered);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->replayed_pages, 1u);
  EXPECT_EQ(ReadPage(recovered, id)[0], std::byte{0x7C});
}

TEST_F(WritePathTest, RedirtyAfterCommitForcesRelogOnEviction) {
  auto buffer = MakeBuffer(disk_, 4);
  buffer->AttachWal(&wal_);
  PageHandle page = buffer->NewOrDie(ctx_);
  const PageId id = page.page_id();
  FillPage(page, 0xA1);
  page.Release();
  ASSERT_TRUE(buffer->Commit(ctx_).ok());

  // Redirty the already-logged frame; its logged image (0xA1) is now stale.
  {
    PageHandle again = buffer->FetchOrDie(id, ctx_);
    FillPage(again, 0xB2);
  }
  EXPECT_EQ(buffer->Evict(id), EvictStatus::kOk);
  EXPECT_EQ(wal_.stats().forced_steals, 1u)
      << "eviction must re-log the new bytes, not reuse the stale image";
  EXPECT_EQ(ReadPage(disk_, id)[0], std::byte{0xB2});

  DiskManager recovered;
  ASSERT_TRUE(wal::Recover(log_, recovered).ok());
  EXPECT_EQ(ReadPage(recovered, id)[0], std::byte{0xB2})
      << "last committed image wins during redo";
}

TEST_F(WritePathTest, EvictRefusalsAreTyped) {
  auto buffer = MakeBuffer(disk_, 4);
  buffer->AttachWal(&wal_);
  EXPECT_EQ(buffer->Evict(PageId{999}), EvictStatus::kNotResident);

  PageHandle page = buffer->NewOrDie(ctx_);
  const PageId id = page.page_id();
  EXPECT_EQ(buffer->Evict(id), EvictStatus::kPinned);
  EXPECT_TRUE(buffer->Contains(id)) << "a refusal leaves the page resident";
  page.Release();
  EXPECT_EQ(buffer->Evict(id), EvictStatus::kOk);
}

/// Device whose writes can be made to fail on demand (reads pass through).
class WriteFailingDevice final : public storage::PageDevice {
 public:
  explicit WriteFailingDevice(DiskManager& base) : base_(&base) {}

  size_t page_size() const override { return base_->page_size(); }
  core::StatusOr<PageId> Allocate() override { return base_->Allocate(); }
  core::Status Read(PageId id, std::span<std::byte> out) override {
    return base_->Read(id, out);
  }
  core::Status Write(PageId id, std::span<const std::byte> in) override {
    if (fail_writes) {
      return core::Status(core::StatusCode::kDataLoss, "injected write fail");
    }
    return base_->Write(id, in);
  }
  size_t page_count() const override { return base_->page_count(); }
  const storage::IoStats& stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

  bool fail_writes = true;

 private:
  DiskManager* base_;
};

TEST_F(WritePathTest, EvictReportsWriteBackFailure) {
  DiskManager base;
  const PageId id = test::StagePage(base, PageType::kData, 0,
                                    geom::Rect(0, 0, 1, 1));
  WriteFailingDevice device(base);
  auto buffer = MakeBuffer(device, 2);
  {
    PageHandle page = buffer->FetchOrDie(id, ctx_);
    FillPage(page, 0xEE);
  }
  EXPECT_EQ(buffer->Evict(id), EvictStatus::kWriteBackFailed);
  EXPECT_TRUE(buffer->Contains(id)) << "a failed eviction keeps the page";
  EXPECT_EQ(buffer->dirty_count(), 1u) << "…and keeps it dirty";
  // Heal the device: the retried eviction now drains the frame.
  device.fail_writes = false;
  EXPECT_EQ(buffer->Evict(id), EvictStatus::kOk);
  EXPECT_EQ(ReadPage(base, id)[0], std::byte{0xEE});
}

TEST_F(WritePathTest, CheckpointMakesTheDeviceMatchTheCommittedState) {
  auto buffer = MakeBuffer(disk_, 4);
  buffer->AttachWal(&wal_);
  PageHandle a = buffer->NewOrDie(ctx_);
  const PageId id_a = a.page_id();
  FillPage(a, 0x11);
  a.Release();
  ASSERT_TRUE(buffer->Checkpoint(ctx_).ok());
  EXPECT_EQ(wal_.stats().checkpoints, 1u);
  EXPECT_EQ(buffer->dirty_count(), 0u);
  EXPECT_EQ(ReadPage(disk_, id_a)[0], std::byte{0x11});

  // Post-checkpoint commit; crash here. Recovery onto the checkpointed
  // device replays only the post-checkpoint group.
  PageHandle b = buffer->NewOrDie(ctx_);
  const PageId id_b = b.page_id();
  FillPage(b, 0x22);
  b.Release();
  ASSERT_TRUE(buffer->Commit(ctx_).ok());

  const core::StatusOr<wal::RecoveryResult> result =
      wal::Recover(log_, disk_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->replayed_pages, 1u)
      << "pre-checkpoint images are already on the device";
  EXPECT_EQ(ReadPage(disk_, id_b)[0], std::byte{0x22});

  // Quiesce the buffer before teardown (it still holds dirty frame b).
  ASSERT_TRUE(buffer->ForceDirty(ctx_).ok());
}

TEST_F(WritePathTest, FlushAllCommitsBeforeWritingBack) {
  {
    auto buffer = MakeBuffer(disk_, 4);
    buffer->AttachWal(&wal_);
    PageHandle page = buffer->NewOrDie(ctx_);
    FillPage(page, 0x33);
    page.Release();
    // Destructor runs FlushAll: with a WAL attached that must commit first
    // (write-ahead rule), then write back.
  }
  EXPECT_EQ(wal_.stats().commits, 1u);
  EXPECT_EQ(wal_.stats().forced_steals, 0u)
      << "FlushAll commits as one group, not per-frame steals";
  EXPECT_EQ(ReadPage(disk_, 0)[0], std::byte{0x33});
}

// ---------------------------------------------------------------------------
// Background write-back: FlushOldestDirty and eviction victim preference

TEST_F(WritePathTest, HarvestSelectsLoggedUnpinnedDirtyOldestFirst) {
  auto buffer = MakeBuffer(disk_, 8);
  buffer->AttachWal(&wal_);
  buffer->EnableBackgroundWriteback(0.10);

  // Pages A and B start clean on the device, A with the lower page id.
  PageHandle a = buffer->NewOrDie(ctx_);
  const PageId id_a = a.page_id();
  a.Release();
  PageHandle b = buffer->NewOrDie(ctx_);
  const PageId id_b = b.page_id();
  b.Release();
  ASSERT_TRUE(buffer->Checkpoint(ctx_).ok());
  ASSERT_LT(id_a, id_b);
  // B is dirtied and committed first, so its rec_lsn is the older one: the
  // order by age is the reverse of the order by page id.
  b = buffer->FetchOrDie(id_b, ctx_);
  FillPage(b, 0x0B);
  b.Release();
  ASSERT_TRUE(buffer->Commit(ctx_).ok());
  a = buffer->FetchOrDie(id_a, ctx_);
  FillPage(a, 0x0A);
  a.Release();
  ASSERT_TRUE(buffer->Commit(ctx_).ok());
  // Page C: dirty but never committed (unlogged) AND still pinned — two
  // independent reasons the round must pass it over.
  PageHandle c = buffer->NewOrDie(ctx_);
  FillPage(c, 0x0C);
  ASSERT_EQ(buffer->dirty_count(), 3u);

  core::StatusOr<size_t> flushed = buffer->FlushOldestDirty(1, ctx_);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, 1u) << "the cap bounds one round";
  EXPECT_EQ(ReadPage(disk_, id_b)[0], std::byte{0x0B})
      << "oldest rec_lsn first";
  EXPECT_EQ(ReadPage(disk_, id_a)[0], std::byte{0x00})
      << "the younger page waits for the next round";
  flushed = buffer->FlushOldestDirty(8, ctx_);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, 1u) << "the next round writes the second page";
  EXPECT_EQ(ReadPage(disk_, id_a)[0], std::byte{0x0A});
  EXPECT_EQ(buffer->dirty_count(), 1u)
      << "only the pinned, unlogged page stays dirty";
  EXPECT_EQ(buffer->stats().sync_writeback_fallbacks, 0u)
      << "background flushing is not a fallback";
  EXPECT_EQ(wal_.stats().forced_steals, 0u)
      << "writing logged-only frames never steals";

  // A further round finds nothing: the written frames are clean, C is
  // pinned and unlogged.
  flushed = buffer->FlushOldestDirty(8, ctx_);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, 0u);
  c.Release();
}

TEST_F(WritePathTest, FlushOldestDirtyIdlesUnlessAboveTheLowWatermark) {
  auto buffer = MakeBuffer(disk_, 8);
  buffer->AttachWal(&wal_);
  std::vector<PageId> ids;
  const auto dirty_and_commit = [&](uint8_t fill) {
    PageHandle page = buffer->NewOrDie(ctx_);
    ids.push_back(page.page_id());
    FillPage(page, fill);
    page.Release();
    ASSERT_TRUE(buffer->Commit(ctx_).ok());
  };

  dirty_and_commit(0x21);
  core::StatusOr<size_t> flushed = buffer->FlushOldestDirty(8, ctx_);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, 0u) << "background write-back is off";

  buffer->EnableBackgroundWriteback(0.25);
  flushed = buffer->FlushOldestDirty(8, ctx_);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, 0u) << "1 of 8 frames dirty: below the low watermark";
  dirty_and_commit(0x22);
  flushed = buffer->FlushOldestDirty(8, ctx_);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, 0u) << "2 of 8 frames dirty: at the low watermark";
  EXPECT_EQ(buffer->dirty_count(), 2u);

  dirty_and_commit(0x23);
  flushed = buffer->FlushOldestDirty(8, ctx_);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, 3u) << "3 of 8 frames dirty: above it, all go";
  EXPECT_EQ(buffer->dirty_count(), 0u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ReadPage(disk_, ids[i])[0], std::byte(0x21 + i));
  }
}

TEST_F(WritePathTest, EvictionPrefersCleanVictimsUnderTheHighWatermark) {
  // 4-frame pool holding two dirty committed pages (LRU-oldest) and two
  // clean pages. With write-back configured and the dirty ratio at the
  // high watermark, eviction must pass over the dirty frames and take a
  // clean victim — zero foreground device writes.
  DiskManager base;
  const PageId clean_a = test::StagePage(base, PageType::kData, 0,
                                         geom::Rect(0, 0, 1, 1));
  const PageId clean_b = test::StagePage(base, PageType::kData, 0,
                                         geom::Rect(0, 0, 2, 1));
  const PageId extra = test::StagePage(base, PageType::kData, 0,
                                       geom::Rect(0, 0, 3, 1));
  DiskManager log;
  wal::WalManager wal(&log);
  auto buffer = MakeBuffer(base, 4);
  buffer->AttachWal(&wal);
  buffer->EnableBackgroundWriteback(0.10);

  PageHandle dirty_a = buffer->NewOrDie(ctx_);
  const PageId id_a = dirty_a.page_id();
  FillPage(dirty_a, 0xA1);
  dirty_a.Release();
  PageHandle dirty_b = buffer->NewOrDie(ctx_);
  const PageId id_b = dirty_b.page_id();
  FillPage(dirty_b, 0xB2);
  dirty_b.Release();
  ASSERT_TRUE(buffer->Commit(ctx_).ok());
  buffer->FetchOrDie(clean_a, ctx_).Release();
  buffer->FetchOrDie(clean_b, ctx_).Release();

  // dirty ratio 2/4 == watermark 0.5: not yet past it, so prefer clean.
  buffer->FetchOrDie(extra, ctx_).Release();
  EXPECT_TRUE(buffer->Contains(id_a)) << "dirty frames were passed over";
  EXPECT_TRUE(buffer->Contains(id_b));
  EXPECT_FALSE(buffer->Contains(clean_a)) << "the oldest CLEAN page went";
  EXPECT_EQ(buffer->stats().sync_writeback_fallbacks, 0u);
  EXPECT_EQ(buffer->stats().dirty_writebacks, 0u)
      << "no device write on the foreground path";
  ASSERT_TRUE(buffer->ForceDirty(ctx_).ok());
}

TEST_F(WritePathTest, SyncWritebackFallbackIsCountedPastTheHighWatermark) {
  DiskManager base;
  const PageId staged = test::StagePage(base, PageType::kData, 0,
                                        geom::Rect(0, 0, 1, 1));
  DiskManager log;
  wal::WalManager wal(&log);
  auto buffer = MakeBuffer(base, 4);
  buffer->AttachWal(&wal);
  buffer->EnableBackgroundWriteback(0.10);

  // Three of four frames dirty: past the 0.5 high watermark, so eviction
  // stops preferring clean victims and writes back in the foreground —
  // correct, but counted, because steady state should never get here.
  std::vector<PageId> ids;
  for (uint8_t i = 0; i < 3; ++i) {
    PageHandle page = buffer->NewOrDie(ctx_);
    ids.push_back(page.page_id());
    FillPage(page, static_cast<uint8_t>(0x10 + i));
    page.Release();
  }
  ASSERT_TRUE(buffer->Commit(ctx_).ok());
  buffer->FetchOrDie(staged, ctx_).Release();  // fills the 4th frame, clean

  // The LRU victim is ids[0] — dirty and logged. Past the watermark the
  // clean-preference scan is off, so the eviction writes it back inline.
  PageHandle fresh = buffer->NewOrDie(ctx_);
  fresh.Release();
  EXPECT_FALSE(buffer->Contains(ids[0]));
  EXPECT_EQ(buffer->stats().sync_writeback_fallbacks, 1u);
  EXPECT_EQ(buffer->stats().dirty_writebacks, 1u);
  EXPECT_EQ(ReadPage(base, ids[0])[0], std::byte{0x10});
  ASSERT_TRUE(buffer->ForceDirty(ctx_).ok());
}

// ---------------------------------------------------------------------------
// Writable sharded service

svc::BufferServiceConfig WritableConfig(size_t shards, size_t frames) {
  svc::BufferServiceConfig config;
  config.shard_count = shards;
  config.total_frames = frames;
  config.policy_spec = "LRU";
  return config;
}

TEST(DiskManagerTest, ReadsTakeNoLockBesideAnAllocatingWriter) {
  // One thread allocates and fills pages while the directory grows through
  // a dozen segments; two others read, without the device mutex, pages
  // below the count they observe. The newest page may still be in its
  // Write, so readers stop one short of the count; every older page was
  // written before the allocation that published the count.
  DiskManager disk;
  std::mutex device_mu;
  constexpr size_t kPages = 3000;
  const auto fill = [](PageId id, size_t b) {
    return static_cast<std::byte>((id * 31 + b) & 0xFF);
  };
  std::atomic<bool> done{false};
  std::thread writer([&] {
    storage::WritableDiskView view(disk, device_mu);
    std::vector<std::byte> page(disk.page_size());
    for (size_t i = 0; i < kPages; ++i) {
      const PageId id = view.AllocateOrDie();
      for (size_t b = 0; b < page.size(); ++b) page[b] = fill(id, b);
      EXPECT_TRUE(view.Write(id, page).ok()) << id;
    }
    done.store(true);
  });
  const auto reader = [&](uint64_t seed, size_t* checked) {
    storage::WritableDiskView view(disk, device_mu);
    std::vector<std::byte> out(disk.page_size());
    Rng rng(seed);
    while (!done.load() || *checked < 500) {
      const size_t count = view.page_count();
      if (count < 2) continue;
      const auto id = static_cast<PageId>(rng.NextBelow(count - 1));
      ASSERT_TRUE(view.Read(id, out).ok());
      ASSERT_EQ(storage::crc32c::Checksum(out), *view.PageChecksum(id)) << id;
      ASSERT_EQ(out[id % out.size()], fill(id, id % out.size())) << id;
      ++*checked;
    }
  };
  size_t checked[2] = {0, 0};
  std::thread first(reader, 1, &checked[0]);
  std::thread second(reader, 2, &checked[1]);
  writer.join();
  first.join();
  second.join();
  EXPECT_EQ(disk.page_count(), kPages);
  EXPECT_GE(checked[0], 500u);
  EXPECT_GE(checked[1], 500u);
}

TEST(WritableServiceTest, NewAllocatesAcrossShardsAndCommitIsOneGroup) {
  DiskManager disk;
  DiskManager log;
  wal::WalManager wal(&log);
  svc::BufferService service(&disk, &wal, WritableConfig(4, 64));
  ASSERT_TRUE(service.writable());
  const AccessContext ctx{9};

  std::vector<PageId> pages;
  for (int i = 0; i < 12; ++i) {
    core::StatusOr<PageHandle> page = service.New(ctx);
    ASSERT_TRUE(page.ok());
    std::memset(page->bytes().data(), 0x40 + i, page->bytes().size());
    page->MarkDirty();
    pages.push_back(page->page_id());
    page->Release();
  }
  EXPECT_EQ(disk.page_count(), 12u);

  // One commit covers the dirty pages of every shard atomically.
  ASSERT_TRUE(service.Commit(ctx).ok());
  EXPECT_EQ(wal.stats().commits, 1u);
  EXPECT_EQ(wal.stats().appends, 13u);  // 12 images + 1 commit record

  // Byte-exactness of redo: replaying the (pre-checkpoint) log onto a
  // fresh device reproduces all 12 committed pages.
  {
    DiskManager recovered;
    ASSERT_TRUE(wal::Recover(log, recovered).ok());
    ASSERT_EQ(recovered.page_count(), disk.page_count());
    for (int i = 0; i < 12; ++i) {
      EXPECT_EQ(ReadPage(recovered, pages[i])[0],
                std::byte{static_cast<uint8_t>(0x40 + i)});
    }
  }

  // Checkpoint forces the same bytes onto the data device — and from then
  // on recovery of the log replays nothing (the checkpoint asserts the
  // device already holds the committed state).
  ASSERT_TRUE(service.Checkpoint(ctx).ok());
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(ReadPage(disk, pages[i])[0],
              std::byte{static_cast<uint8_t>(0x40 + i)});
  }
  DiskManager post_checkpoint;
  const core::StatusOr<wal::RecoveryResult> result =
      wal::Recover(log, post_checkpoint);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->replayed_pages, 0u);
}

TEST(WritableServiceTest, ReadOnlyServiceStillRefusesNew) {
  DiskManager disk;
  test::StagePage(disk, PageType::kData, 0, geom::Rect(0, 0, 1, 1));
  svc::BufferService service(disk, WritableConfig(2, 16));
  EXPECT_FALSE(service.writable());
  const core::StatusOr<PageHandle> page = service.New(AccessContext{1});
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), core::StatusCode::kUnimplemented);
  EXPECT_EQ(service.Commit().code(), core::StatusCode::kUnimplemented);
}

/// Churn an R-tree through the writable service with periodic commits and
/// checkpoints, crash (snapshot devices mid-flight), recover, and demand
/// the recovered tree equals the last committed tree: valid structure and
/// the exact same query answer.
TEST(WritableServiceTest, ChurnCrashRecoverRoundTrip) {
  const geom::Rect space(0, 0, 100, 100);
  DiskManager disk;
  DiskManager log;
  wal::WalManager wal(&log);
  svc::BufferService service(&disk, &wal, WritableConfig(2, 128));
  const AccessContext ctx{3};

  rtree::RTree tree(&disk, &service);
  sim::ChurnOptions options;
  options.operations = 400;
  options.delete_fraction = 0.35;
  options.seed = 1234;
  options.commit_every = 25;
  options.checkpoint_every = 100;
  sim::ChurnHooks hooks;
  hooks.commit = [&] {
    tree.PersistMeta();
    return service.Commit(ctx);
  };
  hooks.checkpoint = [&] {
    tree.PersistMeta();
    return service.Checkpoint(ctx);
  };
  const core::StatusOr<sim::ChurnResult> churn =
      sim::RunChurn(tree, space, options, hooks, ctx);
  ASSERT_TRUE(churn.ok());
  EXPECT_GT(churn->inserts, 0u);
  EXPECT_GT(churn->deletes, 0u);
  EXPECT_GT(churn->checkpoints, 0u);

  // Final commit: this is the state recovery must reproduce.
  tree.PersistMeta();
  ASSERT_TRUE(service.Commit(ctx).ok());
  const std::vector<rtree::Entry> committed = tree.WindowQuery(space, ctx);
  EXPECT_EQ(committed.size(), churn->live);

  // Crash: snapshot both devices while the service still holds dirty
  // frames, then recover the snapshots. SaveImage walks the device without
  // flushing anything, which is exactly a power-cut's view.
  const std::string data_path = ::testing::TempDir() + "/churn_data.img";
  const std::string log_path = ::testing::TempDir() + "/churn_log.img";
  ASSERT_TRUE(disk.SaveImage(data_path));
  ASSERT_TRUE(log.SaveImage(log_path));
  auto crashed_data = DiskManager::LoadImage(data_path);
  auto crashed_log = DiskManager::LoadImage(log_path);
  ASSERT_TRUE(crashed_data.has_value());
  ASSERT_TRUE(crashed_log.has_value());

  const core::StatusOr<wal::RecoveryResult> result =
      wal::Recover(*crashed_log, *crashed_data);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->torn_tail);
  EXPECT_GT(result->replayed_pages, 0u);

  // Reopen the recovered database read-only and compare against the
  // committed answer.
  svc::BufferServiceConfig read_config = WritableConfig(2, 128);
  svc::BufferService reader(*crashed_data, read_config);
  rtree::RTree recovered =
      rtree::RTree::Open(&*crashed_data, &reader, tree.meta_page());
  EXPECT_EQ(recovered.Validate(), "");
  std::vector<rtree::Entry> replayed = recovered.WindowQuery(space, ctx);
  ASSERT_EQ(replayed.size(), committed.size());
  auto by_id = [](const rtree::Entry& a, const rtree::Entry& b) {
    return a.id < b.id;
  };
  std::vector<rtree::Entry> expected = committed;
  std::sort(expected.begin(), expected.end(), by_id);
  std::sort(replayed.begin(), replayed.end(), by_id);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(replayed[i].id, expected[i].id);
  }

  // Quiesce the writable service before teardown.
  ASSERT_TRUE(service.Checkpoint(ctx).ok());
  std::remove(data_path.c_str());
  std::remove(log_path.c_str());
}

/// Spins until the flusher has written at least `target` pages (bounded).
void WaitForFlushedPages(svc::FlushCoordinator* flusher, uint64_t target) {
  for (int spin = 0; spin < 2000; ++spin) {
    if (flusher->stats().pages_flushed >= target) return;
    flusher->Nudge();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "flusher never reached " << target << " flushed pages";
}

/// Churn through a writable service with the background flusher running
/// (concurrent flush + group commit — the write-ahead rule under real
/// threads), demand zero foreground write-backs and zero steals after
/// warm-up, then crash and recover byte-exactly.
TEST(WritableServiceTest, ChurnWithBackgroundFlusherAvoidsForegroundWrites) {
  const geom::Rect space(0, 0, 100, 100);
  DiskManager disk;
  DiskManager log;
  wal::WalOptions wal_options;
  wal_options.group_commit = true;
  wal::WalManager wal(&log, wal_options);
  svc::BufferServiceConfig config = WritableConfig(2, 128);
  config.flusher_threads = 2;
  config.dirty_low_watermark = 0.0;  // flush whenever anything is dirty
  svc::BufferService service(&disk, &wal, config);
  ASSERT_NE(service.flusher(), nullptr);
  const AccessContext ctx{3};

  rtree::RTree tree(&disk, &service);
  sim::ChurnOptions options;
  options.operations = 600;
  options.delete_fraction = 0.35;
  options.seed = SoakSeed(4321);
  options.commit_every = 20;
  options.warmup_operations = 200;
  uint64_t fallbacks_at_warmup = 0;
  uint64_t steals_at_warmup = 0;
  sim::ChurnHooks hooks;
  hooks.commit = [&] {
    tree.PersistMeta();
    return service.Commit(ctx);
  };
  hooks.on_steady_state = [&] {
    fallbacks_at_warmup =
        service.AggregateStats().buffer.sync_writeback_fallbacks;
    steals_at_warmup = wal.stats().forced_steals;
    return core::Status::Ok();
  };
  const core::StatusOr<sim::ChurnResult> churn =
      sim::RunChurn(tree, space, options, hooks, ctx);
  ASSERT_TRUE(churn.ok());

  tree.PersistMeta();
  ASSERT_TRUE(service.Commit(ctx).ok());
  const std::vector<rtree::Entry> committed = tree.WindowQuery(space, ctx);
  EXPECT_EQ(committed.size(), churn->live);

  // Steady state never touched the device from the foreground path.
  const svc::ShardStats stats = service.AggregateStats();
  EXPECT_EQ(stats.buffer.sync_writeback_fallbacks, fallbacks_at_warmup)
      << "steady state must not fall back to synchronous write-back";
  EXPECT_EQ(wal.stats().forced_steals, steals_at_warmup)
      << "every flushed frame was already logged";
  WaitForFlushedPages(service.flusher(), 1);

  // Crash: stop the flusher (its workers write the data device; a snapshot
  // mid-write would be a race, and a real crash stops them too), snapshot
  // both devices, and recover.
  service.flusher()->Stop();
  const std::string data_path = ::testing::TempDir() + "/flusher_data.img";
  const std::string log_path = ::testing::TempDir() + "/flusher_log.img";
  ASSERT_TRUE(disk.SaveImage(data_path));
  ASSERT_TRUE(log.SaveImage(log_path));
  auto crashed_data = DiskManager::LoadImage(data_path);
  auto crashed_log = DiskManager::LoadImage(log_path);
  ASSERT_TRUE(crashed_data.has_value());
  ASSERT_TRUE(crashed_log.has_value());
  const core::StatusOr<wal::RecoveryResult> result =
      wal::Recover(*crashed_log, *crashed_data);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->replayed_pages, 0u);

  svc::BufferService reader(*crashed_data, WritableConfig(2, 128));
  rtree::RTree recovered =
      rtree::RTree::Open(&*crashed_data, &reader, tree.meta_page());
  EXPECT_EQ(recovered.Validate(), "");
  std::vector<rtree::Entry> replayed = recovered.WindowQuery(space, ctx);
  ASSERT_EQ(replayed.size(), committed.size());
  auto by_id = [](const rtree::Entry& a, const rtree::Entry& b) {
    return a.id < b.id;
  };
  std::vector<rtree::Entry> expected = committed;
  std::sort(expected.begin(), expected.end(), by_id);
  std::sort(replayed.begin(), replayed.end(), by_id);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(replayed[i].id, expected[i].id);
  }

  ASSERT_TRUE(service.Checkpoint(ctx).ok());
  std::remove(data_path.c_str());
  std::remove(log_path.c_str());
}

// ---------------------------------------------------------------------------
// Optimistic hits must keep each shard's access order

/// Serial-equality regression: one thread, identical sequences of 6-page
/// groups held until the group ends, a writable (mutex) service and a
/// read-only (optimistic) service over the same pages must report
/// bit-identical hit/miss counts. The optimistic path serves hits
/// latch-free and defers their policy events; if a deferred hit reached
/// the policy out of order with a latched miss, LRU state — and with it
/// every subsequent eviction — would diverge.
TEST(WritableServiceTest, OptimisticGroupsMatchMutexHitForHitSerially) {
  DiskManager disk;
  std::vector<PageId> pages;
  for (int i = 0; i < 48; ++i) {
    pages.push_back(test::StagePage(disk, PageType::kData, 0,
                                    geom::Rect(0, 0, 1.0 + i, 1.0)));
  }

  DiskManager log;
  wal::WalManager wal(&log);
  auto run = [&](bool writable) {
    const svc::BufferServiceConfig config = WritableConfig(2, 16);
    const std::unique_ptr<svc::BufferService> owned =
        writable ? std::make_unique<svc::BufferService>(&disk, &wal, config)
                 : std::make_unique<svc::BufferService>(disk, config);
    svc::BufferService& service = *owned;
    const AccessContext ctx{5};
    uint64_t state = 0x9E3779B97F4A7C15ull;
    auto next = [&state] {
      state += 0x9E3779B97F4A7C15ull;
      uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      return z ^ (z >> 31);
    };
    std::vector<PageHandle> group;
    for (int round = 0; round < 200; ++round) {
      for (int i = 0; i < 6; ++i) {
        group.push_back(service.FetchOrDie(pages[next() % pages.size()], ctx));
      }
      group.clear();  // release every pin before the next group
    }
    return service.AggregateStats();
  };

  const svc::ShardStats mutex_stats = run(/*writable=*/true);
  const svc::ShardStats optimistic_stats = run(/*writable=*/false);
  EXPECT_EQ(optimistic_stats.buffer.hits, mutex_stats.buffer.hits)
      << "identical serial group streams must hit identically";
  EXPECT_EQ(optimistic_stats.buffer.misses, mutex_stats.buffer.misses);
  EXPECT_EQ(mutex_stats.optimistic_hits, 0u);
}

// ---------------------------------------------------------------------------
// Degraded read-only mode: failing writes, lying fsyncs, disk-full
// backpressure

TEST(DegradedServiceTest, DiskFullNewIsBackpressureNotDegradation) {
  DiskManager disk;
  DiskManager log;
  wal::WalManager wal(&log);
  svc::BufferService service(&disk, &wal, WritableConfig(2, 32));
  const AccessContext ctx{1};
  disk.set_page_capacity(3);
  std::vector<PageId> pages;
  for (int i = 0; i < 3; ++i) {
    core::StatusOr<PageHandle> page = service.New(ctx);
    ASSERT_TRUE(page.ok());
    std::memset(page->bytes().data(), 0x50 + i, page->bytes().size());
    page->MarkDirty();
    pages.push_back(page->page_id());
  }
  const core::StatusOr<PageHandle> full = service.New(ctx);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), core::StatusCode::kResourceExhausted);
  // Backpressure, not a health event: the service stays writable for the
  // pages that exist, and commits keep working.
  EXPECT_FALSE(service.degraded());
  EXPECT_TRUE(service.Commit(ctx).ok());
  EXPECT_TRUE(service.Fetch(pages[0], ctx).ok());
}

TEST(DegradedServiceTest, DegradedReadAvailability) {
  // Reads must keep serving after the WAL goes sticky: the acceptance bar
  // for "degrade, don't die".
  DiskManager disk;
  std::vector<PageId> pages;
  for (int i = 0; i < 12; ++i) {
    pages.push_back(test::StagePage(disk, PageType::kData, 0,
                                    geom::Rect(0, 0, i + 1.0, 1.0)));
  }
  DiskManager log;
  storage::FaultProfile log_faults;
  log_faults.sync_failure_prob = 1.0;  // every fsync lies, forever
  log_faults.seed = 13;
  storage::FaultInjectingDevice faulty_log(log, log_faults);
  wal::WalOptions wal_options;
  wal_options.max_flush_retries = 2;
  wal::WalManager wal(&faulty_log, wal_options);
  svc::BufferService service(&disk, &wal, WritableConfig(2, 64));
  const AccessContext ctx{2};

  // Warm half the working set before the failure.
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(service.Fetch(pages[i], ctx).ok());
  }
  for (int i = 0; i < 3; ++i) {
    core::StatusOr<PageHandle> page = service.New(ctx);
    ASSERT_TRUE(page.ok());
    std::memset(page->bytes().data(), 0x77, page->bytes().size());
    page->MarkDirty();
  }
  const core::Status committed = service.Commit(ctx);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.code(), core::StatusCode::kUnavailable);
  ASSERT_TRUE(service.degraded());
  EXPECT_EQ(service.degraded_state(), svc::DegradedState::kWalError);
  EXPECT_EQ(service.degraded_entries(), 1u);

  // Mutations are refused fast — no second trip through the retry gauntlet.
  EXPECT_EQ(service.New(ctx).status().code(),
            core::StatusCode::kUnavailable);
  EXPECT_EQ(service.Commit(ctx).code(), core::StatusCode::kUnavailable);
  EXPECT_EQ(service.Checkpoint(ctx).code(), core::StatusCode::kUnavailable);

  // Reads: warm pages hit, cold pages still miss in cleanly — every staged
  // page is served while the service is degraded.
  for (const PageId page : pages) {
    const core::StatusOr<PageHandle> fetched = service.Fetch(page, ctx);
    EXPECT_TRUE(fetched.ok()) << fetched.status().ToString();
  }

  // Background flushing parks instead of spinning EnsureDurable failures.
  const core::StatusOr<size_t> flushed = service.FlushShardBatch(0, 8, ctx);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, 0u);

  // The state is surfaced: stats carry it, and so does the Prometheus
  // dump's degraded gauge (0 on healthy services).
  const svc::ShardStats stats = service.AggregateStats();
  EXPECT_EQ(stats.degraded,
            static_cast<uint64_t>(svc::DegradedState::kWalError));
  EXPECT_EQ(stats.degraded_entries, 1u);
  const std::string text = service.StatsText();
  EXPECT_NE(text.find("\nsdb_svc_degraded 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nsdb_wal_degraded_entries 1\n"), std::string::npos);
}

TEST(DegradedServiceTest, PersistentWriteFaultsQuarantineBackoffSaturate) {
  // Data-device writes fail every time (retryable, so each round burns the
  // full retry budget): the flusher must escalate frames to
  // write-quarantine instead of dropping them, back off the failing shard
  // instead of hot-spinning, and saturating the quarantine must trip
  // degraded mode while reads keep serving.
  DiskManager disk;
  std::vector<PageId> staged;
  for (int i = 0; i < 4; ++i) {
    staged.push_back(test::StagePage(disk, PageType::kData, 0,
                                     geom::Rect(0, 0, i + 1.0, 1.0)));
  }
  DiskManager log;
  wal::WalManager wal(&log);
  svc::BufferServiceConfig config = WritableConfig(1, 8);
  config.fault_profile.seed = 91;
  config.fault_profile.write_transient_prob = 1.0;
  config.flusher_threads = 1;
  svc::BufferService service(&disk, &wal, config);
  const AccessContext ctx{3};

  for (int i = 0; i < 5; ++i) {
    core::StatusOr<PageHandle> page = service.New(ctx);
    ASSERT_TRUE(page.ok());
    std::memset(page->bytes().data(), 0x60 + i, page->bytes().size());
    page->MarkDirty();
  }
  ASSERT_TRUE(service.Commit(ctx).ok())
      << "the WAL device is healthy: commits must keep succeeding";

  // cap = half of 8 frames = 4: wait for the quarantine to saturate.
  for (int spin = 0; spin < 10000 && !service.degraded(); ++spin) {
    service.flusher()->Nudge();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(service.degraded()) << "quarantine saturation never tripped";
  EXPECT_EQ(service.degraded_state(),
            svc::DegradedState::kQuarantineSaturated);

  const svc::ShardStats stats = service.AggregateStats();
  EXPECT_GE(stats.buffer.io_write_quarantined, 4u);
  EXPECT_GE(stats.buffer.io_write_retries, 4u);
  EXPECT_GE(stats.quarantined_frames, 4u);
  const svc::FlushCoordinatorStats flusher = service.flusher()->stats();
  EXPECT_GT(flusher.flush_errors, 0u);
  EXPECT_GT(flusher.backoff_skips, 0u)
      << "a persistently failing shard must be skipped, not hot-spun";
  // Degraded read-only: New refused, reads of device-resident pages serve.
  EXPECT_EQ(service.New(ctx).status().code(),
            core::StatusCode::kUnavailable);
  for (const PageId page : staged) {
    EXPECT_TRUE(service.Fetch(page, ctx).ok());
  }
}

// ---------------------------------------------------------------------------
// Chaos soak: churn x write faults x crash — no silent loss, no aborts

/// The tentpole proof, test-sized: drive the churn-crash-recover round trip
/// with transient write faults and lying fsyncs on the WAL device plus
/// transient write faults on the data device. Every acknowledged commit
/// must survive recovery byte-exact; the fault counters must show the run
/// actually injected; and nothing may abort or hang on the way.
TEST(WritableServiceTest, ChurnCrashRecoverSurvivesWriteFaults) {
  const geom::Rect space(0, 0, 100, 100);
  DiskManager disk;
  DiskManager log;
  storage::FaultProfile log_faults;
  log_faults.seed = SoakSeed(20260807);
  log_faults.write_transient_prob = 0.05;
  log_faults.sync_failure_prob = 0.02;
  storage::FaultInjectingDevice faulty_log(log, log_faults);
  wal::WalOptions wal_options;
  wal_options.max_flush_retries = 8;  // 0.05^9: exhaustion impossible
  wal::WalManager wal(&faulty_log, wal_options);
  svc::BufferServiceConfig config = WritableConfig(2, 128);
  config.fault_profile.seed = SoakSeed(20260807) ^ 0xD15EA5E;
  config.fault_profile.write_transient_prob = 0.02;
  // The tree stays a handful of pages, so each shard writes back only a few
  // times (at the checkpoints) and p = 0.02 alone often draws nothing. One
  // scripted transient fault among every shard's first writes, placed by
  // the seed, makes each seed's run take data-device fire.
  config.fault_profile.write_schedule.emplace_back(
      SoakSeed(20260807) % 4, storage::FaultKind::kWriteTransient);
  svc::BufferService service(&disk, &wal, config);
  const AccessContext ctx{4};

  rtree::RTree tree(&disk, &service);
  sim::ChurnOptions options;
  options.operations = 400;
  options.delete_fraction = 0.35;
  options.seed = SoakSeed(1234);
  options.commit_every = 25;
  options.checkpoint_every = 100;
  sim::ChurnHooks hooks;
  hooks.commit = [&] {
    tree.PersistMeta();
    return service.Commit(ctx);
  };
  hooks.checkpoint = [&] {
    tree.PersistMeta();
    return service.Checkpoint(ctx);
  };
  const core::StatusOr<sim::ChurnResult> churn =
      sim::RunChurn(tree, space, options, hooks, ctx);
  ASSERT_TRUE(churn.ok())
      << "transient-only faults must never fail a commit: "
      << churn.status().ToString();
  EXPECT_FALSE(service.degraded());

  tree.PersistMeta();
  ASSERT_TRUE(service.Commit(ctx).ok());
  const std::vector<rtree::Entry> committed = tree.WindowQuery(space, ctx);

  // The run must actually have been under fire, and every injection must
  // be visible as absorbed retry work — never as silent loss.
  EXPECT_GT(faulty_log.fault_stats().write_injected(), 0u);
  EXPECT_GT(wal.stats().write_retries, 0u);
  EXPECT_GT(service.AggregateFaultStats().write_injected(), 0u);

  // Crash and recover from the *underlying* devices (the power-cut view).
  const std::string data_path = ::testing::TempDir() + "/wfault_data.img";
  const std::string log_path = ::testing::TempDir() + "/wfault_log.img";
  ASSERT_TRUE(disk.SaveImage(data_path));
  ASSERT_TRUE(log.SaveImage(log_path));
  auto crashed_data = DiskManager::LoadImage(data_path);
  auto crashed_log = DiskManager::LoadImage(log_path);
  ASSERT_TRUE(crashed_data.has_value());
  ASSERT_TRUE(crashed_log.has_value());
  const core::StatusOr<wal::RecoveryResult> result =
      wal::Recover(*crashed_log, *crashed_data);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  svc::BufferService reader(*crashed_data, WritableConfig(2, 128));
  rtree::RTree recovered =
      rtree::RTree::Open(&*crashed_data, &reader, tree.meta_page());
  EXPECT_EQ(recovered.Validate(), "");
  std::vector<rtree::Entry> replayed = recovered.WindowQuery(space, ctx);
  ASSERT_EQ(replayed.size(), committed.size())
      << "acknowledged commits must survive recovery exactly";
  auto by_id = [](const rtree::Entry& a, const rtree::Entry& b) {
    return a.id < b.id;
  };
  std::vector<rtree::Entry> expected = committed;
  std::sort(expected.begin(), expected.end(), by_id);
  std::sort(replayed.begin(), replayed.end(), by_id);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(replayed[i].id, expected[i].id);
  }
  ASSERT_TRUE(service.Checkpoint(ctx).ok());
  std::remove(data_path.c_str());
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace sdb

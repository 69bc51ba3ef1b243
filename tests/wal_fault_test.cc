// Write-path fault injection through the WAL: transient write and sync
// failures retried within the flush budget (fsyncgate-correct: every retry
// rewrites the whole block), terminal failures turning into a sticky error
// that every waiter observes — group-commit committers, EnsureDurable and
// AppendCheckpoint callers all wake with the error, never hang, and the log
// never claims an LSN durable past a failed sync.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace sdb::wal {
namespace {

using core::StatusCode;

std::vector<std::byte> MakeImage(size_t size, uint8_t fill) {
  return std::vector<std::byte>(size, std::byte{fill});
}

PageImageRef Ref(storage::PageId page, const std::vector<std::byte>& bytes) {
  return {page, {bytes.data(), bytes.size()}};
}

// ---------------------------------------------------------------------------
// Retry within the flush budget

TEST(WalWriteFaultTest, TransientWriteFaultsRetryAndCommitSucceeds) {
  storage::DiskManager log;
  storage::FaultProfile profile;
  profile.write_schedule.push_back(
      {0, storage::FaultKind::kWriteTransient});
  storage::FaultInjectingDevice device(log, profile);
  WalManager wal(&device);
  const auto image = MakeImage(log.page_size(), 0xAA);
  const core::StatusOr<Lsn> end =
      wal.CommitPages({{Ref(0, image)}}, 1, core::AccessContext{1});
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_TRUE(wal.sticky_error().ok());
  EXPECT_GE(wal.stats().write_retries, 1u);
  EXPECT_EQ(wal.durable_lsn(), *end);
  EXPECT_EQ(device.fault_stats().write_transient_errors, 1u);
}

TEST(WalWriteFaultTest, FailedSyncRetriesRewriteTheWholeBlock) {
  storage::DiskManager log;
  storage::FaultProfile profile;
  profile.sync_schedule.push_back(0);  // first sync lies, second succeeds
  storage::FaultInjectingDevice device(log, profile);
  WalManager wal(&device);
  const auto image = MakeImage(log.page_size(), 0xBB);
  const core::StatusOr<Lsn> end =
      wal.CommitPages({{Ref(0, image)}}, 1, core::AccessContext{1});
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_EQ(device.fault_stats().sync_failures, 1u);
  EXPECT_GE(wal.stats().write_retries, 1u);
  // The failed sync dropped the first attempt's pages (fsyncgate); only the
  // rewrite made them stick. Recovery must find the commit byte-exact.
  storage::DiskManager data;
  const core::StatusOr<RecoveryResult> recovered = Recover(log, data);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(data.page_count(), 1u);
  EXPECT_EQ(data.PeekPage(0)[0], std::byte{0xBB});
}

// ---------------------------------------------------------------------------
// Terminal failures: sticky error, no hangs, no durability lies

TEST(WalWriteFaultTest, ExhaustedRetriesTurnSticky) {
  storage::DiskManager log;
  storage::FaultProfile profile;
  profile.sync_failure_prob = 1.0;  // every sync fails, forever
  profile.seed = 3;
  storage::FaultInjectingDevice device(log, profile);
  WalOptions options;
  options.max_flush_retries = 2;
  WalManager wal(&device, options);
  const auto image = MakeImage(log.page_size(), 0xCC);
  const Lsn durable_before = wal.durable_lsn();
  const core::StatusOr<Lsn> end =
      wal.CommitPages({{Ref(0, image)}}, 1, core::AccessContext{1});
  ASSERT_FALSE(end.ok());
  EXPECT_EQ(end.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(wal.sticky_error().ok());
  EXPECT_EQ(wal.durable_lsn(), durable_before)
      << "no LSN may be durable after a failed sync";
  // The appended bytes survive in the in-memory tail (restored by the
  // failed flush): nothing acknowledged was lost — nothing was acknowledged.
  EXPECT_GT(wal.next_lsn(), wal.durable_lsn());
  // Later calls fail fast with the same sticky error instead of re-running
  // the retry gauntlet.
  const core::StatusOr<Lsn> again =
      wal.CommitPages({{Ref(0, image)}}, 1, core::AccessContext{2});
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(wal.EnsureDurable(wal.next_lsn()).code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(wal.AppendCheckpoint(1, core::AccessContext{3}).ok());
}

TEST(WalWriteFaultTest, FullLogDeviceIsTerminalNotRetryable) {
  storage::DiskManager log;
  log.set_page_capacity(2);  // room for one commit group, then disk full
  WalManager wal(&log);
  const auto image = MakeImage(log.page_size(), 0xDD);
  // The first commit group fits into the capacity; the second needs another
  // log page and hits the cap.
  ASSERT_TRUE(wal.CommitPages({{Ref(0, image)}}, 1, core::AccessContext{1})
                  .ok());
  const core::StatusOr<Lsn> full =
      wal.CommitPages({{Ref(0, image)}}, 1, core::AccessContext{2});
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(wal.sticky_error().code(), StatusCode::kResourceExhausted);
}

TEST(WalWriteFaultTest, GroupCommitWaitersAllWakeWithStickyError) {
  storage::DiskManager log;
  storage::FaultProfile profile;
  profile.sync_failure_prob = 1.0;
  profile.seed = 17;
  storage::FaultInjectingDevice device(log, profile);
  WalOptions options;
  options.group_commit = true;
  options.group_window_us = 1000;  // wide window: waiters pile up
  options.max_flush_retries = 1;
  WalManager wal(&device, options);

  constexpr int kCommitters = 8;
  std::atomic<int> failed{0};
  std::atomic<int> succeeded{0};
  {
    std::vector<std::jthread> committers;
    committers.reserve(kCommitters);
    for (int t = 0; t < kCommitters; ++t) {
      committers.emplace_back([&, t] {
        const auto image = MakeImage(log.page_size(),
                                     static_cast<uint8_t>(t));
        const core::StatusOr<Lsn> end = wal.CommitPages(
            {{Ref(0, image)}}, 1,
            core::AccessContext{static_cast<uint64_t>(t) + 1});
        (end.ok() ? succeeded : failed).fetch_add(1);
      });
    }
    // jthread join on scope exit: the test hangs here if any waiter is
    // never woken — that IS the regression this test guards against.
  }
  EXPECT_EQ(succeeded.load(), 0);
  EXPECT_EQ(failed.load(), kCommitters)
      << "every group-commit waiter must wake with the sticky error";
  EXPECT_FALSE(wal.sticky_error().ok());
  EXPECT_EQ(wal.durable_lsn(), 0u);
}

TEST(WalWriteFaultTest, EnsureDurableWakesWithErrorInGroupCommitMode) {
  storage::DiskManager log;
  storage::FaultProfile profile;
  profile.sync_failure_prob = 1.0;
  profile.seed = 29;
  storage::FaultInjectingDevice device(log, profile);
  WalOptions options;
  options.group_commit = true;
  options.max_flush_retries = 0;
  WalManager wal(&device, options);
  const auto image = MakeImage(log.page_size(), 0xEE);
  // The commit fails (sticky); a durability probe for its LSN must report
  // the error, not block and not claim success.
  ASSERT_FALSE(
      wal.CommitPages({{Ref(0, image)}}, 1, core::AccessContext{1}).ok());
  const core::Status durable = wal.EnsureDurable(wal.next_lsn());
  EXPECT_EQ(durable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(wal.durable_lsn(), 0u);
}

TEST(WalWriteFaultTest, StickyLogRecoversOnlyAcknowledgedCommits) {
  // The no-silent-loss contract, device-level: commits acknowledged before
  // the log went sticky are recovered byte-exact; the commit that failed is
  // absent — not torn, not half-applied.
  storage::DiskManager log;
  storage::FaultProfile profile;
  profile.sync_schedule.push_back(1);  // second sync fails...
  profile.sync_schedule.push_back(2);  // ...and every retry of it
  profile.sync_schedule.push_back(3);
  profile.sync_schedule.push_back(4);
  profile.sync_schedule.push_back(5);
  storage::FaultInjectingDevice device(log, profile);
  WalOptions options;
  options.max_flush_retries = 3;
  WalManager wal(&device, options);
  const auto first = MakeImage(log.page_size(), 0x01);
  const auto second = MakeImage(log.page_size(), 0x02);
  ASSERT_TRUE(wal.CommitPages({{Ref(0, first)}}, 1, core::AccessContext{1})
                  .ok());
  ASSERT_FALSE(wal.CommitPages({{Ref(0, second)}}, 1, core::AccessContext{2})
                   .ok());
  EXPECT_FALSE(wal.sticky_error().ok());

  storage::DiskManager data;
  const core::StatusOr<RecoveryResult> recovered = Recover(log, data);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(data.page_count(), 1u);
  EXPECT_EQ(data.PeekPage(0)[0], std::byte{0x01})
      << "the acknowledged commit survives; the failed one is absent";
}

}  // namespace
}  // namespace sdb::wal

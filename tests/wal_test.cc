// The write-ahead log from the record wire format up: encode/parse
// round-trips and rejection of every corruption class, inline and
// group-commit durability through WalManager, redo-only recovery with its
// commit horizon and checkpoint bound, and the crash suite — a torn log
// flush at EVERY write index must leave recovery byte-exact against the
// snapshot of the last commit whose records survived intact.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "wal/log_record.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace sdb::wal {
namespace {

constexpr size_t kPageSize = 512;

std::vector<std::byte> MakeImage(size_t size, uint8_t fill) {
  return std::vector<std::byte>(size, std::byte{fill});
}

/// Lays a raw log stream onto a device in page-size blocks (zero-padded
/// tail), the way WalManager's flush would have.
void WriteStream(storage::DiskManager& log,
                 const std::vector<std::byte>& stream) {
  const size_t page_size = log.page_size();
  const size_t pages = (stream.size() + page_size - 1) / page_size;
  std::vector<std::byte> image(page_size);
  for (size_t p = 0; p < pages; ++p) {
    while (log.page_count() <= p) log.AllocateOrDie();
    const size_t offset = p * page_size;
    const size_t n = std::min(page_size, stream.size() - offset);
    std::memcpy(image.data(), stream.data() + offset, n);
    std::memset(image.data() + n, 0, page_size - n);
    ASSERT_TRUE(log.Write(static_cast<storage::PageId>(p), image).ok());
  }
}

/// Reads the whole log device back into one flat stream.
std::vector<std::byte> ReadStream(storage::PageDevice& log) {
  const size_t page_size = log.page_size();
  std::vector<std::byte> stream(log.page_count() * page_size);
  for (size_t p = 0; p < log.page_count(); ++p) {
    EXPECT_TRUE(log.Read(static_cast<storage::PageId>(p),
                         {stream.data() + p * page_size, page_size})
                    .ok());
  }
  return stream;
}

// ---------------------------------------------------------------------------
// Record wire format

TEST(LogRecordTest, AppendParseRoundTrip) {
  std::vector<std::byte> stream;
  const auto payload = MakeImage(kPageSize, 0xAB);
  const size_t first = AppendRecord(RecordType::kPageImage, 0, 7, payload,
                                    &stream);
  EXPECT_EQ(first, RecordHeader::kSize + kPageSize);
  const size_t second =
      AppendRecord(RecordType::kCommit, first, 3, {}, &stream);
  EXPECT_EQ(second, RecordHeader::kSize);

  const auto image = ParseRecordAt(stream, 0);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->header.type, RecordType::kPageImage);
  EXPECT_EQ(image->header.page, 7u);
  EXPECT_EQ(image->header.lsn, 0u);
  EXPECT_EQ(image->payload.size(), kPageSize);
  EXPECT_EQ(std::memcmp(image->payload.data(), payload.data(), kPageSize), 0);
  EXPECT_EQ(image->end, first);

  const auto commit = ParseRecordAt(stream, image->end);
  ASSERT_TRUE(commit.has_value());
  EXPECT_EQ(commit->header.type, RecordType::kCommit);
  EXPECT_EQ(commit->header.page, 3u) << "commit carries the data page count";
  EXPECT_EQ(commit->end, stream.size());
}

TEST(LogRecordTest, RejectsEveryCorruptionClass) {
  std::vector<std::byte> stream;
  const auto payload = MakeImage(kPageSize, 0x11);
  AppendRecord(RecordType::kPageImage, 0, 1, payload, &stream);

  // Payload bit flip breaks the CRC.
  {
    auto copy = stream;
    copy[RecordHeader::kSize + 100] ^= std::byte{0x01};
    EXPECT_FALSE(ParseRecordAt(copy, 0).has_value());
  }
  // Header bit flip (page field) breaks the CRC too.
  {
    auto copy = stream;
    copy[24] ^= std::byte{0x01};
    EXPECT_FALSE(ParseRecordAt(copy, 0).has_value());
  }
  // Wrong magic.
  {
    auto copy = stream;
    copy[0] = std::byte{0x00};
    EXPECT_FALSE(ParseRecordAt(copy, 0).has_value());
  }
  // Stale-bytes defense: a perfectly valid record read at the wrong offset
  // fails the lsn==offset rule.
  {
    std::vector<std::byte> shifted(32 + stream.size(), std::byte{0});
    std::copy(stream.begin(), stream.end(), shifted.begin() + 32);
    EXPECT_FALSE(ParseRecordAt(shifted, 32).has_value());
  }
  // Truncation (torn tail mid-payload).
  {
    auto copy = stream;
    copy.resize(copy.size() - 10);
    EXPECT_FALSE(ParseRecordAt(copy, 0).has_value());
  }
  // Zeroes (clean end of log).
  {
    const std::vector<std::byte> zeros(256, std::byte{0});
    EXPECT_FALSE(ParseRecordAt(zeros, 0).has_value());
  }
  // Unknown record type.
  {
    auto copy = stream;
    copy[4] = std::byte{9};
    EXPECT_FALSE(ParseRecordAt(copy, 0).has_value());
  }
}

// ---------------------------------------------------------------------------
// WalManager, inline mode

TEST(WalManagerTest, InlineCommitIsImmediatelyDurable) {
  storage::DiskManager log(kPageSize);
  WalManager wal(&log);
  const auto a = MakeImage(kPageSize, 0xA1);
  const auto b = MakeImage(kPageSize, 0xB2);
  const PageImageRef images[] = {{4, a}, {9, b}};
  const core::StatusOr<Lsn> end = wal.CommitPages(images, 10, {});
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(*end, wal.next_lsn());
  EXPECT_EQ(wal.durable_lsn(), wal.next_lsn()) << "inline commit flushes";

  const WalStats stats = wal.stats();
  EXPECT_EQ(stats.appends, 3u);  // two images + one commit
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.fsyncs, 1u);
  EXPECT_EQ(stats.grouped_commits, 1u);
  EXPECT_EQ(stats.forced_steals, 0u);

  // The on-device stream parses back to exactly that group.
  const std::vector<std::byte> stream = ReadStream(log);
  const auto first = ParseRecordAt(stream, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.page, 4u);
  const auto second = ParseRecordAt(stream, first->end);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->header.page, 9u);
  const auto commit = ParseRecordAt(stream, second->end);
  ASSERT_TRUE(commit.has_value());
  EXPECT_EQ(commit->header.type, RecordType::kCommit);
  EXPECT_EQ(commit->header.page, 10u);
}

TEST(WalManagerTest, PartialTailPageSurvivesRepeatedFlushes) {
  // Records are much smaller than a page, so consecutive flushes keep
  // rewriting the same tail page; the already-durable head must survive.
  storage::DiskManager log(kPageSize);
  WalManager wal(&log);
  for (uint8_t i = 0; i < 20; ++i) {
    const auto image = MakeImage(kPageSize, i);
    const PageImageRef ref{i, image};
    ASSERT_TRUE(wal.CommitPages({&ref, 1}, 20, {}).ok());
  }
  const std::vector<std::byte> stream = ReadStream(log);
  Lsn offset = 0;
  size_t images = 0;
  size_t commits = 0;
  while (const auto record = ParseRecordAt(stream, offset)) {
    if (record->header.type == RecordType::kPageImage) {
      EXPECT_EQ(record->payload[0], std::byte{static_cast<uint8_t>(images)});
      ++images;
    } else if (record->header.type == RecordType::kCommit) {
      ++commits;
    }
    offset = record->end;
  }
  EXPECT_EQ(images, 20u);
  EXPECT_EQ(commits, 20u);
  EXPECT_EQ(offset, wal.durable_lsn()) << "whole durable stream parses";
}

TEST(WalManagerTest, EnsureDurableIsIdempotentOnDurablePrefix) {
  storage::DiskManager log(kPageSize);
  WalManager wal(&log);
  const auto image = MakeImage(kPageSize, 0x44);
  const PageImageRef ref{0, image};
  const core::StatusOr<Lsn> end = wal.CommitPages({&ref, 1}, 1, {});
  ASSERT_TRUE(end.ok());
  EXPECT_TRUE(wal.EnsureDurable(*end).ok());
  EXPECT_TRUE(wal.EnsureDurable(0).ok());
}

// ---------------------------------------------------------------------------
// WalManager, group-commit mode (threaded; runs under tsan)

TEST(WalGroupCommitTest, ConcurrentCommittersAllBecomeDurable) {
  storage::DiskManager log(kPageSize);
  WalOptions options;
  options.group_commit = true;
  options.group_window_us = 200;
  options.commit_queue_capacity = 4;  // exercise backpressure
  constexpr size_t kThreads = 4;
  constexpr size_t kCommitsPerThread = 8;
  {
    WalManager wal(&log, options);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (size_t i = 0; i < kCommitsPerThread; ++i) {
          const auto image = MakeImage(
              kPageSize, static_cast<uint8_t>(t * kCommitsPerThread + i));
          const PageImageRef ref{static_cast<storage::PageId>(t), image};
          const core::StatusOr<Lsn> end = wal.CommitPages({&ref, 1}, 4, {});
          ASSERT_TRUE(end.ok());
          EXPECT_TRUE(wal.EnsureDurable(*end).ok());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const WalStats stats = wal.stats();
    EXPECT_EQ(stats.commits, kThreads * kCommitsPerThread);
    EXPECT_EQ(stats.grouped_commits, kThreads * kCommitsPerThread)
        << "every commit was covered by some flush";
    EXPECT_LE(stats.fsyncs, stats.commits);
    EXPECT_EQ(wal.durable_lsn(), wal.next_lsn());
  }
  // The interleaving is nondeterministic but the stream must still be one
  // valid chain holding every commit.
  storage::DiskManager& device = log;
  const std::vector<std::byte> stream = ReadStream(device);
  Lsn offset = 0;
  size_t commits = 0;
  while (const auto record = ParseRecordAt(stream, offset)) {
    if (record->header.type == RecordType::kCommit) ++commits;
    offset = record->end;
  }
  EXPECT_EQ(commits, kThreads * kCommitsPerThread);
}

TEST(WalGroupCommitTest, ShutdownUnderLoadAcknowledgesOnlyDurableCommits) {
  // Shutdown races live committers: every CommitPages call must return
  // either success (and then the commit is durable) or Unavailable — never
  // hang, never acknowledge a commit the final flush did not cover.
  storage::DiskManager log(kPageSize);
  WalOptions options;
  options.group_commit = true;
  options.group_window_us = 100;
  options.commit_queue_capacity = 4;  // keep committers blocked in the queue
  WalManager wal(&log, options);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<Lsn>> acknowledged(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &acknowledged, t] {
      for (size_t i = 0; i < 64; ++i) {
        const auto image = MakeImage(kPageSize, static_cast<uint8_t>(i));
        const PageImageRef ref{static_cast<storage::PageId>(t), image};
        const core::StatusOr<Lsn> end = wal.CommitPages({&ref, 1}, 4, {});
        if (!end.ok()) {
          // The log closed mid-stream: the only legal refusal. The thread's
          // records may still be durable — recovery's problem, not ours.
          EXPECT_EQ(end.status().code(), core::StatusCode::kUnavailable);
          return;
        }
        acknowledged[t].push_back(*end);
      }
    });
  }
  // Let some commits land, then pull the plug while committers are in
  // flight (appending, queued, or blocked on backpressure).
  std::this_thread::sleep_for(std::chrono::microseconds(500));
  wal.Shutdown();
  for (std::thread& thread : threads) thread.join();
  wal.Shutdown();  // idempotent

  size_t acks = 0;
  for (const std::vector<Lsn>& lsns : acknowledged) {
    for (const Lsn end : lsns) {
      EXPECT_LE(end, wal.durable_lsn())
          << "an acknowledged commit must be durable";
      ++acks;
    }
  }
  // The device stream is one valid record chain holding at least every
  // acknowledged commit (unacknowledged stragglers may have made it too).
  const std::vector<std::byte> stream = ReadStream(log);
  Lsn offset = 0;
  size_t commits = 0;
  while (const auto record = ParseRecordAt(stream, offset)) {
    if (record->header.type == RecordType::kCommit) ++commits;
    offset = record->end;
  }
  EXPECT_GE(commits, acks);
  EXPECT_GE(offset, wal.durable_lsn()) << "the durable prefix parses";
}

TEST(WalGroupCommitTest, CheckpointsRunConcurrentlyWithCommits) {
  // Liveness of the two-latch split: checkpoints (which flush under the
  // file latch on the checkpointing thread) interleave with live group
  // committers (queue latch) without deadlock or starvation.
  storage::DiskManager log(kPageSize);
  WalOptions options;
  options.group_commit = true;
  options.group_window_us = 50;
  WalManager wal(&log, options);
  std::vector<std::thread> committers;
  for (size_t t = 0; t < 2; ++t) {
    committers.emplace_back([&wal, t] {
      for (size_t i = 0; i < 48; ++i) {
        const auto image = MakeImage(kPageSize, static_cast<uint8_t>(i));
        const PageImageRef ref{static_cast<storage::PageId>(t), image};
        const core::StatusOr<Lsn> end = wal.CommitPages({&ref, 1}, 2, {});
        EXPECT_TRUE(end.ok());
      }
    });
  }
  for (int round = 0; round < 8; ++round) {
    const core::StatusOr<Lsn> end = wal.AppendCheckpoint(2, {});
    ASSERT_TRUE(end.ok());
    ASSERT_TRUE(wal.EnsureDurable(*end).ok());
  }
  for (std::thread& thread : committers) thread.join();
  EXPECT_EQ(wal.durable_lsn(), wal.next_lsn())
      << "every committer waited for durability";
  EXPECT_EQ(wal.stats().checkpoints, 8u);
}

// ---------------------------------------------------------------------------
// Recovery

TEST(RecoveryTest, ReplaysOnlyCommittedImages) {
  std::vector<std::byte> stream;
  const auto committed_a = MakeImage(kPageSize, 0xAA);
  const auto committed_b = MakeImage(kPageSize, 0xBB);
  const auto uncommitted = MakeImage(kPageSize, 0xCC);
  Lsn lsn = 0;
  lsn += AppendRecord(RecordType::kPageImage, lsn, 0, committed_a, &stream);
  lsn += AppendRecord(RecordType::kPageImage, lsn, 1, committed_b, &stream);
  lsn += AppendRecord(RecordType::kCommit, lsn, 2, {}, &stream);
  // A valid image with no commit after it: the crash hit between its append
  // and its commit record's flush. Recovery must discard it.
  lsn += AppendRecord(RecordType::kPageImage, lsn, 0, uncommitted, &stream);

  storage::DiskManager log(kPageSize);
  WriteStream(log, stream);
  storage::DiskManager data(kPageSize);
  const core::StatusOr<RecoveryResult> result = Recover(log, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->scanned_records, 4u);
  EXPECT_EQ(result->replayed_pages, 2u);
  EXPECT_EQ(result->committed_page_count, 2u);
  EXPECT_FALSE(result->torn_tail) << "a valid-but-uncommitted tail is not torn";

  std::vector<std::byte> page(kPageSize);
  ASSERT_TRUE(data.Read(0, page).ok());
  EXPECT_EQ(page[0], std::byte{0xAA}) << "uncommitted image must not replay";
  ASSERT_TRUE(data.Read(1, page).ok());
  EXPECT_EQ(page[0], std::byte{0xBB});
}

TEST(RecoveryTest, CheckpointBoundsTheReplay) {
  std::vector<std::byte> stream;
  const auto before = MakeImage(kPageSize, 0x01);
  const auto after = MakeImage(kPageSize, 0x02);
  Lsn lsn = 0;
  lsn += AppendRecord(RecordType::kPageImage, lsn, 0, before, &stream);
  lsn += AppendRecord(RecordType::kCommit, lsn, 1, {}, &stream);
  lsn += AppendRecord(RecordType::kCheckpoint, lsn, 1, {}, &stream);
  lsn += AppendRecord(RecordType::kPageImage, lsn, 1, after, &stream);
  lsn += AppendRecord(RecordType::kCommit, lsn, 2, {}, &stream);

  storage::DiskManager log(kPageSize);
  WriteStream(log, stream);
  storage::DiskManager data(kPageSize);
  // The data device is in its checkpoint state: page 0 already holds the
  // forced image (that is what the checkpoint record asserts).
  data.AllocateOrDie();
  ASSERT_TRUE(data.Write(0, before).ok());

  const core::StatusOr<RecoveryResult> result = Recover(log, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->replayed_pages, 1u)
      << "images before the checkpoint are already on the device";
  std::vector<std::byte> page(kPageSize);
  ASSERT_TRUE(data.Read(1, page).ok());
  EXPECT_EQ(page[0], std::byte{0x02});
}

TEST(RecoveryTest, CheckpointWithPayloadIsRefused) {
  // A checkpoint asserts that the data device holds every committed image
  // before it. A record that carries a payload (a redo horizon below it)
  // makes no such promise, so skipping to its end could drop committed
  // images: recovery must refuse the log before replaying anything.
  std::vector<std::byte> stream;
  const auto image = MakeImage(kPageSize, 0x5A);
  std::byte horizon[8] = {};
  Lsn lsn = 0;
  lsn += AppendRecord(RecordType::kPageImage, lsn, 0, image, &stream);
  lsn += AppendRecord(RecordType::kCommit, lsn, 1, {}, &stream);
  lsn += AppendRecord(RecordType::kCheckpoint, lsn, 1, horizon, &stream);

  storage::DiskManager log(kPageSize);
  WriteStream(log, stream);
  storage::DiskManager data(kPageSize);
  const core::StatusOr<RecoveryResult> result = Recover(log, data);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kDataLoss);
  EXPECT_EQ(data.page_count(), 0u) << "nothing may be replayed";
}

TEST(RecoveryTest, EmptyLogRecoversToNothing) {
  storage::DiskManager log(kPageSize);
  storage::DiskManager data(kPageSize);
  const core::StatusOr<RecoveryResult> result = Recover(log, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->scanned_records, 0u);
  EXPECT_EQ(result->replayed_pages, 0u);
  EXPECT_EQ(result->last_commit_lsn, kNullLsn);
  EXPECT_FALSE(result->torn_tail);
}

TEST(RecoveryTest, TornTailIsDetectedAndDiscarded) {
  std::vector<std::byte> stream;
  const auto good = MakeImage(kPageSize, 0x10);
  const auto lost = MakeImage(kPageSize, 0x20);
  Lsn lsn = 0;
  lsn += AppendRecord(RecordType::kPageImage, lsn, 0, good, &stream);
  lsn += AppendRecord(RecordType::kCommit, lsn, 1, {}, &stream);
  const Lsn valid_end = lsn;
  lsn += AppendRecord(RecordType::kPageImage, lsn, 0, lost, &stream);
  lsn += AppendRecord(RecordType::kCommit, lsn, 1, {}, &stream);
  // Tear the second group mid-record.
  for (size_t i = valid_end + 40; i < stream.size(); i += 7) {
    stream[i] ^= std::byte{0xA5};
  }

  storage::DiskManager log(kPageSize);
  WriteStream(log, stream);
  storage::DiskManager data(kPageSize);
  const core::StatusOr<RecoveryResult> result = Recover(log, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->valid_prefix, valid_end);
  EXPECT_TRUE(result->torn_tail);
  EXPECT_EQ(result->replayed_pages, 1u);
  std::vector<std::byte> page(kPageSize);
  ASSERT_TRUE(data.Read(0, page).ok());
  EXPECT_EQ(page[0], std::byte{0x10}) << "the torn group must not replay";
}

TEST(RecoveryTest, ParallelRedoIsByteIdenticalToSerial) {
  // Partitioning committed images by page-id hash keeps each page's images
  // on one worker in log order, so any worker count must reproduce the
  // serial device bytes exactly — across seeds and replay interleavings.
  for (const uint64_t seed : {7ull, 1337ull, 99991ull}) {
    storage::DiskManager log(kPageSize);
    constexpr size_t kDataPages = 32;
    {
      WalManager wal(&log);
      uint64_t rng = seed;
      for (size_t i = 0; i < 48; ++i) {
        const size_t group = 1 + static_cast<size_t>((rng >> 40) % 4);
        std::vector<std::vector<std::byte>> images;
        images.reserve(group);
        std::vector<PageImageRef> refs;
        for (size_t g = 0; g < group; ++g) {
          rng = rng * 6364136223846793005ull + 1442695040888963407ull;
          const auto page =
              static_cast<storage::PageId>((rng >> 33) % kDataPages);
          images.push_back(
              MakeImage(kPageSize, static_cast<uint8_t>(rng >> 16)));
          refs.push_back({page, images.back()});
        }
        ASSERT_TRUE(wal.CommitPages(refs, kDataPages, {}).ok());
      }
    }

    storage::DiskManager serial(kPageSize);
    RecoveryOptions serial_options;
    serial_options.redo_workers = 1;
    const core::StatusOr<RecoveryResult> base =
        Recover(log, serial, {}, nullptr, serial_options);
    ASSERT_TRUE(base.ok());
    EXPECT_EQ(base->redo_workers, 1u);
    ASSERT_GT(base->replayed_pages, 0u);

    for (const size_t workers : {size_t{2}, size_t{3}, size_t{8}}) {
      storage::DiskManager data(kPageSize);
      RecoveryOptions options;
      options.redo_workers = workers;
      const core::StatusOr<RecoveryResult> result =
          Recover(log, data, {}, nullptr, options);
      ASSERT_TRUE(result.ok()) << "seed " << seed << " workers " << workers;
      EXPECT_EQ(result->redo_workers, workers);
      EXPECT_EQ(result->replayed_pages, base->replayed_pages);
      ASSERT_EQ(data.page_count(), serial.page_count());
      std::vector<std::byte> expected(kPageSize);
      std::vector<std::byte> got(kPageSize);
      for (storage::PageId p = 0; p < data.page_count(); ++p) {
        ASSERT_TRUE(serial.Read(p, expected).ok());
        ASSERT_TRUE(data.Read(p, got).ok());
        ASSERT_EQ(std::memcmp(expected.data(), got.data(), kPageSize), 0)
            << "seed " << seed << " workers " << workers << " page " << p;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Crash suite: torn log writes at every index

/// One run of the crash workload: M commit groups over a 3-page data space,
/// with the log device tearing (silently corrupting) its `torn_index`-th
/// write. Returns via out-params the per-commit page-state snapshots and
/// the commit-end-LSN -> commit-index map, which are identical for every
/// torn_index (the appended stream does not depend on the fault).
struct CrashRun {
  storage::DiskManager log{kPageSize};
  /// expected_pages[i][p] = fill byte of page p after commit i.
  std::vector<std::vector<uint8_t>> expected_pages;
  std::map<Lsn, size_t> commit_of_end_lsn;
  uint64_t torn_writes = 0;
};

void RunCrashWorkload(uint64_t torn_index, uint64_t seed, CrashRun* run) {
  constexpr size_t kDataPages = 3;
  constexpr size_t kCommits = 8;
  storage::FaultProfile profile;
  profile.write_schedule = {torn_index};
  storage::FaultInjectingDevice faulty(run->log, profile);
  WalManager wal(&faulty);

  std::vector<uint8_t> state(kDataPages, 0);
  uint64_t rng = seed;
  for (size_t i = 0; i < kCommits; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const auto page = static_cast<storage::PageId>((rng >> 33) % kDataPages);
    const auto fill = static_cast<uint8_t>(1 + i);
    const auto image = MakeImage(kPageSize, fill);
    const PageImageRef ref{page, image};
    // The torn write is silent: CommitPages reports success even when the
    // flush corrupted the device. That IS the crash model — the loss is
    // only discoverable at recovery.
    ASSERT_TRUE(wal.CommitPages({&ref, 1}, kDataPages, {}).ok());
    state[page] = fill;
    run->expected_pages.push_back(state);
    run->commit_of_end_lsn[wal.next_lsn()] = i;
  }
  run->torn_writes = faulty.fault_stats().torn_writes;
}

TEST(WalCrashTest, TornWriteAtEveryIndexRecoversByteExact) {
  // Baseline: how many device writes does the workload issue untorn?
  CrashRun clean;
  RunCrashWorkload(/*torn_index=*/1u << 20, /*seed=*/7, &clean);
  ASSERT_EQ(clean.torn_writes, 0u);
  const uint64_t total_writes = clean.log.stats().writes;
  ASSERT_GT(total_writes, 4u);

  // The CI soak varies the workload seed run-to-run; locally it is fixed.
  uint64_t seed = 7;
  if (const char* env = std::getenv("SDB_SOAK_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }

  for (uint64_t torn = 0; torn < total_writes; ++torn) {
    CrashRun run;
    RunCrashWorkload(torn, seed, &run);
    ASSERT_EQ(run.torn_writes, 1u) << "torn index " << torn;

    storage::DiskManager data(kPageSize);
    const core::StatusOr<RecoveryResult> recovered = Recover(run.log, data);
    ASSERT_TRUE(recovered.ok()) << "torn index " << torn;

    // Identify the last commit whose group survived the tear intact…
    std::vector<uint8_t> expected(3, 0);
    if (recovered->last_commit_lsn != kNullLsn) {
      // last_commit_lsn is the commit record's START; its group's end is
      // the next map key past it.
      const auto it =
          run.commit_of_end_lsn.upper_bound(recovered->last_commit_lsn);
      ASSERT_NE(it, run.commit_of_end_lsn.end()) << "torn index " << torn;
      expected = run.expected_pages[it->second];
    }
    // …and demand byte-exactness of every committed page against that
    // commit's snapshot.
    ASSERT_EQ(recovered->committed_page_count == 0 ? 0u : 3u,
              recovered->committed_page_count)
        << "torn index " << torn;
    std::vector<std::byte> page(kPageSize);
    for (storage::PageId p = 0; p < data.page_count(); ++p) {
      ASSERT_TRUE(data.Read(p, page).ok());
      for (const std::byte b : page) {
        ASSERT_EQ(b, std::byte{expected[p]})
            << "torn index " << torn << " page " << p;
      }
    }
  }
}

}  // namespace
}  // namespace sdb::wal

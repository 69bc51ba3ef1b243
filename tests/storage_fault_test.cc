#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/buffer_manager.h"
#include "core/policy_lru.h"
#include "rtree/node_view.h"
#include "storage/crc32c.h"
#include "storage/crc32c_internal.h"
#include "storage/disk_manager.h"
#include "storage/disk_view.h"
#include "storage/fault_injection.h"
#include "svc/buffer_service.h"
#include "test_util.h"

namespace sdb::storage {
namespace {

using core::AccessContext;
using core::BufferManager;
using core::PageHandle;
using core::ResilienceOptions;
using core::StatusCode;
using core::StatusOr;
using core::UnpinStatus;

std::unique_ptr<core::ReplacementPolicy> Lru() {
  return std::make_unique<core::LruPolicy>();
}

// ---------------------------------------------------------------------------
// CRC-32C

TEST(Crc32cTest, KnownAnswer) {
  // The canonical CRC-32C check value (RFC 3720 appendix / "123456789").
  const char digits[] = "123456789";
  const auto* bytes = reinterpret_cast<const std::byte*>(digits);
  EXPECT_EQ(crc32c::ChecksumScalar({bytes, 9}), 0xE3069283u);
  EXPECT_EQ(crc32c::Checksum({bytes, 9}), 0xE3069283u);
  EXPECT_EQ(crc32c::Checksum({bytes, size_t{0}}), 0u);
}

TEST(Crc32cTest, ActiveLevelMatchesScalarOnAllLengths) {
  // Every tail length of the 8-byte chunks (0..129 bytes), then lengths
  // around a page and around two pages — where the three-stream kernel runs
  // one or two rounds of blocks before its tail — at every start alignment.
  std::vector<std::byte> data(8192 + 8 + 7);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 131 + 17) & 0xFF);
  }
  for (size_t len = 0; len <= 129; ++len) {
    const std::span<const std::byte> s{data.data(), len};
    ASSERT_EQ(crc32c::Checksum(s), crc32c::ChecksumScalar(s)) << len;
  }
  std::vector<size_t> lengths;
  for (size_t len = 4000; len <= 4200; ++len) lengths.push_back(len);
  for (size_t len = 8192 - 8; len <= 8192 + 8; ++len) lengths.push_back(len);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (const size_t len : lengths) {
      const std::span<const std::byte> s{data.data() + offset, len};
      ASSERT_EQ(crc32c::Checksum(s), crc32c::ChecksumScalar(s))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, SensitiveToEverySingleBit) {
  std::vector<std::byte> data(kDefaultPageSize, std::byte{0});
  const uint32_t base = crc32c::Checksum({data.data(), data.size()});
  for (size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    ASSERT_NE(crc32c::Checksum({data.data(), data.size()}), base) << bit;
    data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
}

TEST(Crc32cTest, ExtendContinuesAChecksumAtAnySplit) {
  std::vector<std::byte> data(2 * kDefaultPageSize + 40);
  Rng rng(5);
  for (std::byte& b : data) b = static_cast<std::byte>(rng.NextBelow(256));
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng.NextBelow(data.size() + 1);
    const size_t split = rng.NextBelow(len + 1);
    const std::span<const std::byte> whole{data.data(), len};
    const uint32_t expected = crc32c::ChecksumScalar(whole);
    EXPECT_EQ(crc32c::Extend(crc32c::Extend(0, whole.first(split)),
                             whole.subspan(split)),
              expected)
        << "length " << len << " split " << split;
    EXPECT_EQ(crc32c::Extend(0, whole), expected) << len;
  }
}

bool CpuRunsCrc32q() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

bool CpuRunsFold() {
#if defined(__x86_64__) || defined(__i386__)
  return CpuRunsCrc32q() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("vpclmulqdq");
#else
  return false;
#endif
}

TEST(Crc32cTest, ProbePicksTheBestTierTheCpuHas) {
  const std::string expected = CpuRunsFold()     ? "vpclmulqdq"
                               : CpuRunsCrc32q() ? "crc32q"
                                                 : "table";
  EXPECT_EQ(crc32c::KernelName(), expected);
}

TEST(Crc32cTest, EveryTierMatchesTheTable) {
  // Each kernel the CPU can run, called directly: every length from 0 to
  // 9,000 bytes (the fold kernel's 256-byte steps, the crc32q kernel's
  // 1,360-byte blocks and every tail) at four start alignments, each from
  // a random CRC register.
  using Kernel = uint32_t (*)(uint32_t, const std::byte*, size_t);
  std::vector<std::pair<const char*, Kernel>> tiers;
  if (CpuRunsCrc32q()) {
    tiers.emplace_back("crc32q", crc32c::detail::ExtendHardware);
  }
  if (CpuRunsFold()) {
    tiers.emplace_back("vpclmulqdq", crc32c::detail::ExtendFold);
  }
  std::vector<std::byte> data(9000 + 13);
  Rng rng(31);
  for (std::byte& b : data) b = static_cast<std::byte>(rng.NextBelow(256));
  for (const size_t offset : {0, 1, 7, 13}) {
    for (size_t len = 0; len <= 9000; ++len) {
      const auto state = static_cast<uint32_t>(rng.NextU64());
      const std::byte* p = data.data() + offset;
      const uint32_t expected = crc32c::detail::ExtendTable(state, p, len);
      for (const auto& [name, kernel] : tiers) {
        ASSERT_EQ(kernel(state, p, len), expected)
            << name << " offset " << offset << " length " << len;
      }
    }
  }
  // The active tier continues a WAL page record (32-byte header + 4 KiB
  // page) split at every offset.
  const std::span<const std::byte> record{data.data(), 32 + kDefaultPageSize};
  const uint32_t whole = crc32c::ChecksumScalar(record);
  for (size_t split = 0; split <= record.size(); ++split) {
    ASSERT_EQ(crc32c::Extend(crc32c::Extend(0, record.first(split)),
                             record.subspan(split)),
              whole)
        << split;
  }
}

// ---------------------------------------------------------------------------
// Checksum sidecar round-trips over adversarial pages

class ChecksumSidecarTest : public ::testing::Test {
 protected:
  // Fetch the page through a verifying buffer: a checksum/sidecar mismatch
  // would fail the fetch (kDataLoss after retries).
  void ExpectVerifiedFetch(DiskManager& disk, PageId id) {
    BufferManager buffer(&disk, 2, Lru());
    const StatusOr<PageHandle> fetched = buffer.Fetch(id, AccessContext{1});
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_EQ(disk.PageChecksum(id),
              crc32c::Checksum(disk.PeekPage(id)));
  }
};

TEST_F(ChecksumSidecarTest, EmptyPage) {
  DiskManager disk;
  const PageId id = disk.AllocateOrDie();  // all-zero page, stamped at allocation
  ExpectVerifiedFetch(disk, id);
}

TEST_F(ChecksumSidecarTest, FullFanoutNode) {
  DiskManager disk;
  const PageId id = disk.AllocateOrDie();
  std::vector<std::byte> image(disk.page_size(), std::byte{0});
  rtree::NodeView node({image.data(), image.size()});
  node.Init(/*level=*/0);
  const uint32_t cap = rtree::NodeView::Capacity(disk.page_size());
  for (uint32_t i = 0; i < cap; ++i) {
    rtree::Entry e;
    e.rect = geom::Rect(i, i, i + 1.0, i + 1.0);
    e.id = i;
    node.Append(e);
  }
  ASSERT_TRUE(disk.Write(id, image).ok());
  ExpectVerifiedFetch(disk, id);
}

TEST_F(ChecksumSidecarTest, NonFiniteCoordinates) {
  DiskManager disk;
  const PageId id = disk.AllocateOrDie();
  std::vector<std::byte> image(disk.page_size(), std::byte{0});
  rtree::NodeView node({image.data(), image.size()});
  node.Init(/*level=*/0);
  const double inf = std::numeric_limits<double>::infinity();
  rtree::Entry e;
  e.rect = geom::Rect(-inf, -inf, inf, inf);
  e.id = 1;
  node.Append(e);
  ASSERT_TRUE(disk.Write(id, image).ok());
  ExpectVerifiedFetch(disk, id);
}

TEST_F(ChecksumSidecarTest, WriteRestampsAndViewForwards) {
  DiskManager disk;
  const PageId id = disk.AllocateOrDie();
  const uint32_t zero_crc = *disk.PageChecksum(id);
  std::vector<std::byte> image(disk.page_size(), std::byte{0});
  image[100] = std::byte{0x5A};
  ASSERT_TRUE(disk.Write(id, image).ok());
  EXPECT_NE(*disk.PageChecksum(id), zero_crc);
  const ReadOnlyDiskView view(disk);
  EXPECT_EQ(view.PageChecksum(id), disk.PageChecksum(id));
}

// ---------------------------------------------------------------------------
// FaultProfile parsing

TEST(FaultProfileTest, ParsesFullSpec) {
  const auto profile = FaultProfile::Parse(
      "seed=7,transient=0.01,torn=0.002,bitflip=0.001,latency=0.05,"
      "latency_us=200,bad=18-20,target=0-4096,sched=12:transient,"
      "sched=40:bitflip");
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->seed, 7u);
  EXPECT_DOUBLE_EQ(profile->transient_prob, 0.01);
  EXPECT_DOUBLE_EQ(profile->torn_read_prob, 0.002);
  EXPECT_DOUBLE_EQ(profile->bit_flip_prob, 0.001);
  EXPECT_DOUBLE_EQ(profile->latency_spike_prob, 0.05);
  EXPECT_EQ(profile->latency_spike_us, 200u);
  EXPECT_EQ(profile->bad_begin, 18u);
  EXPECT_EQ(profile->bad_end, 20u);
  EXPECT_EQ(profile->target_begin, 0u);
  EXPECT_EQ(profile->target_end, 4096u);
  ASSERT_EQ(profile->schedule.size(), 2u);
  EXPECT_EQ(profile->schedule[0].read_index, 12u);
  EXPECT_EQ(profile->schedule[0].kind, FaultKind::kTransient);
  EXPECT_EQ(profile->schedule[1].kind, FaultKind::kBitFlip);
  EXPECT_TRUE(profile->enabled());
}

TEST(FaultProfileTest, EmptySpecIsDisabled) {
  const auto profile = FaultProfile::Parse("");
  ASSERT_TRUE(profile.has_value());
  EXPECT_FALSE(profile->enabled());
}

TEST(FaultProfileTest, MalformedSpecsRejected) {
  EXPECT_FALSE(FaultProfile::Parse("transient=x").has_value());
  EXPECT_FALSE(FaultProfile::Parse("bad=9").has_value());
  EXPECT_FALSE(FaultProfile::Parse("sched=5:frob").has_value());
  EXPECT_FALSE(FaultProfile::Parse("nonsense=1").has_value());
}

// ---------------------------------------------------------------------------
// Deterministic replay

class FaultReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 16; ++i) {
      pages_.push_back(test::StagePage(disk_, PageType::kData, 0,
                                       geom::Rect(0, 0, i + 1.0, 1.0)));
    }
  }

  // Reads every page `rounds` times and records each call's outcome:
  // status code, and the checksum of whatever landed in the output buffer
  // (so silent corruptions are part of the signature too).
  std::vector<std::pair<StatusCode, uint32_t>> Replay(
      const FaultProfile& profile, int rounds) {
    FaultInjectingDevice device(disk_, profile);
    std::vector<std::byte> out(disk_.page_size());
    std::vector<std::pair<StatusCode, uint32_t>> outcomes;
    for (int r = 0; r < rounds; ++r) {
      for (const PageId page : pages_) {
        const core::Status status = device.Read(page, out);
        outcomes.emplace_back(status.code(),
                              crc32c::Checksum({out.data(), out.size()}));
      }
    }
    return outcomes;
  }

  DiskManager disk_;
  std::vector<PageId> pages_;
};

TEST_F(FaultReplayTest, SameSeedSameSchedule) {
  FaultProfile profile;
  profile.seed = 42;
  profile.transient_prob = 0.2;
  profile.torn_read_prob = 0.1;
  profile.bit_flip_prob = 0.1;
  const auto first = Replay(profile, 8);
  const auto second = Replay(profile, 8);
  EXPECT_EQ(first, second) << "fixed seed must replay bit-identically";
  bool any_fault = false;
  for (const auto& [code, crc] : first) {
    if (code != StatusCode::kOk) any_fault = true;
  }
  EXPECT_TRUE(any_fault) << "profile was supposed to inject something";
}

TEST_F(FaultReplayTest, DifferentSeedsDiverge) {
  FaultProfile profile;
  profile.transient_prob = 0.2;
  profile.seed = 1;
  const auto first = Replay(profile, 8);
  profile.seed = 2;
  const auto second = Replay(profile, 8);
  EXPECT_NE(first, second);
}

TEST_F(FaultReplayTest, ScriptedScheduleOverridesDraws) {
  FaultProfile profile;  // no probabilistic faults at all
  profile.schedule.push_back({3, FaultKind::kTransient});
  profile.schedule.push_back({5, FaultKind::kBitFlip});
  const auto outcomes = Replay(profile, 1);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 3) {
      EXPECT_EQ(outcomes[i].first, StatusCode::kUnavailable) << i;
    } else {
      EXPECT_EQ(outcomes[i].first, StatusCode::kOk) << i;
    }
    if (i == 5) {
      EXPECT_NE(outcomes[i].second,
                crc32c::Checksum(disk_.PeekPage(pages_[5]))) << i;
    }
  }
}

TEST_F(FaultReplayTest, LatencySpikesAreNotDataFaults) {
  FaultProfile profile;
  profile.latency_spike_prob = 1.0;
  profile.latency_spike_us = 0;  // accounting only — keeps the test instant
  FaultInjectingDevice device(disk_, profile);
  std::vector<std::byte> out(disk_.page_size());
  for (const PageId page : pages_) {
    ASSERT_TRUE(device.Read(page, out).ok());
  }
  EXPECT_EQ(device.fault_stats().latency_spikes, pages_.size());
  EXPECT_EQ(device.fault_stats().injected(), 0u);
  EXPECT_EQ(device.stats().reads, pages_.size())
      << "delayed-but-correct reads are clean reads";
}

// ---------------------------------------------------------------------------
// Buffer recovery: retries, checksum verification, quarantine, ledger

class BufferRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 12; ++i) {
      pages_.push_back(test::StagePage(disk_, PageType::kData, 0,
                                       geom::Rect(0, 0, i + 1.0, 1.0)));
    }
  }

  DiskManager disk_;
  std::vector<PageId> pages_;
};

TEST_F(BufferRecoveryTest, TransientFaultsRecoverAndLedgerBalances) {
  FaultProfile profile;
  profile.seed = 9;
  profile.transient_prob = 0.15;
  FaultInjectingDevice device(disk_, profile);
  ResilienceOptions resilience;
  resilience.max_read_retries = 8;  // 0.15^9 — retry exhaustion impossible
  BufferManager buffer(&device, 4, Lru(), nullptr, resilience);
  uint64_t query = 0;
  for (int round = 0; round < 10; ++round) {
    for (const PageId page : pages_) {
      const StatusOr<PageHandle> fetched =
          buffer.Fetch(page, AccessContext{++query});
      ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    }
  }
  const core::BufferStats& stats = buffer.stats();
  EXPECT_GT(device.fault_stats().injected(), 0u);
  // Every injected data fault is exactly one failed buffer read attempt:
  // either it was retried, or it ended the fetch as a permanent failure.
  EXPECT_EQ(device.fault_stats().injected(),
            stats.io_read_retries + stats.io_permanent_failures);
  EXPECT_EQ(stats.io_permanent_failures, 0u)
      << "transient faults must always recover within the retry budget";
  EXPECT_GT(stats.io_recovered_reads, 0u);
  EXPECT_EQ(buffer.quarantined_count(), 0u);
}

TEST_F(BufferRecoveryTest, RecoveredRunMatchesFaultFreeRunBitForBit) {
  const auto run = [&](PageDevice& device) {
    BufferManager buffer(&device, 4, Lru());
    uint64_t query = 0;
    for (int round = 0; round < 6; ++round) {
      for (const PageId page : pages_) {
        PageHandle handle = buffer.FetchOrDie(page, AccessContext{++query});
        handle.Release();
      }
    }
    return std::make_tuple(device.stats().reads,
                           device.stats().sequential_reads,
                           buffer.stats().hits, buffer.stats().misses);
  };

  ReadOnlyDiskView plain(disk_);
  const auto baseline = run(plain);

  FaultProfile profile;
  profile.seed = 11;
  profile.transient_prob = 0.2;
  profile.bit_flip_prob = 0.05;
  profile.torn_read_prob = 0.05;
  ReadOnlyDiskView faulted_view(disk_);
  FaultInjectingDevice device(faulted_view, profile);
  const auto with_faults = run(device);

  EXPECT_GT(device.fault_stats().injected(), 0u);
  EXPECT_EQ(baseline, with_faults)
      << "clean-read accounting must hide recovered retry traffic";
}

TEST_F(BufferRecoveryTest, CorruptionIsDetectedAndReread) {
  FaultProfile profile;
  profile.schedule.push_back({0, FaultKind::kBitFlip});
  profile.schedule.push_back({2, FaultKind::kTornRead});
  FaultInjectingDevice device(disk_, profile);
  BufferManager buffer(&device, 4, Lru());
  PageHandle a = buffer.FetchOrDie(pages_[0], AccessContext{1});
  PageHandle b = buffer.FetchOrDie(pages_[1], AccessContext{2});
  EXPECT_EQ(buffer.stats().io_checksum_mismatches, 2u);
  EXPECT_EQ(buffer.stats().io_recovered_reads, 2u);
  // The delivered images are the true pages, not the corrupted transfers.
  EXPECT_EQ(crc32c::Checksum(a.bytes()), *disk_.PageChecksum(pages_[0]));
  EXPECT_EQ(crc32c::Checksum(b.bytes()), *disk_.PageChecksum(pages_[1]));
}

TEST_F(BufferRecoveryTest, CorruptionUndetectedWithoutVerification) {
  FaultProfile profile;
  profile.schedule.push_back({0, FaultKind::kBitFlip});
  FaultInjectingDevice device(disk_, profile);
  ResilienceOptions resilience;
  resilience.verify_checksums = false;
  BufferManager buffer(&device, 4, Lru(), nullptr, resilience);
  PageHandle handle = buffer.FetchOrDie(pages_[0], AccessContext{1});
  EXPECT_EQ(buffer.stats().io_checksum_mismatches, 0u);
  EXPECT_NE(crc32c::Checksum(handle.bytes()), *disk_.PageChecksum(pages_[0]))
      << "without verification the corrupt image reaches the caller";
}

TEST_F(BufferRecoveryTest, BadSectorQuarantinesFrameAndFailsFast) {
  FaultProfile profile;
  profile.bad_begin = pages_[3];
  profile.bad_end = pages_[3] + 1;
  FaultInjectingDevice device(disk_, profile);
  BufferManager buffer(&device, 4, Lru());

  const StatusOr<PageHandle> fetched =
      buffer.Fetch(pages_[3], AccessContext{1});
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kPermanentFailure);
  EXPECT_EQ(buffer.quarantined_count(), 1u);
  EXPECT_EQ(buffer.stats().io_quarantined_frames, 1u);
  EXPECT_TRUE(buffer.IsBadPage(pages_[3]));
  EXPECT_EQ(device.fault_stats().injected(),
            buffer.stats().io_read_retries +
                buffer.stats().io_permanent_failures);

  // Fail-fast: the second fetch does not touch the device at all.
  const uint64_t attempts = device.reads_attempted();
  const StatusOr<PageHandle> again =
      buffer.Fetch(pages_[3], AccessContext{2});
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kPermanentFailure);
  EXPECT_EQ(device.reads_attempted(), attempts);

  // The rest of the pool keeps serving.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(buffer.Fetch(pages_[i], AccessContext{3}).ok());
  }
}

TEST_F(BufferRecoveryTest, QuarantineCapRecyclesFramesBeyondCap) {
  FaultProfile profile;
  profile.bad_begin = pages_[0];
  profile.bad_end = pages_[8];  // more bad pages than the quarantine cap
  FaultInjectingDevice device(disk_, profile);
  BufferManager buffer(&device, 4, Lru());  // cap = frames/2 = 2
  uint64_t query = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_FALSE(buffer.Fetch(pages_[i], AccessContext{++query}).ok());
  }
  EXPECT_EQ(buffer.quarantined_count(), 2u)
      << "quarantine stops at the cap; later failures recycle the frame";
  EXPECT_EQ(buffer.bad_page_count(), 8u);
  // Healthy pages still fit in the remaining frames.
  for (int i = 8; i < 12; ++i) {
    ASSERT_TRUE(buffer.Fetch(pages_[i], AccessContext{++query}).ok());
  }
}

TEST_F(BufferRecoveryTest, RetryBudgetExhaustionIsTerminal) {
  // A page that fails on every single read: scripted transient faults on
  // each of the 1 + max_read_retries attempts of the first fetch.
  FaultProfile profile;
  for (uint64_t i = 0; i < 4; ++i) {
    profile.schedule.push_back({i, FaultKind::kTransient});
  }
  FaultInjectingDevice device(disk_, profile);
  ResilienceOptions resilience;
  resilience.max_read_retries = 3;
  BufferManager buffer(&device, 4, Lru(), nullptr, resilience);
  const StatusOr<PageHandle> fetched =
      buffer.Fetch(pages_[0], AccessContext{1});
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(buffer.stats().io_read_retries, 3u);
  EXPECT_EQ(buffer.stats().io_permanent_failures, 1u);
  EXPECT_EQ(device.reads_attempted(), 4u);
  EXPECT_EQ(device.fault_stats().injected(),
            buffer.stats().io_read_retries +
                buffer.stats().io_permanent_failures);
}

// ---------------------------------------------------------------------------
// Concurrent quarantine through the sharded service

TEST(ServiceFaultTest, ConcurrentFetchesDegradeInsteadOfAborting) {
  DiskManager disk;
  std::vector<PageId> pages;
  for (int i = 0; i < 64; ++i) {
    pages.push_back(test::StagePage(disk, PageType::kData, 0,
                                    geom::Rect(0, 0, i + 1.0, 1.0)));
  }
  svc::BufferServiceConfig config;
  config.total_frames = 32;
  config.shard_count = 4;
  config.policy_spec = "LRU";
  config.fault_profile.seed = 21;
  config.fault_profile.transient_prob = 0.02;
  config.fault_profile.bad_begin = pages[5];
  config.fault_profile.bad_end = pages[5] + 2;
  svc::BufferService service(disk, config);

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> succeeded{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        uint64_t query = static_cast<uint64_t>(t) << 32;
        for (int r = 0; r < kRounds; ++r) {
          for (const PageId page : pages) {
            StatusOr<PageHandle> fetched =
                service.Fetch(page, AccessContext{++query});
            if (fetched.ok()) {
              succeeded.fetch_add(1, std::memory_order_relaxed);
            } else {
              failed.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
  }

  const svc::ShardStats total = service.AggregateStats();
  EXPECT_EQ(succeeded.load() + failed.load(),
            uint64_t{kThreads} * kRounds * pages.size());
  // The two bad pages failed for every thread on every round (fail-fast
  // after the first terminal failure), everything else kept serving.
  EXPECT_GE(failed.load(), uint64_t{kThreads} * kRounds * 2);
  EXPECT_EQ(total.bad_pages, 2u);
  EXPECT_GE(total.quarantined_frames, 1u);
  EXPECT_EQ(total.usable_frames,
            config.total_frames - total.quarantined_frames);
  // Ledger over all shards: injected == retried + terminal.
  const FaultStats faults = service.AggregateFaultStats();
  EXPECT_EQ(faults.injected(),
            total.buffer.io_read_retries + total.buffer.io_permanent_failures);
}

// ---------------------------------------------------------------------------
// Write-path fault injection: profile grammar, determinism, fsyncgate

TEST(FaultProfileTest, ParsesWriteSpec) {
  const auto profile = FaultProfile::Parse(
      "seed=11,wtransient=0.01,sync_fail=0.02,disk_full=0.003,full_after=100,"
      "wbad=3-5,wsched=7:torn_write,wsched=9:transient,wsched=11:permanent,"
      "wsched=13,ssched=2");
  ASSERT_TRUE(profile.has_value());
  EXPECT_DOUBLE_EQ(profile->write_transient_prob, 0.01);
  EXPECT_DOUBLE_EQ(profile->sync_failure_prob, 0.02);
  EXPECT_DOUBLE_EQ(profile->disk_full_prob, 0.003);
  EXPECT_EQ(profile->disk_full_after, 100u);
  EXPECT_EQ(profile->write_bad_begin, 3u);
  EXPECT_EQ(profile->write_bad_end, 5u);
  ASSERT_EQ(profile->write_schedule.size(), 4u);
  EXPECT_EQ(profile->write_schedule[0].write_index, 7u);
  EXPECT_EQ(profile->write_schedule[0].kind, FaultKind::kTornWrite);
  EXPECT_EQ(profile->write_schedule[1].kind, FaultKind::kWriteTransient);
  EXPECT_EQ(profile->write_schedule[2].kind, FaultKind::kWriteBadSector);
  EXPECT_EQ(profile->write_schedule[3].kind, FaultKind::kTornWrite)
      << "a bare wsched index defaults to the legacy torn write";
  ASSERT_EQ(profile->sync_schedule.size(), 1u);
  EXPECT_EQ(profile->sync_schedule[0], 2u);
  EXPECT_TRUE(profile->enabled());
  EXPECT_TRUE(profile->sync_faults_enabled());
  EXPECT_FALSE(FaultProfile::Parse("wsched=5:frob").has_value());
  EXPECT_FALSE(FaultProfile::Parse("wbad=9").has_value());
}

class WriteFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 8; ++i) {
      pages_.push_back(test::StagePage(disk_, PageType::kData, 0,
                                       geom::Rect(0, 0, i + 1.0, 1.0)));
    }
    image_.assign(disk_.page_size(), std::byte{0x7C});
  }

  DiskManager disk_;
  std::vector<PageId> pages_;
  std::vector<std::byte> image_;
};

TEST_F(WriteFaultTest, SameSeedReplaysWriteOutcomes) {
  FaultProfile profile;
  profile.seed = 33;
  profile.write_transient_prob = 0.25;
  const auto run = [&] {
    FaultInjectingDevice device(disk_, profile);
    std::vector<StatusCode> outcomes;
    for (int round = 0; round < 8; ++round) {
      for (const PageId page : pages_) {
        outcomes.push_back(device.Write(page, image_).code());
      }
    }
    return outcomes;
  };
  const auto first = run();
  EXPECT_EQ(first, run()) << "fixed seed must replay bit-identically";
  EXPECT_TRUE(std::find(first.begin(), first.end(),
                        StatusCode::kUnavailable) != first.end());
}

TEST_F(WriteFaultTest, ScriptedWriteScheduleAndBadRange) {
  FaultProfile profile;  // no probabilistic faults
  profile.write_schedule.push_back({2, FaultKind::kWriteTransient});
  profile.write_bad_begin = pages_[5];
  profile.write_bad_end = pages_[5] + 1;
  FaultInjectingDevice device(disk_, profile);
  for (size_t i = 0; i < pages_.size(); ++i) {
    const core::Status status = device.Write(pages_[i], image_);
    if (i == 2) {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable) << i;
      EXPECT_TRUE(status.retryable());
    } else if (pages_[i] == pages_[5]) {
      EXPECT_EQ(status.code(), StatusCode::kPermanentFailure) << i;
      EXPECT_FALSE(status.retryable());
    } else {
      EXPECT_TRUE(status.ok()) << i;
    }
  }
  EXPECT_EQ(device.fault_stats().write_transient_errors, 1u);
  EXPECT_EQ(device.fault_stats().write_permanent_errors, 1u);
  // A failed write must not reach the device: clean stats count clean I/O.
  EXPECT_EQ(device.stats().writes, pages_.size() - 2);
}

TEST_F(WriteFaultTest, TransientWriteLeavesDeviceUntouched) {
  FaultProfile profile;
  profile.write_schedule.push_back({0, FaultKind::kWriteTransient});
  FaultInjectingDevice device(disk_, profile);
  const uint32_t before = crc32c::Checksum(disk_.PeekPage(pages_[0]));
  EXPECT_EQ(device.Write(pages_[0], image_).code(), StatusCode::kUnavailable);
  EXPECT_EQ(crc32c::Checksum(disk_.PeekPage(pages_[0])), before)
      << "a rejected write must not have partially landed";
}

TEST_F(WriteFaultTest, DiskFullByCapacityAndByDraw) {
  FaultProfile capacity;
  capacity.disk_full_after = disk_.page_count() + 2;
  {
    FaultInjectingDevice device(disk_, capacity);
    EXPECT_TRUE(device.Allocate().ok());
    EXPECT_TRUE(device.Allocate().ok());
    const StatusOr<PageId> full = device.Allocate();
    EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(full.status().retryable())
        << "disk full is backpressure, not a retry candidate";
    EXPECT_EQ(device.fault_stats().disk_full_errors, 1u);
  }
  FaultProfile draws;
  draws.seed = 5;
  draws.disk_full_prob = 0.5;
  FaultInjectingDevice device(disk_, draws);
  uint64_t failed = 0;
  for (int i = 0; i < 32; ++i) {
    if (!device.Allocate().ok()) ++failed;
  }
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, 32u);
  EXPECT_EQ(device.fault_stats().disk_full_errors, failed);
}

TEST_F(WriteFaultTest, DiskManagerCapacityReturnsResourceExhausted) {
  DiskManager disk;
  disk.set_page_capacity(2);
  EXPECT_TRUE(disk.Allocate().ok());
  EXPECT_TRUE(disk.Allocate().ok());
  const StatusOr<PageId> full = disk.Allocate();
  EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(disk.page_count(), 2u);
}

TEST_F(WriteFaultTest, FailedSyncRevertsWritesSinceLastSync) {
  FaultProfile profile;
  profile.sync_schedule.push_back(0);  // first Sync fails, second succeeds
  FaultInjectingDevice device(disk_, profile);
  const uint32_t before_a = crc32c::Checksum(disk_.PeekPage(pages_[0]));
  const uint32_t before_b = crc32c::Checksum(disk_.PeekPage(pages_[1]));
  ASSERT_TRUE(device.Write(pages_[0], image_).ok());
  ASSERT_TRUE(device.Write(pages_[1], image_).ok());
  // The acknowledged writes are in the page cache; the lying fsync drops
  // them, exactly like a kernel discarding dirty pages on fsync failure.
  const core::Status synced = device.Sync();
  EXPECT_EQ(synced.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(synced.retryable());
  EXPECT_EQ(crc32c::Checksum(disk_.PeekPage(pages_[0])), before_a);
  EXPECT_EQ(crc32c::Checksum(disk_.PeekPage(pages_[1])), before_b);
  EXPECT_EQ(device.fault_stats().sync_failures, 1u);
  // Rewriting and syncing again (the fsyncgate-correct recovery protocol)
  // makes the bytes stick.
  ASSERT_TRUE(device.Write(pages_[0], image_).ok());
  ASSERT_TRUE(device.Write(pages_[1], image_).ok());
  ASSERT_TRUE(device.Sync().ok());
  EXPECT_EQ(crc32c::Checksum(disk_.PeekPage(pages_[0])),
            crc32c::Checksum({image_.data(), image_.size()}));
}

TEST_F(WriteFaultTest, SuccessfulSyncKeepsBytesAndClearsStash) {
  FaultProfile profile;
  profile.sync_schedule.push_back(1);  // second Sync fails
  FaultInjectingDevice device(disk_, profile);
  ASSERT_TRUE(device.Write(pages_[0], image_).ok());
  ASSERT_TRUE(device.Sync().ok());
  // The page was durable before the failing sync: nothing to revert.
  EXPECT_EQ(device.Sync().code(), StatusCode::kUnavailable);
  EXPECT_EQ(crc32c::Checksum(disk_.PeekPage(pages_[0])),
            crc32c::Checksum({image_.data(), image_.size()}))
      << "a failed sync must only drop writes since the last good sync";
}

TEST_F(WriteFaultTest, WriteFaultRunKeepsReadStatsClean) {
  // A run that recovers every write fault upstream must report the same
  // *clean* stats as a fault-free run — the paper's disk-access metric is
  // not perturbed by retry traffic.
  FaultProfile profile;
  profile.seed = 77;
  profile.write_transient_prob = 0.3;
  FaultInjectingDevice device(disk_, profile);
  std::vector<std::byte> out(disk_.page_size());
  uint64_t clean_writes = 0;
  for (const PageId page : pages_) {
    ASSERT_TRUE(device.Read(page, out).ok());
    while (!device.Write(page, image_).ok()) {
    }
    ++clean_writes;
  }
  EXPECT_EQ(device.stats().reads, pages_.size());
  EXPECT_EQ(device.stats().writes, clean_writes);
  EXPECT_GT(device.fault_stats().write_transient_errors, 0u);
  EXPECT_GT(device.writes_attempted(), clean_writes);
}

}  // namespace
}  // namespace sdb::storage

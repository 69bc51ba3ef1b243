#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/random.h"
#include "core/buffer_manager.h"
#include "core/policy_factory.h"
#include "storage/fault_injection.h"
#include "test_util.h"

namespace sdb::core {
namespace {

using storage::DiskManager;
using storage::PageId;

/// Shadow-model fuzz: drive the buffer manager with a random interleaving
/// of fetches, long-lived pins, releases, page modifications, and flushes,
/// and check after every step against a trivially correct model:
///  * residency never exceeds capacity;
///  * pinned pages stay resident;
///  * page contents read back exactly what the model last wrote, no matter
///    how often the page was evicted and reloaded in between;
///  * hit/miss/eviction accounting stays consistent.
/// Parameterized over policies so every eviction strategy faces the same
/// adversarial schedule.
class BufferFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(BufferFuzzTest, RandomOpsAgainstShadowModel) {
  const auto& [policy_spec, seed] = GetParam();
  constexpr size_t kFrames = 8;
  constexpr size_t kPages = 40;
  constexpr int kSteps = 5000;

  DiskManager disk;
  std::vector<PageId> pages;
  for (size_t i = 0; i < kPages; ++i) {
    pages.push_back(test::StagePage(disk, storage::PageType::kData, 0,
                                    geom::Rect(0, 0, 0.01 * (i + 1), 0.01)));
  }
  BufferManager buffer(&disk, kFrames, CreatePolicy(policy_spec));

  // Shadow state: the authoritative byte each page must carry at offset
  // 100, and the set of long-lived pins.
  std::map<PageId, uint8_t> shadow_value;
  std::map<PageId, PageHandle> held_pins;
  Rng rng(seed);
  uint64_t query = 0;

  for (int step = 0; step < kSteps; ++step) {
    const double dice = rng.NextDouble();
    const PageId page = pages[rng.NextBelow(kPages)];
    const AccessContext ctx{++query};

    if (dice < 0.55) {
      // Plain access, with verification of the page contents.
      PageHandle handle = buffer.FetchOrDie(page, ctx);
      const auto it = shadow_value.find(page);
      const uint8_t expected = it == shadow_value.end() ? 0 : it->second;
      ASSERT_EQ(handle.bytes()[100], static_cast<std::byte>(expected))
          << policy_spec << " lost a write to page " << page;
    } else if (dice < 0.75) {
      // Modify the page in place.
      PageHandle handle = buffer.FetchOrDie(page, ctx);
      const uint8_t value = static_cast<uint8_t>(rng.NextBelow(250) + 1);
      handle.bytes()[100] = static_cast<std::byte>(value);
      handle.MarkDirty();
      shadow_value[page] = value;
    } else if (dice < 0.85) {
      // Take a long-lived pin (bounded so frames remain available).
      if (held_pins.size() < kFrames - 2 && !held_pins.contains(page)) {
        held_pins.emplace(page, buffer.FetchOrDie(page, ctx));
      }
    } else if (dice < 0.95) {
      // Drop a random long-lived pin.
      if (!held_pins.empty()) {
        auto it = held_pins.begin();
        std::advance(it, rng.NextBelow(held_pins.size()));
        held_pins.erase(it);
      }
    } else {
      buffer.FlushAll();
    }

    // Invariants after every step.
    ASSERT_LE(buffer.resident_count(), kFrames);
    for (const auto& [pinned_page, handle] : held_pins) {
      ASSERT_TRUE(buffer.Contains(pinned_page))
          << policy_spec << " evicted pinned page " << pinned_page;
    }
    ASSERT_EQ(buffer.stats().hits + buffer.stats().misses,
              buffer.stats().requests);
  }

  // Final consistency: flush and verify every page's disk image.
  held_pins.clear();
  buffer.FlushAll();
  for (const auto& [page, value] : shadow_value) {
    const std::span<const std::byte> image = disk.PeekPage(page);
    EXPECT_EQ(image[100], static_cast<std::byte>(value)) << "page " << page;
  }
}

/// Fault-mode fuzz: the same kind of adversarial schedule, but the buffer
/// reads through a FaultInjectingDevice with ~1% transient faults plus rare
/// corruptions. Every fault must be recovered within the bounded retry
/// budget (probabilistic faults redraw per attempt, so no page can fail
/// terminally), the shadow model must stay exact, and the recovery ledger
/// must balance — no crash, no unbounded retries.
class BufferFaultFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(BufferFaultFuzzTest, RandomOpsUnderTransientFaults) {
  const auto& [policy_spec, seed] = GetParam();
  constexpr size_t kFrames = 8;
  constexpr size_t kPages = 40;
  constexpr int kSteps = 3000;

  DiskManager disk;
  std::vector<PageId> pages;
  for (size_t i = 0; i < kPages; ++i) {
    pages.push_back(test::StagePage(disk, storage::PageType::kData, 0,
                                    geom::Rect(0, 0, 0.01 * (i + 1), 0.01)));
  }
  storage::FaultProfile profile;
  profile.seed = seed * 1000003 + 17;
  profile.transient_prob = 0.01;
  profile.bit_flip_prob = 0.002;
  profile.torn_read_prob = 0.002;
  storage::FaultInjectingDevice device(disk, profile);
  BufferManager buffer(&device, kFrames, CreatePolicy(policy_spec));

  std::map<PageId, uint8_t> shadow_value;
  std::map<PageId, PageHandle> held_pins;
  Rng rng(seed);
  uint64_t query = 0;

  for (int step = 0; step < kSteps; ++step) {
    const double dice = rng.NextDouble();
    const PageId page = pages[rng.NextBelow(kPages)];
    const AccessContext ctx{++query};

    if (dice < 0.6) {
      PageHandle handle = buffer.FetchOrDie(page, ctx);
      const auto it = shadow_value.find(page);
      const uint8_t expected = it == shadow_value.end() ? 0 : it->second;
      ASSERT_EQ(handle.bytes()[100], static_cast<std::byte>(expected))
          << policy_spec << " delivered stale/corrupt bytes for page "
          << page;
    } else if (dice < 0.8) {
      PageHandle handle = buffer.FetchOrDie(page, ctx);
      const uint8_t value = static_cast<uint8_t>(rng.NextBelow(250) + 1);
      handle.bytes()[100] = static_cast<std::byte>(value);
      handle.MarkDirty();
      shadow_value[page] = value;
    } else if (dice < 0.9) {
      if (held_pins.size() < kFrames - 2 && !held_pins.contains(page)) {
        held_pins.emplace(page, buffer.FetchOrDie(page, ctx));
      }
    } else {
      if (!held_pins.empty()) {
        auto it = held_pins.begin();
        std::advance(it, rng.NextBelow(held_pins.size()));
        held_pins.erase(it);
      }
    }

    ASSERT_LE(buffer.resident_count(), kFrames);
    ASSERT_EQ(buffer.stats().hits + buffer.stats().misses,
              buffer.stats().requests);
  }

  // No terminal failures, no quarantine, and the ledger balances: every
  // injected fault is exactly one retried read attempt.
  EXPECT_GT(device.fault_stats().injected(), 0u)
      << "the profile was supposed to inject faults";
  EXPECT_EQ(buffer.stats().io_permanent_failures, 0u);
  EXPECT_EQ(buffer.quarantined_count(), 0u);
  EXPECT_EQ(device.fault_stats().injected(), buffer.stats().io_read_retries);
  EXPECT_LE(buffer.stats().io_recovered_reads,
            buffer.stats().io_read_retries);
  // Bounded retries: attempts never exceed misses * (1 + retry budget).
  EXPECT_LE(device.reads_attempted(),
            buffer.stats().misses * (1 + BufferManager::kMaxReadRetries));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, BufferFaultFuzzTest,
    ::testing::Values(std::tuple<std::string, uint64_t>{"LRU", 1},
                      std::tuple<std::string, uint64_t>{"ASB", 1},
                      std::tuple<std::string, uint64_t>{"ARC", 2},
                      std::tuple<std::string, uint64_t>{"LRU-2", 3}),
    [](const ::testing::TestParamInfo<std::tuple<std::string, uint64_t>>&
           info) {
      std::string name = std::get<0>(info.param) + "_s" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

std::vector<std::tuple<std::string, uint64_t>> FuzzParams() {
  std::vector<std::tuple<std::string, uint64_t>> params;
  for (const std::string& spec : KnownPolicySpecs()) {
    params.emplace_back(spec, 1);
  }
  // Extra seeds for a few representative policies.
  for (const uint64_t seed : {2, 3, 4}) {
    params.emplace_back("LRU", seed);
    params.emplace_back("ASB", seed);
    params.emplace_back("LRU-2", seed);
    params.emplace_back("ARC", seed);
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, BufferFuzzTest, ::testing::ValuesIn(FuzzParams()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, uint64_t>>&
           info) {
      std::string name = std::get<0>(info.param) + "_s" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace sdb::core

// The buffer's open-addressing page table (core/page_table.h): probe
// chains survive erases, the version counter moves once per mutation, a
// seeded operation stream agrees with std::unordered_map, and lock-free
// readers beside a churning writer only ever see correct mappings. Also
// pins the splitmix64 mixer its home slots (and every other page-id hash)
// come from.

#include "core/page_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"

namespace sdb::core {
namespace {

using storage::PageId;

static_assert(PageTable::kTombstone != PageTable::kEmpty,
              "an erased slot must not end probe chains");

/// The first `count` page ids that share one home slot.
std::vector<PageId> CollidingPages(const PageTable& table, size_t count) {
  std::map<size_t, std::vector<PageId>> by_home;
  for (PageId page = 0;; ++page) {
    std::vector<PageId>& group = by_home[table.Home(page)];
    group.push_back(page);
    if (group.size() == count) return group;
  }
}

// Mix64 is SplitMix64's output function: its value at 0 is the
// generator's published first output for seed 0, and an Rng seeded with 0
// draws exactly that value first.
TEST(Mix64Test, MatchesTheFirstSplitMix64OutputOfSeedZero) {
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafULL);
  Rng rng(0);
  EXPECT_EQ(rng.NextU64(), Mix64(0));
}

TEST(PageTableTest, ErasingTheMiddleOfAProbeChainKeepsLaterKeysFindable) {
  PageTable table(8);
  ASSERT_EQ(table.capacity(), 16u);
  const std::vector<PageId> chain = CollidingPages(table, 4);
  table.Insert(chain[0], 10);
  table.Insert(chain[1], 11);
  table.Insert(chain[2], 12);

  table.Erase(chain[1]);
  EXPECT_EQ(table.Lookup(chain[0]), 10u);
  EXPECT_EQ(table.Lookup(chain[1]), PageTable::kInvalidFrame);
  EXPECT_EQ(table.Lookup(chain[2]), 12u);
  EXPECT_EQ(table.size(), 2u);

  // A fourth colliding key reuses the vacated slot; every key stays
  // findable, and erasing twice is a no-op.
  table.Insert(chain[3], 13);
  table.Erase(chain[1]);
  EXPECT_EQ(table.Lookup(chain[0]), 10u);
  EXPECT_EQ(table.Lookup(chain[2]), 12u);
  EXPECT_EQ(table.Lookup(chain[3]), 13u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(PageTableTest, VersionAdvancesOncePerEraseUntilTombstonesForceARebuild) {
  PageTable table(64);
  const size_t quarter = table.capacity() / 4;
  for (PageId page = 0; page < 64; ++page) table.Insert(page, page + 100);
  ASSERT_EQ(table.size(), 64u);

  // Up to a quarter of the slots may hold tombstones: each erase is one
  // mutation, never a rebuild.
  PageId next = 0;
  for (; next < quarter; ++next) {
    const uint64_t before = table.version();
    table.Erase(next);
    EXPECT_EQ(table.version(), before + 1) << "erase " << next;
  }
  // One more tombstone compacts the table: the erase plus one re-insert per
  // remaining page.
  const uint64_t before = table.version();
  table.Erase(next++);
  EXPECT_EQ(table.version(), before + 1 + table.size());
  for (PageId page = 0; page < 64; ++page) {
    EXPECT_EQ(table.Lookup(page),
              page < next ? PageTable::kInvalidFrame : page + 100)
        << page;
  }
}

void CheckAgainstOracle(size_t frames, uint64_t seed) {
  PageTable table(frames);
  std::unordered_map<PageId, uint32_t> oracle;
  Rng rng(seed);
  // Twice as many page ids as frames: lookups and erases hit and miss.
  const uint64_t universe = 2 * frames;
  for (int op = 0; op < 100'000; ++op) {
    const PageId page = static_cast<PageId>(rng.NextBelow(universe));
    const uint64_t kind = rng.NextBelow(3);
    if (kind == 0 && !oracle.contains(page) && oracle.size() < frames) {
      const uint32_t frame = static_cast<uint32_t>(rng.NextBelow(frames));
      table.Insert(page, frame);
      oracle.emplace(page, frame);
    } else if (kind == 1) {
      table.Erase(page);
      oracle.erase(page);
    } else {
      const auto it = oracle.find(page);
      ASSERT_EQ(table.Lookup(page),
                it == oracle.end() ? PageTable::kInvalidFrame : it->second)
          << "op " << op << " page " << page;
    }
    ASSERT_EQ(table.size(), oracle.size()) << "op " << op;
  }
  for (PageId page = 0; page < universe; ++page) {
    const auto it = oracle.find(page);
    ASSERT_EQ(table.Lookup(page),
              it == oracle.end() ? PageTable::kInvalidFrame : it->second)
        << page;
  }
}

TEST(PageTableTest, SeededOperationsAgreeWithUnorderedMapAt16Frames) {
  CheckAgainstOracle(16, 1);
}

TEST(PageTableTest, SeededOperationsAgreeWithUnorderedMapAt16384Frames) {
  CheckAgainstOracle(16'384, 2);
}

TEST(PageTableTest, LockFreeReadersSeeOnlyCorrectMappingsBesideAWriter) {
  constexpr PageId kStable = 64;
  PageTable table(256);
  for (PageId page = 0; page < kStable; ++page) table.Insert(page, page + 7);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Insert/erase churn on other pages: tombstones pile up and the table
    // rebuilds under the readers many times over.
    Rng rng(3);
    std::vector<PageId> churn;
    for (int op = 0; op < 50'000; ++op) {
      if (churn.size() < 128 && rng.NextBelow(2) == 0) {
        const PageId page = 1'000 + static_cast<PageId>(op);
        table.Insert(page, 1);
        churn.push_back(page);
      } else if (!churn.empty()) {
        const size_t victim = rng.NextBelow(churn.size());
        table.Erase(churn[victim]);
        churn[victim] = churn.back();
        churn.pop_back();
      }
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  std::atomic<uint64_t> wrong{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      PageId page = static_cast<PageId>(r);
      while (!stop.load(std::memory_order_acquire)) {
        // A rebuild may hide a stable page for a moment (the caller then
        // takes the latched path), but a hit always names its own frame.
        const uint32_t frame = table.Lookup(page);
        if (frame != PageTable::kInvalidFrame && frame != page + 7) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        page = (page + 1) % kStable;
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(wrong.load(), 0u);
  for (PageId page = 0; page < kStable; ++page) {
    EXPECT_EQ(table.Lookup(page), page + 7) << page;
  }
}

}  // namespace
}  // namespace sdb::core

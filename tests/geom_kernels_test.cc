// Property suite for the batch geometry kernels (geom/kernels): every
// compiled-in dispatch tier must match the scalar reference BIT-FOR-BIT —
// same mask bytes and hit counts from IntersectMask, and identical double
// bit patterns from the three sum kernels — over adversarial rectangle
// sets: empty (inverted, ±inf coordinates), degenerate points/lines,
// touching edges, huge-magnitude coordinates, and dense random mixtures.
//
// Carries the "kernels" ctest label so the asan preset (full suite) and the
// tsan preset (label filter tsan|obs|kernels) both exercise it.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/buffer_manager.h"
#include "core/policy_lru.h"
#include "geom/entry_aggregates.h"
#include "geom/kernels/kernels.h"
#include "rtree/node_view.h"
#include "rtree/rtree.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace sdb::geom::kernels {
namespace {

std::vector<Level> AvailableLevels() {
  std::vector<Level> levels{Level::kScalar};
  if (LevelAvailable(Level::kAvx2)) levels.push_back(Level::kAvx2);
  return levels;
}

/// SoA rect set under construction.
struct RectSet {
  std::vector<double> xmin, ymin, xmax, ymax;

  size_t size() const { return xmin.size(); }
  void Add(const Rect& r) {
    xmin.push_back(r.xmin);
    ymin.push_back(r.ymin);
    xmax.push_back(r.xmax);
    ymax.push_back(r.ymax);
  }
  Rect At(size_t i) const {
    return Rect(xmin[i], ymin[i], xmax[i], ymax[i]);
  }
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One random rect drawn from the adversarial categories.
Rect AdversarialRect(Rng& rng) {
  switch (rng.NextU64() % 8) {
    case 0:
      return Rect();  // empty: ±inf sentinel coordinates
    case 1: {          // inverted on one axis
      const double x = rng.Uniform(-1, 1), y = rng.Uniform(-1, 1);
      return Rect(x + 0.5, y, x, y + 0.5);
    }
    case 2: {  // degenerate point
      const double x = rng.Uniform(-1, 1), y = rng.Uniform(-1, 1);
      return Rect(x, y, x, y);
    }
    case 3: {  // degenerate horizontal/vertical line
      const double x = rng.Uniform(-1, 1), y = rng.Uniform(-1, 1);
      return rng.NextU64() % 2 ? Rect(x, y, x + 0.5, y) : Rect(x, y, x, y + 0.5);
    }
    case 4: {  // integer grid: exact touching edges/corners
      const double x = static_cast<double>(rng.NextU64() % 8);
      const double y = static_cast<double>(rng.NextU64() % 8);
      return Rect(x, y, x + static_cast<double>(rng.NextU64() % 3),
                  y + static_cast<double>(rng.NextU64() % 3));
    }
    case 5: {  // huge-magnitude coordinates
      const double s = 1e300;
      const double x = rng.Uniform(-1, 1) * s, y = rng.Uniform(-1, 1) * s;
      return Rect(x, y, x + rng.NextDouble() * s, y + rng.NextDouble() * s);
    }
    case 6: {  // half-open to infinity
      const double x = rng.Uniform(-1, 1), y = rng.Uniform(-1, 1);
      return rng.NextU64() % 2 ? Rect(x, y, kInf, y + 1)
                            : Rect(-kInf, y, x, y + 1);
    }
    default: {  // plain random box
      const double x = rng.Uniform(-2, 2), y = rng.Uniform(-2, 2);
      return Rect(x, y, x + rng.NextDouble(), y + rng.NextDouble());
    }
  }
}

RectSet AdversarialSet(Rng& rng, size_t n) {
  RectSet set;
  for (size_t i = 0; i < n; ++i) set.Add(AdversarialRect(rng));
  return set;
}

/// EXPECT bit-identical doubles (distinguishes ±0, compares NaN payloads).
void ExpectBitEqual(double reference, double candidate, const char* what,
                    Level level, size_t n) {
  EXPECT_EQ(std::bit_cast<uint64_t>(reference),
            std::bit_cast<uint64_t>(candidate))
      << what << " diverges from scalar at level "
      << LevelName(level) << " (n=" << n << "): scalar=" << reference
      << " got=" << candidate;
}

class KernelsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelsPropertyTest, AllTiersMatchScalarBitForBit) {
  Rng rng(GetParam());
  const std::vector<Level> levels = AvailableLevels();
  const Ops& scalar = OpsFor(Level::kScalar);
  const size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 63, 64, 84, 200};
  for (const size_t n : sizes) {
    const RectSet set = AdversarialSet(rng, n);
    const Rect query = AdversarialRect(rng);
    std::vector<uint8_t> ref_mask(n + 1, 0xee), mask(n + 1, 0xee);
    const size_t ref_hits =
        scalar.intersect_mask(query, set.xmin.data(), set.ymin.data(),
                              set.xmax.data(), set.ymax.data(), n,
                              ref_mask.data());
    const double ref_area = scalar.sum_areas(set.xmin.data(), set.ymin.data(),
                                             set.xmax.data(),
                                             set.ymax.data(), n);
    const double ref_margin = scalar.sum_margins(
        set.xmin.data(), set.ymin.data(), set.xmax.data(), set.ymax.data(),
        n);
    const double ref_overlap = scalar.pairwise_overlap_sum(
        set.xmin.data(), set.ymin.data(), set.xmax.data(), set.ymax.data(),
        n);

    // The scalar mask must agree with Rect::Intersects entry by entry.
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ref_mask[i], query.Intersects(set.At(i)) ? 1 : 0) << i;
    }

    for (const Level level : levels) {
      const Ops& ops = OpsFor(level);
      const size_t hits =
          ops.intersect_mask(query, set.xmin.data(), set.ymin.data(),
                             set.xmax.data(), set.ymax.data(), n,
                             mask.data());
      EXPECT_EQ(hits, ref_hits) << LevelName(level) << " n=" << n;
      EXPECT_EQ(0, std::memcmp(mask.data(), ref_mask.data(), n))
          << "mask bytes diverge at level " << LevelName(level)
          << " n=" << n;
      EXPECT_EQ(mask[n], 0xee) << "wrote past the mask at "
                               << LevelName(level);
      ExpectBitEqual(ref_area,
                     ops.sum_areas(set.xmin.data(), set.ymin.data(),
                                   set.xmax.data(), set.ymax.data(), n),
                     "SumAreas", level, n);
      ExpectBitEqual(ref_margin,
                     ops.sum_margins(set.xmin.data(), set.ymin.data(),
                                     set.xmax.data(), set.ymax.data(), n),
                     "SumMargins", level, n);
      ExpectBitEqual(ref_overlap,
                     ops.pairwise_overlap_sum(set.xmin.data(),
                                              set.ymin.data(),
                                              set.xmax.data(),
                                              set.ymax.data(), n),
                     "PairwiseOverlapSum", level, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelsPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 42, 99, 12345));

TEST(KernelsTest, ScalarSumsMatchSequentialWithinTolerance) {
  // The canonical strided order is a reordering of the naive sequential
  // sum; on well-conditioned inputs they agree to tight relative error.
  Rng rng(7);
  const Rect space(0, 0, 1, 1);
  RectSet set;
  double seq_area = 0.0, seq_margin = 0.0;
  for (int i = 0; i < 100; ++i) {
    const Rect r = test::RandomRect(rng, space, 0.2);
    set.Add(r);
    seq_area += r.Area();
    seq_margin += r.Margin();
  }
  const Ops& scalar = OpsFor(Level::kScalar);
  EXPECT_NEAR(scalar.sum_areas(set.xmin.data(), set.ymin.data(),
                               set.xmax.data(), set.ymax.data(), set.size()),
              seq_area, 1e-12 * std::abs(seq_area));
  EXPECT_NEAR(scalar.sum_margins(set.xmin.data(), set.ymin.data(),
                                 set.xmax.data(), set.ymax.data(),
                                 set.size()),
              seq_margin, 1e-12 * std::abs(seq_margin));
  double seq_overlap = 0.0;
  for (size_t i = 0; i < set.size(); ++i) {
    for (size_t j = i + 1; j < set.size(); ++j) {
      seq_overlap += IntersectionArea(set.At(i), set.At(j));
    }
  }
  EXPECT_NEAR(scalar.pairwise_overlap_sum(set.xmin.data(), set.ymin.data(),
                                          set.xmax.data(), set.ymax.data(),
                                          set.size()),
              seq_overlap, 1e-12 * std::abs(seq_overlap));
}

TEST(KernelsTest, LevelNamesRoundTrip) {
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    EXPECT_EQ(ParseLevelName(LevelName(level)), level);
  }
  EXPECT_EQ(ParseLevelName("bogus"), std::nullopt);
  EXPECT_EQ(ParseLevelName(""), std::nullopt);
  // Names are exact: a retired tier and a miscased one are both unknown.
  EXPECT_EQ(ParseLevelName("sse2"), std::nullopt);
  EXPECT_EQ(ParseLevelName("AVX2"), std::nullopt);
}

// The first kernel call reads SDB_KERNELS once per process, so each case
// runs in a freshly executed child ("threadsafe" death-test style re-runs
// the binary instead of forking this already-initialized process).
TEST(KernelsTest, UnknownKernelNameWarnsAndUsesBestTier) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto activate = [](const char* name) {
    setenv("SDB_KERNELS", name, /*overwrite=*/1);
    const Level best =
        LevelAvailable(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
    std::exit(ActiveLevel() == best ? 0 : 1);
  };
  for (const char* name : {"bogus", "sse2", "AVX2"}) {
    EXPECT_EXIT(activate(name), testing::ExitedWithCode(0),
                std::string("warning: SDB_KERNELS=") + name +
                    " is not a kernel tier")
        << name;
  }
}

TEST(KernelsTest, ScalarAlwaysAvailableAndActiveLevelValid) {
  EXPECT_TRUE(LevelAvailable(Level::kScalar));
  EXPECT_TRUE(LevelAvailable(ActiveLevel()));
}

TEST(KernelsTest, SoaBufferGrowsAndKeepsSegmentsDisjoint) {
  SoaBuffer buf;
  buf.Reserve(10);
  const size_t cap = buf.capacity();
  ASSERT_GE(cap, 10u);
  EXPECT_EQ(buf.ymin(), buf.xmin() + cap);
  EXPECT_EQ(buf.xmax(), buf.xmin() + 2 * cap);
  EXPECT_EQ(buf.ymax(), buf.xmin() + 3 * cap);
  buf.Reserve(4);  // never shrinks
  EXPECT_EQ(buf.capacity(), cap);
  buf.Reserve(10 * cap);
  EXPECT_GE(buf.capacity(), 10 * cap);
}

// --- NodeView batch path --------------------------------------------------

TEST(KernelsNodeViewTest, GatherCoordsMatchesEntriesAndScanMatchesScalar) {
  std::vector<std::byte> page(storage::kDefaultPageSize);
  rtree::NodeView node(page);
  node.Init(/*level=*/0);
  Rng rng(5);
  const Rect space(0, 0, 1, 1);
  const uint32_t n = rtree::NodeView::Capacity(page.size());
  for (uint32_t i = 0; i < n; ++i) {
    rtree::Entry e;
    e.id = i + 1;
    e.rect = test::RandomRect(rng, space, 0.1);
    node.Append(e);
  }
  node.RefreshAggregates();

  SoaBuffer coords;
  ASSERT_EQ(node.GatherCoords(&coords), n);
  for (uint32_t i = 0; i < n; ++i) {
    const Rect r = node.GetEntry(static_cast<uint16_t>(i)).rect;
    EXPECT_EQ(coords.xmin()[i], r.xmin);
    EXPECT_EQ(coords.ymin()[i], r.ymin);
    EXPECT_EQ(coords.xmax()[i], r.xmax);
    EXPECT_EQ(coords.ymax()[i], r.ymax);
  }

  std::vector<uint8_t> mask;
  const Rect window = Rect::Centered({0.4, 0.6}, 0.3, 0.3);
  const size_t hits = node.ScanEntries(window, &coords, &mask);
  ASSERT_EQ(mask.size(), n);
  size_t expected_hits = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const bool hit =
        window.Intersects(node.GetEntry(static_cast<uint16_t>(i)).rect);
    EXPECT_EQ(mask[i], hit ? 1 : 0) << i;
    expected_hits += hit;
  }
  EXPECT_EQ(hits, expected_hits);

  // Header aggregates written by RefreshAggregates equal the span-based
  // recompute exactly (both route through the same kernels).
  std::vector<Rect> rects;
  for (uint32_t i = 0; i < n; ++i) {
    rects.push_back(node.GetEntry(static_cast<uint16_t>(i)).rect);
  }
  const EntryAggregates agg = ComputeEntryAggregates(rects);
  const storage::PageMeta meta = node.header().ToMeta();
  EXPECT_EQ(meta.mbr, agg.mbr);
  ExpectBitEqual(agg.sum_entry_area, meta.sum_entry_area, "header EA",
                 ActiveLevel(), n);
  ExpectBitEqual(agg.sum_entry_margin, meta.sum_entry_margin, "header EM",
                 ActiveLevel(), n);
  ExpectBitEqual(agg.entry_overlap, meta.entry_overlap, "header EO",
                 ActiveLevel(), n);
}

// --- end-to-end determinism: whole-tree queries per dispatch tier ---------

TEST(KernelsRTreeTest, WindowQueriesIdenticalAcrossDispatchLevels) {
  storage::DiskManager disk;
  core::BufferManager buffer(&disk, 256,
                             std::make_unique<core::LruPolicy>());
  rtree::RTree tree(&disk, &buffer);
  Rng rng(11);
  const Rect space(0, 0, 1, 1);
  for (uint64_t i = 1; i <= 3000; ++i) {
    rtree::Entry e;
    e.id = i;
    e.rect = test::RandomRect(rng, space, 0.02);
    tree.Insert(e, core::AccessContext{});
  }

  const Level original = ActiveLevel();
  std::vector<std::vector<rtree::Entry>> per_level;
  for (const Level level : AvailableLevels()) {
    ForceLevel(level);
    std::vector<rtree::Entry> hits;
    uint64_t query = 0;
    Rng qrng(23);
    for (int q = 0; q < 50; ++q) {
      const Rect window = Rect::Centered(
          {qrng.NextDouble(), qrng.NextDouble()}, 0.1, 0.1);
      const auto result =
          tree.WindowQuery(window, core::AccessContext{++query});
      hits.insert(hits.end(), result.begin(), result.end());
    }
    per_level.push_back(std::move(hits));
  }
  ForceLevel(original);
  for (size_t i = 1; i < per_level.size(); ++i) {
    EXPECT_EQ(per_level[i], per_level[0])
        << "query results diverge between dispatch tiers";
  }
}

}  // namespace
}  // namespace sdb::geom::kernels

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "core/buffer_manager.h"
#include "core/policy_lru.h"
#include "rtree/rtree.h"
#include "test_util.h"

namespace sdb::rtree {
namespace {

using core::AccessContext;
using core::BufferManager;
using geom::Point;
using geom::Rect;
using storage::DiskManager;

Entry MakeEntry(uint64_t id, const Rect& rect) {
  Entry e;
  e.id = id;
  e.rect = rect;
  return e;
}

/// Ids of all brute-force matches.
std::set<uint64_t> BruteForceWindow(const std::vector<Entry>& entries,
                                    const Rect& window) {
  std::set<uint64_t> ids;
  for (const Entry& e : entries) {
    if (e.rect.Intersects(window)) ids.insert(e.id);
  }
  return ids;
}

std::set<uint64_t> Ids(const std::vector<Entry>& entries) {
  std::set<uint64_t> ids;
  for (const Entry& e : entries) ids.insert(e.id);
  return ids;
}

class RTreeTest : public ::testing::Test {
 protected:
  RTreeTest()
      : buffer_(&disk_, 4096, std::make_unique<core::LruPolicy>()),
        tree_(&disk_, &buffer_) {}

  void InsertRandom(size_t n, uint64_t seed, double max_extent = 0.01) {
    Rng rng(seed);
    const Rect space(0, 0, 1, 1);
    for (size_t i = 0; i < n; ++i) {
      const Entry e =
          MakeEntry(all_.size() + 1, test::RandomRect(rng, space, max_extent));
      tree_.Insert(e, ctx_);
      all_.push_back(e);
    }
  }

  DiskManager disk_;
  BufferManager buffer_;
  RTree tree_;
  AccessContext ctx_{1};
  std::vector<Entry> all_;
};

TEST_F(RTreeTest, EmptyTree) {
  EXPECT_EQ(tree_.size(), 0u);
  EXPECT_EQ(tree_.height(), 1u);
  EXPECT_TRUE(tree_.WindowQuery(Rect(0, 0, 1, 1), ctx_).empty());
  EXPECT_EQ(tree_.Validate(), "");
}

TEST_F(RTreeTest, SingleInsertIsFindable) {
  const Entry e = MakeEntry(7, Rect(0.1, 0.1, 0.2, 0.2));
  tree_.Insert(e, ctx_);
  EXPECT_EQ(tree_.size(), 1u);
  const auto hits = tree_.PointQuery(Point{0.15, 0.15}, ctx_);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], e);
  EXPECT_TRUE(tree_.PointQuery(Point{0.5, 0.5}, ctx_).empty());
}

TEST_F(RTreeTest, GrowsBeyondOneNodeAndStaysValid) {
  InsertRandom(500, 11);
  EXPECT_GT(tree_.height(), 1u);
  EXPECT_EQ(tree_.size(), 500u);
  EXPECT_EQ(tree_.Validate(), "");
}

TEST_F(RTreeTest, WindowQueriesMatchBruteForce) {
  InsertRandom(2000, 22);
  Rng rng(99);
  const Rect space(0, 0, 1, 1);
  for (int q = 0; q < 50; ++q) {
    const Rect window = test::RandomRect(rng, space, 0.2);
    EXPECT_EQ(Ids(tree_.WindowQuery(window, ctx_)),
              BruteForceWindow(all_, window))
        << "window " << geom::ToString(window);
  }
}

TEST_F(RTreeTest, PointQueriesMatchBruteForce) {
  InsertRandom(1500, 33, /*max_extent=*/0.05);
  Rng rng(7);
  for (int q = 0; q < 100; ++q) {
    const Point p{rng.NextDouble(), rng.NextDouble()};
    EXPECT_EQ(Ids(tree_.PointQuery(p, ctx_)),
              BruteForceWindow(all_, Rect::FromPoint(p)));
  }
}

TEST_F(RTreeTest, EveryInsertedObjectIsRetrievable) {
  InsertRandom(800, 44);
  for (const Entry& e : all_) {
    const auto hits = tree_.WindowQuery(e.rect, ctx_);
    EXPECT_TRUE(Ids(hits).contains(e.id)) << "lost object " << e.id;
  }
}

TEST_F(RTreeTest, StatsReflectTheTree) {
  InsertRandom(2000, 55);
  const TreeStats stats = tree_.ComputeStats();
  EXPECT_EQ(stats.object_count, 2000u);
  EXPECT_EQ(stats.height, tree_.height());
  EXPECT_GT(stats.data_pages, 0u);
  EXPECT_GT(stats.directory_pages, 0u);
  EXPECT_GE(stats.avg_data_fill,
            static_cast<double>(tree_.config().min_data_entries()));
  EXPECT_LE(stats.avg_data_fill,
            static_cast<double>(tree_.config().max_data_entries));
  // Directory pages are a small share of the tree (paper: ~2.8%).
  EXPECT_LT(stats.directory_share(), 0.2);
}

TEST_F(RTreeTest, DeleteRemovesExactlyTheEntry) {
  InsertRandom(300, 66);
  const Entry victim = all_[137];
  EXPECT_TRUE(tree_.Delete(victim.id, victim.rect, ctx_));
  EXPECT_EQ(tree_.size(), 299u);
  EXPECT_EQ(tree_.Validate(), "");
  EXPECT_FALSE(Ids(tree_.WindowQuery(victim.rect, ctx_)).contains(victim.id));
  // A second delete of the same entry fails.
  EXPECT_FALSE(tree_.Delete(victim.id, victim.rect, ctx_));
}

TEST_F(RTreeTest, DeleteWithWrongRectFails) {
  InsertRandom(50, 77);
  const Entry victim = all_[10];
  EXPECT_FALSE(tree_.Delete(victim.id, Rect(0.9, 0.9, 0.95, 0.95), ctx_));
  // The right id in a leaf the search does visit, but not the entry's rect.
  Rect overlapping = victim.rect;
  overlapping.xmax += 1e-9;
  EXPECT_FALSE(tree_.Delete(victim.id, overlapping, ctx_));
  EXPECT_EQ(tree_.size(), 50u);
}

using RTreeDeathTest = RTreeTest;

TEST_F(RTreeDeathTest, InsertRejectsEmptyAndNaNRectangles) {
  // A NaN coordinate is not an empty rect (IsEmpty() compares false), yet
  // inserting one corrupted the header aggregates and hid the entry from
  // Delete and from window queries; both are rejected up front.
  InsertRandom(2000, 41);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const char* message = "cannot index an empty rectangle or a NaN coordinate";
  EXPECT_DEATH(tree_.Insert(MakeEntry(2001, Rect()), ctx_), message);
  EXPECT_DEATH(tree_.Insert(MakeEntry(2001, Rect(0.6, 0.5, 0.5, 0.6)), ctx_),
               message);
  EXPECT_DEATH(tree_.Insert(MakeEntry(2001, Rect(0.5, 0.5, nan, 0.6)), ctx_),
               message);
  EXPECT_DEATH(tree_.Insert(MakeEntry(2001, Rect(0.5, nan, 0.6, 0.6)), ctx_),
               message);
  EXPECT_EQ(tree_.Validate(), "");
  EXPECT_EQ(tree_.size(), 2000u);
}

TEST_F(RTreeTest, MassDeletionKeepsTreeValidAndQueriesCorrect) {
  InsertRandom(1200, 88);
  Rng rng(3);
  // Delete ~2/3 in random order.
  std::vector<size_t> order(all_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  std::vector<Entry> remaining;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i < 800) {
      EXPECT_TRUE(tree_.Delete(all_[order[i]].id, all_[order[i]].rect, ctx_));
    } else {
      remaining.push_back(all_[order[i]]);
    }
  }
  EXPECT_EQ(tree_.size(), remaining.size());
  ASSERT_EQ(tree_.Validate(), "");
  for (int q = 0; q < 30; ++q) {
    const Rect window = test::RandomRect(rng, Rect(0, 0, 1, 1), 0.3);
    EXPECT_EQ(Ids(tree_.WindowQuery(window, ctx_)),
              BruteForceWindow(remaining, window));
  }
}

TEST_F(RTreeTest, DeleteDownToEmpty) {
  InsertRandom(150, 99);
  for (const Entry& e : all_) {
    EXPECT_TRUE(tree_.Delete(e.id, e.rect, ctx_));
  }
  EXPECT_EQ(tree_.size(), 0u);
  EXPECT_TRUE(tree_.WindowQuery(Rect(0, 0, 1, 1), ctx_).empty());
  EXPECT_EQ(tree_.Validate(), "");
}

TEST_F(RTreeTest, DeleteDirtiesOnlyThePagesItChanges) {
  // A delete rewrites its leaf, and a parent only where a child dissolved or
  // its rectangle changed, so most deletes dirty the leaf alone. A delete
  // that rewrote every ancestor on its path would dirty about 3 pages here.
  InsertRandom(20000, 31);
  ASSERT_EQ(tree_.height(), 3u);
  Rng rng(32);
  std::vector<Entry> live = all_;
  constexpr size_t kDeletes = 2000;
  size_t dirtied = 0;
  for (size_t d = 0; d < kDeletes; ++d) {
    buffer_.FlushAll();
    const size_t victim = rng.NextBelow(live.size());
    ASSERT_TRUE(tree_.Delete(live[victim].id, live[victim].rect, ctx_));
    dirtied += buffer_.dirty_count();
    live[victim] = live.back();
    live.pop_back();
  }
  EXPECT_LE(static_cast<double>(dirtied) / kDeletes, 1.5);
  EXPECT_EQ(tree_.Validate(), "");

  // An entry strictly inside its leaf's MBR, in a leaf above the minimum
  // fill: removing it changes no rectangle, so only the leaf is written.
  std::vector<storage::PageId> stack{tree_.root()};
  std::optional<Entry> inner;
  while (!inner && !stack.empty()) {
    core::PageHandle page = buffer_.FetchOrDie(stack.back(), ctx_);
    stack.pop_back();
    const NodeView node(page.bytes());
    const Rect mbr = node.mbr();
    for (uint16_t i = 0; i < node.count() && !inner; ++i) {
      const Rect r = node.rect(i);
      if (!node.is_leaf()) {
        stack.push_back(node.child(i));
      } else if (node.count() > tree_.config().min_data_entries() &&
                 mbr.xmin < r.xmin && mbr.ymin < r.ymin &&
                 r.xmax < mbr.xmax && r.ymax < mbr.ymax) {
        inner = node.GetEntry(i);
      }
    }
  }
  ASSERT_TRUE(inner.has_value());
  buffer_.FlushAll();
  ASSERT_TRUE(tree_.Delete(inner->id, inner->rect, ctx_));
  EXPECT_EQ(buffer_.dirty_count(), 1u);
  EXPECT_EQ(tree_.Validate(), "");
}

TEST_F(RTreeTest, DeleteSearchSkipsSubtreesThatCannotHoldTheEntry) {
  // No root entry's rectangle contains the whole space, so the search for
  // an entry that covers it ends at the root. A search that descended into
  // every subtree merely overlapping it would fetch each page about twice.
  InsertRandom(20000, 31);
  ASSERT_EQ(tree_.height(), 3u);
  const uint64_t requests = buffer_.stats().requests;
  EXPECT_FALSE(tree_.Delete(all_.size() + 1, Rect(0, 0, 1, 1), ctx_));
  EXPECT_EQ(buffer_.stats().requests - requests, 1u);
  EXPECT_EQ(tree_.size(), all_.size());
}

TEST_F(RTreeTest, PersistAndReopenWithFreshBuffer) {
  InsertRandom(600, 123);
  tree_.PersistMeta();
  buffer_.FlushAll();

  BufferManager fresh(&disk_, 64, std::make_unique<core::LruPolicy>());
  const RTree reopened = RTree::Open(&disk_, &fresh, tree_.meta_page());
  EXPECT_EQ(reopened.size(), 600u);
  EXPECT_EQ(reopened.height(), tree_.height());
  EXPECT_EQ(reopened.root(), tree_.root());
  EXPECT_EQ(reopened.config().max_dir_entries,
            tree_.config().max_dir_entries);

  Rng rng(5);
  for (int q = 0; q < 20; ++q) {
    const Rect window = test::RandomRect(rng, Rect(0, 0, 1, 1), 0.2);
    EXPECT_EQ(Ids(reopened.WindowQuery(window, AccessContext{9})),
              BruteForceWindow(all_, window));
  }
}

TEST_F(RTreeTest, ReopenRefusesAnotherNodeLayout) {
  InsertRandom(50, 7);
  tree_.PersistMeta();
  buffer_.FlushAll();
  ASSERT_TRUE(RTree::HasCurrentLayout(disk_, tree_.meta_page()));
  EXPECT_FALSE(RTree::HasCurrentLayout(disk_, tree_.root()));

  // A row-layout tree wrote 0 in the meta record's last u32 (header + 44).
  const std::span<const std::byte> meta = disk_.PeekPage(tree_.meta_page());
  std::vector<std::byte> row_meta(meta.begin(), meta.end());
  const uint32_t row_layout = 0;
  std::memcpy(row_meta.data() + storage::PageHeaderView::kHeaderSize + 44,
              &row_layout, sizeof(row_layout));
  ASSERT_TRUE(disk_.Write(tree_.meta_page(), row_meta).ok());
  EXPECT_FALSE(RTree::HasCurrentLayout(disk_, tree_.meta_page()));

  BufferManager fresh(&disk_, 64, std::make_unique<core::LruPolicy>());
  EXPECT_DEATH(RTree::Open(&disk_, &fresh, tree_.meta_page()),
               "another node layout");
}

TEST_F(RTreeTest, NearestNeighborsMatchBruteForce) {
  InsertRandom(700, 31);
  Rng rng(8);
  auto rect_dist = [](const Point& p, const Rect& r) {
    const double dx = std::max({r.xmin - p.x, 0.0, p.x - r.xmax});
    const double dy = std::max({r.ymin - p.y, 0.0, p.y - r.ymax});
    return dx * dx + dy * dy;
  };
  for (int q = 0; q < 20; ++q) {
    const Point p{rng.NextDouble(), rng.NextDouble()};
    const auto knn = tree_.NearestNeighbors(p, 5, ctx_);
    ASSERT_EQ(knn.size(), 5u);
    // The k-th reported distance must equal the brute-force k-th distance.
    std::vector<double> distances;
    for (const Entry& e : all_) distances.push_back(rect_dist(p, e.rect));
    std::sort(distances.begin(), distances.end());
    for (size_t i = 0; i < knn.size(); ++i) {
      EXPECT_DOUBLE_EQ(rect_dist(p, knn[i].rect), distances[i]);
    }
  }
}

TEST_F(RTreeTest, DuplicateRectanglesAreSupported) {
  const Rect r(0.4, 0.4, 0.5, 0.5);
  for (uint64_t id = 1; id <= 100; ++id) {
    tree_.Insert(MakeEntry(id, r), ctx_);
  }
  EXPECT_EQ(tree_.Validate(), "");
  EXPECT_EQ(tree_.WindowQuery(r, ctx_).size(), 100u);
  EXPECT_TRUE(tree_.Delete(42, r, ctx_));
  EXPECT_EQ(tree_.WindowQuery(r, ctx_).size(), 99u);
}

TEST_F(RTreeTest, CustomFanoutIsRespected) {
  DiskManager disk;
  BufferManager buffer(&disk, 512, std::make_unique<core::LruPolicy>());
  RTreeConfig config;
  config.max_dir_entries = 8;
  config.max_data_entries = 6;
  RTree tree(&disk, &buffer, config);
  Rng rng(17);
  std::vector<Entry> entries;
  const AccessContext ctx{1};
  for (uint64_t id = 1; id <= 400; ++id) {
    const Entry e =
        MakeEntry(id, test::RandomRect(rng, Rect(0, 0, 1, 1), 0.02));
    tree.Insert(e, ctx);
    entries.push_back(e);
  }
  EXPECT_EQ(tree.Validate(), "");
  EXPECT_GE(tree.height(), 3u) << "small fanout must produce a deep tree";
  const Rect window(0.2, 0.2, 0.6, 0.6);
  EXPECT_EQ(Ids(tree.WindowQuery(window, ctx)),
            BruteForceWindow(entries, window));
}

/// Forwards every call to the wrapped source and records the id of every
/// page fetched, in fetch order.
class FetchRecordingSource final : public core::PageSource {
 public:
  explicit FetchRecordingSource(core::PageSource* inner) : inner_(inner) {}

  core::StatusOr<core::PageHandle> Fetch(storage::PageId page,
                                         const AccessContext& ctx) override {
    fetched_.push_back(page);
    return inner_->Fetch(page, ctx);
  }
  core::StatusOr<core::PageHandle> New(const AccessContext& ctx) override {
    return inner_->New(ctx);
  }
  std::span<const std::byte> Peek(storage::PageId page) const override {
    return inner_->Peek(page);
  }

  /// Mix64 chain over the page ids fetched since the last call.
  uint64_t TakeFetchDigest() {
    uint64_t digest = 0;
    for (const storage::PageId page : fetched_) digest = Mix64(digest ^ page);
    fetched_.clear();
    return digest;
  }

 private:
  core::PageSource* inner_;
  std::vector<storage::PageId> fetched_;
};

/// A visitor that owns what it collects. Move-only, so a std::function,
/// which must be copyable, cannot hold it.
struct CollectingVisitor {
  void operator()(const Entry& e) { hits->push_back(e); }
  std::unique_ptr<std::vector<Entry>> hits =
      std::make_unique<std::vector<Entry>>();
};
static_assert(!std::is_copy_constructible_v<CollectingVisitor>);

TEST_F(RTreeTest, WindowQueryVisitKeepsOrderForAnyVisitor) {
  // Recorded while WindowQueryVisit took a std::function and decoded every
  // field of each hit: per page size, the result count of 50 windows, a
  // Mix64 chain over the hits in visit order as each visitor reads them, and
  // one over the fetched page ids.
  struct Recorded {
    size_t page_size;
    uint64_t results;
    uint64_t entry_digest;  ///< id, rect bits and ref of every hit
    uint64_t id_digest;     ///< the id of every hit
    uint64_t count_digest;  ///< the hit count of every window
    uint64_t fetch_digest;
  };
  constexpr Recorded kRecorded[] = {
      {storage::kDefaultPageSize, 2625, 0x9caf7857dec3ed27, 0x63a4ded38b23e187,
       0xa504e97406e76f47, 0x8b57c0885b022420},
      {512, 2625, 0x63ae800fc9c2d82b, 0x37ded70e0b2dee24, 0xa504e97406e76f47,
       0xf65140e8b08f8daf},
  };
  for (const Recorded& recorded : kRecorded) {
    SCOPED_TRACE(recorded.page_size);
    // Inserts with every fifth followed by a delete, as the kernels test's
    // churned tree, at the largest fanout the page holds.
    DiskManager disk(recorded.page_size);
    BufferManager buffer(&disk, 1024, std::make_unique<core::LruPolicy>());
    const uint32_t capacity = NodeView::Capacity(recorded.page_size);
    RTreeConfig config;
    config.max_dir_entries = std::min(config.max_dir_entries, capacity);
    config.max_data_entries = std::min(config.max_data_entries, capacity);
    RTree tree(&disk, &buffer, config);
    Rng rng(23);
    const Rect space(0, 0, 1, 1);
    std::vector<Entry> live;
    for (uint64_t id = 1; id <= 3000; ++id) {
      Entry e = MakeEntry(id, test::RandomRect(rng, space, 0.02));
      e.ref = ObjectRef{static_cast<storage::PageId>(id / 7),
                        static_cast<uint16_t>(id % 7)};
      tree.Insert(e, ctx_);
      live.push_back(e);
      if (id % 5 == 0) {
        const size_t victim = rng.NextU64() % live.size();
        ASSERT_TRUE(tree.Delete(live[victim].id, live[victim].rect, ctx_));
        live[victim] = live.back();
        live.pop_back();
      }
    }
    ASSERT_EQ(tree.Validate(), "");
    std::vector<Rect> windows;
    for (int q = 0; q < 50; ++q) {
      windows.push_back(test::RandomRect(rng, space, 0.3));
    }
    FetchRecordingSource recording(&buffer);
    tree.set_buffer(&recording);

    CollectingVisitor collecting;
    for (const Rect& window : windows) {
      tree.WindowQueryVisit(window, ctx_, collecting);
    }
    uint64_t entry_digest = 0;
    for (const Entry& e : *collecting.hits) {
      for (const double v : {e.rect.xmin, e.rect.ymin, e.rect.xmax,
                             e.rect.ymax}) {
        entry_digest = Mix64(entry_digest ^ std::bit_cast<uint64_t>(v));
      }
      entry_digest = Mix64(entry_digest ^ e.id);
      entry_digest = Mix64(entry_digest ^ e.ref.page);
      entry_digest = Mix64(entry_digest ^ e.ref.slot);
    }
    EXPECT_EQ(collecting.hits->size(), recorded.results);
    EXPECT_EQ(entry_digest, recorded.entry_digest);
    EXPECT_EQ(recording.TakeFetchDigest(), recorded.fetch_digest);

    uint64_t id_hits = 0;
    uint64_t id_digest = 0;
    for (const Rect& window : windows) {
      tree.WindowQueryVisit(window, ctx_, [&](const Entry& e) {
        ++id_hits;
        id_digest = Mix64(id_digest ^ e.id);
      });
    }
    EXPECT_EQ(id_hits, recorded.results);
    EXPECT_EQ(id_digest, recorded.id_digest);
    EXPECT_EQ(recording.TakeFetchDigest(), recorded.fetch_digest);

    uint64_t counted = 0;
    uint64_t count_digest = 0;
    for (const Rect& window : windows) {
      uint64_t n = 0;
      tree.WindowQueryVisit(window, ctx_, [&n](const Entry&) { ++n; });
      counted += n;
      count_digest = Mix64(count_digest ^ n);
    }
    EXPECT_EQ(counted, recorded.results);
    EXPECT_EQ(count_digest, recorded.count_digest);
    EXPECT_EQ(recording.TakeFetchDigest(), recorded.fetch_digest);
  }
}

TEST_F(RTreeTest, ObjectRefsSurviveTheTree) {
  Entry e = MakeEntry(5, Rect(0.1, 0.1, 0.2, 0.2));
  e.ref = ObjectRef{999, 3};
  tree_.Insert(e, ctx_);
  const auto hits = tree_.PointQuery(Point{0.15, 0.15}, ctx_);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].ref, (ObjectRef{999, 3}));
}

}  // namespace
}  // namespace sdb::rtree

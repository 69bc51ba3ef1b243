#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rtree/node_view.h"
#include "storage/page.h"

namespace sdb::rtree {
namespace {

class NodeViewTest : public ::testing::Test {
 protected:
  NodeViewTest() : page_(storage::kDefaultPageSize, std::byte{0xEE}) {}

  NodeView View() { return NodeView(page_); }

  std::vector<std::byte> page_;
};

/// The value of type T stored at byte `offset` of `page`.
template <typename T>
T ReadAt(const std::vector<std::byte>& page, size_t offset) {
  T value;
  std::memcpy(&value, page.data() + offset, sizeof(T));
  return value;
}

/// `n` entries whose fields all differ from entry to entry; ids use more
/// than 32 bits.
std::vector<Entry> DistinctEntries(size_t n) {
  std::vector<Entry> entries(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    entries[i].rect = geom::Rect(x + 0.25, x + 0.5, x + 1.75, x + 2.0);
    entries[i].id = (uint64_t{1} << 36) + i;
    entries[i].ref = ObjectRef{static_cast<storage::PageId>(7000 + i),
                               static_cast<uint16_t>(300 + i)};
  }
  return entries;
}

TEST_F(NodeViewTest, CapacityLeavesRoomForHeader) {
  const uint32_t capacity = NodeView::Capacity(storage::kDefaultPageSize);
  EXPECT_EQ(capacity, (4096u - 64u) / 48u);
  EXPECT_GE(capacity, 51u) << "the paper's directory fanout must fit";
}

TEST_F(NodeViewTest, ColumnLayoutAt4KiB) {
  // The page layout is an on-disk format, so pin it: after the 64-byte
  // header, each field has a column of Capacity entries, starting at
  // 64 + {0, 8, 16, 24, 32, 40, 44} * 84.
  ASSERT_EQ(NodeView::Capacity(storage::kDefaultPageSize), 84u);
  NodeView node = View();
  node.Init(0);
  const std::vector<Entry> entries = DistinctEntries(84);
  node.WriteEntries(entries);
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    EXPECT_EQ(ReadAt<double>(page_, 64 + 8 * i), e.rect.xmin) << i;
    EXPECT_EQ(ReadAt<double>(page_, 736 + 8 * i), e.rect.ymin) << i;
    EXPECT_EQ(ReadAt<double>(page_, 1408 + 8 * i), e.rect.xmax) << i;
    EXPECT_EQ(ReadAt<double>(page_, 2080 + 8 * i), e.rect.ymax) << i;
    EXPECT_EQ(ReadAt<uint64_t>(page_, 2752 + 8 * i), e.id) << i;
    EXPECT_EQ(ReadAt<uint32_t>(page_, 3424 + 4 * i), e.ref.page) << i;
    EXPECT_EQ(ReadAt<uint16_t>(page_, 3760 + 2 * i), e.ref.slot) << i;
  }
}

TEST(NodeViewLayoutTest, FullCapacityRoundTrip) {
  // 512 B holds 9 entries: a capacity that is no multiple of 8, so column
  // offsets must come from the page size, not from a fixed fanout.
  ASSERT_EQ(NodeView::Capacity(512), 9u);
  for (const size_t page_size : {storage::kDefaultPageSize, size_t{512}}) {
    const uint32_t capacity = NodeView::Capacity(page_size);
    const std::vector<Entry> entries = DistinctEntries(capacity);
    std::vector<std::byte> page(page_size, std::byte{0xEE});
    NodeView node(page);
    node.Init(1);
    node.WriteEntries(entries);
    EXPECT_EQ(node.LoadEntries(), entries) << page_size;
    for (uint16_t i = 0; i < capacity; ++i) {
      EXPECT_EQ(node.GetEntry(i), entries[i]) << page_size << " " << i;
      EXPECT_EQ(node.rect(i), entries[i].rect) << page_size << " " << i;
      EXPECT_EQ(node.id(i), entries[i].id) << page_size << " " << i;
      EXPECT_EQ(node.child(i), node.GetEntry(i).child())
          << page_size << " " << i;
    }

    // Entry-at-a-time appends write the same page as the column passes.
    std::vector<std::byte> appended(page_size, std::byte{0xEE});
    NodeView append_node(appended);
    append_node.Init(1);
    for (const Entry& e : entries) append_node.Append(e);
    append_node.RefreshAggregates();
    EXPECT_EQ(appended, page) << page_size;
  }
}

TEST_F(NodeViewTest, InitLeafClearsPage) {
  NodeView node = View();
  node.Init(0);
  EXPECT_TRUE(node.is_leaf());
  EXPECT_EQ(node.level(), 0);
  EXPECT_EQ(node.count(), 0);
  EXPECT_TRUE(node.mbr().IsEmpty());
  EXPECT_EQ(node.header().type(), storage::PageType::kData);
}

TEST_F(NodeViewTest, InitDirectory) {
  NodeView node = View();
  node.Init(2);
  EXPECT_FALSE(node.is_leaf());
  EXPECT_EQ(node.level(), 2);
  EXPECT_EQ(node.header().type(), storage::PageType::kDirectory);
}

TEST_F(NodeViewTest, AppendAndGetRoundTrip) {
  NodeView node = View();
  node.Init(0);
  Entry e;
  e.rect = geom::Rect(0.1, 0.2, 0.3, 0.4);
  e.id = 0xDEADBEEFCAFEull;
  e.ref = ObjectRef{1234, 56};
  node.Append(e);
  ASSERT_EQ(node.count(), 1);
  EXPECT_EQ(node.GetEntry(0), e);
}

TEST_F(NodeViewTest, SetEntryOverwrites) {
  NodeView node = View();
  node.Init(0);
  Entry a;
  a.rect = geom::Rect(0, 0, 1, 1);
  a.id = 1;
  node.Append(a);
  Entry b;
  b.rect = geom::Rect(2, 2, 3, 3);
  b.id = 2;
  node.SetEntry(0, b);
  EXPECT_EQ(node.GetEntry(0), b);
}

TEST_F(NodeViewTest, WriteEntriesRefreshesAggregates) {
  NodeView node = View();
  node.Init(1);
  std::vector<Entry> entries(2);
  entries[0].rect = geom::Rect(0, 0, 1, 1);
  entries[0].id = 10;
  entries[1].rect = geom::Rect(0.5, 0, 1.5, 1);
  entries[1].id = 11;
  node.WriteEntries(entries);
  EXPECT_EQ(node.count(), 2);
  EXPECT_EQ(node.mbr(), geom::Rect(0, 0, 1.5, 1));
  const storage::PageMeta meta = node.header().ToMeta();
  EXPECT_DOUBLE_EQ(meta.sum_entry_area, 2.0);
  EXPECT_DOUBLE_EQ(meta.sum_entry_margin, 4.0);
  EXPECT_DOUBLE_EQ(meta.entry_overlap, 0.5);
}

TEST_F(NodeViewTest, LoadEntriesReturnsAllInOrder) {
  NodeView node = View();
  node.Init(0);
  std::vector<Entry> entries(5);
  for (int i = 0; i < 5; ++i) {
    entries[i].rect = geom::Rect(i, i, i + 1, i + 1);
    entries[i].id = static_cast<uint64_t>(100 + i);
  }
  node.WriteEntries(entries);
  EXPECT_EQ(node.LoadEntries(), entries);
}

TEST_F(NodeViewTest, WriteShrinkingEntrySetUpdatesCount) {
  NodeView node = View();
  node.Init(0);
  std::vector<Entry> five(5);
  for (int i = 0; i < 5; ++i) five[i].id = static_cast<uint64_t>(i);
  node.WriteEntries(five);
  std::vector<Entry> two(2);
  two[0].id = 7;
  two[1].id = 8;
  node.WriteEntries(two);
  EXPECT_EQ(node.count(), 2);
  EXPECT_EQ(node.LoadEntries(), two);
}

TEST_F(NodeViewTest, RemoveMatchesLoadEraseWrite) {
  // On a full node the slot the shifted tail leaves behind is the last one
  // of each column; it keeps its stale value either way.
  const uint16_t capacity = static_cast<uint16_t>(
      NodeView::Capacity(storage::kDefaultPageSize));
  View().Init(0);
  View().WriteEntries(DistinctEntries(capacity));
  for (const uint16_t i : {uint16_t{0}, static_cast<uint16_t>(capacity / 2),
                           static_cast<uint16_t>(capacity - 1)}) {
    std::vector<std::byte> expected = page_;
    NodeView reference(expected);
    std::vector<Entry> entries = reference.LoadEntries();
    entries.erase(entries.begin() + i);
    reference.WriteEntries(entries);

    std::vector<std::byte> removed = page_;
    NodeView(removed).Remove(i);
    EXPECT_EQ(NodeView(removed).count(), capacity - 1) << i;
    EXPECT_EQ(removed, expected) << i;
  }
}

TEST_F(NodeViewTest, DirEntryChildAccessor) {
  Entry e;
  e.id = 4711;
  EXPECT_EQ(e.child(), 4711u);
}

TEST_F(NodeViewTest, RefreshAggregatesAfterManualAppend) {
  NodeView node = View();
  node.Init(0);
  Entry e;
  e.rect = geom::Rect(1, 1, 3, 2);
  node.Append(e);
  node.RefreshAggregates();
  EXPECT_EQ(node.mbr(), geom::Rect(1, 1, 3, 2));
  EXPECT_DOUBLE_EQ(node.header().ToMeta().sum_entry_area, 2.0);
}

TEST_F(NodeViewTest, EmptyWriteClearsAggregates) {
  NodeView node = View();
  node.Init(0);
  std::vector<Entry> one(1);
  one[0].rect = geom::Rect(0, 0, 1, 1);
  node.WriteEntries(one);
  node.WriteEntries({});
  EXPECT_EQ(node.count(), 0);
  EXPECT_TRUE(node.mbr().IsEmpty());
  EXPECT_EQ(node.header().ToMeta().sum_entry_area, 0.0);
}

}  // namespace
}  // namespace sdb::rtree

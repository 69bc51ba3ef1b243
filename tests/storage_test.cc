#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/disk_view.h"
#include "storage/page.h"

namespace sdb::storage {
namespace {

std::vector<std::byte> MakeImage(size_t size, uint8_t fill) {
  return std::vector<std::byte>(size, std::byte{fill});
}

TEST(PageHeaderViewTest, RoundTripAllFields) {
  std::vector<std::byte> page(kDefaultPageSize, std::byte{0});
  PageHeaderView header(page.data());
  header.set_type(PageType::kDirectory);
  header.set_level(3);
  header.set_entry_count(42);
  geom::EntryAggregates agg;
  agg.mbr = geom::Rect(0.1, 0.2, 0.3, 0.4);
  agg.sum_entry_area = 1.5;
  agg.sum_entry_margin = 2.5;
  agg.entry_overlap = 0.25;
  header.set_aggregates(agg);

  const ConstPageHeaderView view(page.data());
  EXPECT_EQ(view.type(), PageType::kDirectory);
  EXPECT_EQ(view.level(), 3);
  EXPECT_EQ(view.entry_count(), 42);
  EXPECT_EQ(view.mbr(), geom::Rect(0.1, 0.2, 0.3, 0.4));
  EXPECT_DOUBLE_EQ(view.sum_entry_area(), 1.5);
  EXPECT_DOUBLE_EQ(view.sum_entry_margin(), 2.5);
  EXPECT_DOUBLE_EQ(view.entry_overlap(), 0.25);

  const PageMeta meta = view.ToMeta();
  EXPECT_EQ(meta.type, PageType::kDirectory);
  EXPECT_EQ(meta.level, 3);
  EXPECT_EQ(meta.entry_count, 42);
  EXPECT_EQ(meta.mbr, geom::Rect(0.1, 0.2, 0.3, 0.4));
}

TEST(PageHeaderViewTest, ZeroedPageDecodesAsFree) {
  std::vector<std::byte> page(kDefaultPageSize, std::byte{0});
  const ConstPageHeaderView view(page.data());
  EXPECT_EQ(view.type(), PageType::kFree);
  EXPECT_EQ(view.level(), 0);
  EXPECT_EQ(view.entry_count(), 0);
}

TEST(PageTypeTest, Names) {
  EXPECT_EQ(PageTypeName(PageType::kDirectory), "directory");
  EXPECT_EQ(PageTypeName(PageType::kData), "data");
  EXPECT_EQ(PageTypeName(PageType::kObject), "object");
  EXPECT_EQ(PageTypeName(PageType::kMeta), "meta");
  EXPECT_EQ(PageTypeName(PageType::kFree), "free");
}

TEST(DiskManagerTest, AllocateGrowsFile) {
  DiskManager disk;
  EXPECT_EQ(disk.page_count(), 0u);
  const PageId a = disk.AllocateOrDie();
  const PageId b = disk.AllocateOrDie();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(disk.page_count(), 2u);
  EXPECT_EQ(disk.stats().accesses(), 0u) << "allocation is not I/O";
}

TEST(DiskManagerTest, ReadWriteRoundTrip) {
  DiskManager disk;
  const PageId id = disk.AllocateOrDie();
  const auto out = MakeImage(disk.page_size(), 0xAB);
  ASSERT_TRUE(disk.Write(id, out).ok());
  auto in = MakeImage(disk.page_size(), 0);
  ASSERT_TRUE(disk.Read(id, in).ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), disk.page_size()), 0);
}

TEST(DiskManagerTest, FreshPageIsZeroed) {
  DiskManager disk;
  const PageId id = disk.AllocateOrDie();
  auto in = MakeImage(disk.page_size(), 0xFF);
  ASSERT_TRUE(disk.Read(id, in).ok());
  for (std::byte b : in) EXPECT_EQ(b, std::byte{0});
}

TEST(DiskManagerTest, CountsReadsAndWrites) {
  DiskManager disk;
  const PageId a = disk.AllocateOrDie();
  const PageId b = disk.AllocateOrDie();
  auto image = MakeImage(disk.page_size(), 1);
  ASSERT_TRUE(disk.Write(a, image).ok());
  ASSERT_TRUE(disk.Write(b, image).ok());
  ASSERT_TRUE(disk.Read(a, image).ok());
  ASSERT_TRUE(disk.Read(a, image).ok());
  ASSERT_TRUE(disk.Read(b, image).ok());
  EXPECT_EQ(disk.stats().writes, 2u);
  EXPECT_EQ(disk.stats().reads, 3u);
  EXPECT_EQ(disk.stats().accesses(), 5u);
}

TEST(DiskManagerTest, DetectsSequentialReads) {
  DiskManager disk;
  for (int i = 0; i < 5; ++i) disk.AllocateOrDie();
  auto image = MakeImage(disk.page_size(), 0);
  ASSERT_TRUE(disk.Read(0, image).ok());
  ASSERT_TRUE(disk.Read(1, image).ok());  // sequential
  ASSERT_TRUE(disk.Read(2, image).ok());  // sequential
  ASSERT_TRUE(disk.Read(0, image).ok());  // random
  ASSERT_TRUE(disk.Read(4, image).ok());  // random
  EXPECT_EQ(disk.stats().reads, 5u);
  EXPECT_EQ(disk.stats().sequential_reads, 2u);
}

TEST(DiskManagerTest, DetectsSequentialWrites) {
  DiskManager disk;
  for (int i = 0; i < 4; ++i) disk.AllocateOrDie();
  auto image = MakeImage(disk.page_size(), 0);
  ASSERT_TRUE(disk.Write(2, image).ok());
  ASSERT_TRUE(disk.Write(3, image).ok());  // sequential
  ASSERT_TRUE(disk.Write(1, image).ok());  // random
  EXPECT_EQ(disk.stats().sequential_writes, 1u);
}

TEST(DiskManagerTest, WeightedCostModel) {
  IoStats stats;
  stats.reads = 10;
  stats.sequential_reads = 4;
  // 6 random + 4 sequential at 0.1 => 6.4
  EXPECT_DOUBLE_EQ(stats.WeightedCost(0.1), 6.4);
  EXPECT_DOUBLE_EQ(stats.WeightedCost(1.0), 10.0);
}

TEST(DiskManagerTest, ResetStatsClearsEverything) {
  DiskManager disk;
  disk.AllocateOrDie();
  auto image = MakeImage(disk.page_size(), 0);
  ASSERT_TRUE(disk.Read(0, image).ok());
  disk.ResetStats();
  EXPECT_EQ(disk.stats().reads, 0u);
  EXPECT_EQ(disk.stats().writes, 0u);
  // After a reset the next read must not count as sequential.
  ASSERT_TRUE(disk.Read(0, image).ok());
  EXPECT_EQ(disk.stats().sequential_reads, 0u);
}

TEST(DiskManagerTest, PeekDoesNotCountIo) {
  DiskManager disk;
  const PageId id = disk.AllocateOrDie();
  std::vector<std::byte> image(disk.page_size(), std::byte{0});
  PageHeaderView(image.data()).set_type(PageType::kData);
  PageHeaderView(image.data()).set_level(0);
  ASSERT_TRUE(disk.Write(id, image).ok());
  disk.ResetStats();
  EXPECT_EQ(disk.PeekMeta(id).type, PageType::kData);
  EXPECT_EQ(disk.PeekPage(id).size(), disk.page_size());
  EXPECT_EQ(disk.stats().accesses(), 0u);
}

TEST(DiskManagerTest, CustomPageSize) {
  DiskManager disk(512);
  EXPECT_EQ(disk.page_size(), 512u);
  const PageId id = disk.AllocateOrDie();
  auto image = MakeImage(512, 0x5A);
  ASSERT_TRUE(disk.Write(id, image).ok());
  auto in = MakeImage(512, 0);
  ASSERT_TRUE(disk.Read(id, in).ok());
  EXPECT_EQ(std::memcmp(in.data(), image.data(), 512), 0);
}

TEST(DiskImageTest, SaveLoadRoundTrip) {
  DiskManager disk(512);
  for (int i = 0; i < 5; ++i) disk.AllocateOrDie();
  std::vector<std::byte> image(512);
  for (int i = 0; i < 5; ++i) {
    std::fill(image.begin(), image.end(),
              static_cast<std::byte>(0x10 + i));
    ASSERT_TRUE(disk.Write(static_cast<PageId>(i), image).ok());
  }
  const std::string path = ::testing::TempDir() + "/sdb_disk_image.bin";
  ASSERT_TRUE(disk.SaveImage(path));

  auto loaded = DiskManager::LoadImage(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->page_size(), 512u);
  EXPECT_EQ(loaded->page_count(), 5u);
  for (int i = 0; i < 5; ++i) {
    std::vector<std::byte> in(512);
    ASSERT_TRUE(loaded->Read(static_cast<PageId>(i), in).ok());
    EXPECT_EQ(in[0], static_cast<std::byte>(0x10 + i));
    EXPECT_EQ(in[511], static_cast<std::byte>(0x10 + i));
  }
  std::remove(path.c_str());
}

TEST(DiskImageTest, LoadedImageStartsWithCleanStats) {
  DiskManager disk;
  disk.AllocateOrDie();
  std::vector<std::byte> image(disk.page_size(), std::byte{1});
  ASSERT_TRUE(disk.Write(0, image).ok());
  const std::string path = ::testing::TempDir() + "/sdb_disk_image2.bin";
  ASSERT_TRUE(disk.SaveImage(path));
  auto loaded = DiskManager::LoadImage(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->stats().accesses(), 0u);
  std::remove(path.c_str());
}

TEST(DiskImageTest, MissingOrCorruptFilesAreRejected) {
  EXPECT_FALSE(DiskManager::LoadImage("/nonexistent/dir/img").has_value());
  const std::string path = ::testing::TempDir() + "/sdb_garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a disk image", f);
  std::fclose(f);
  EXPECT_FALSE(DiskManager::LoadImage(path).has_value());
  std::remove(path.c_str());
}

TEST(ReadOnlyDiskViewTest, ReadsSameBytesAsBase) {
  DiskManager disk;
  const PageId a = disk.AllocateOrDie();
  const PageId b = disk.AllocateOrDie();
  ASSERT_TRUE(disk.Write(a, MakeImage(disk.page_size(), 0x11)).ok());
  ASSERT_TRUE(disk.Write(b, MakeImage(disk.page_size(), 0x22)).ok());

  ReadOnlyDiskView view(disk);
  EXPECT_EQ(view.page_size(), disk.page_size());
  auto via_view = MakeImage(disk.page_size(), 0);
  auto via_base = MakeImage(disk.page_size(), 0);
  for (const PageId id : {a, b}) {
    ASSERT_TRUE(view.Read(id, via_view).ok());
    ASSERT_TRUE(disk.Read(id, via_base).ok());
    EXPECT_EQ(
        std::memcmp(via_view.data(), via_base.data(), disk.page_size()), 0);
  }
}

TEST(ReadOnlyDiskViewTest, CountersArePerViewAndLeaveBaseUntouched) {
  DiskManager disk;
  for (int i = 0; i < 4; ++i) disk.AllocateOrDie();
  disk.ResetStats();

  ReadOnlyDiskView first(disk);
  ReadOnlyDiskView second(disk);
  auto image = MakeImage(disk.page_size(), 0);
  ASSERT_TRUE(first.Read(0, image).ok());
  ASSERT_TRUE(first.Read(1, image).ok());  // sequential
  ASSERT_TRUE(first.Read(3, image).ok());  // random
  ASSERT_TRUE(second.Read(2, image).ok());

  EXPECT_EQ(first.stats().reads, 3u);
  EXPECT_EQ(first.stats().sequential_reads, 1u);
  EXPECT_EQ(second.stats().reads, 1u);
  EXPECT_EQ(second.stats().sequential_reads, 0u);
  EXPECT_EQ(disk.stats().accesses(), 0u)
      << "view reads must not mutate the shared device counters";

  first.ResetStats();
  EXPECT_EQ(first.stats().reads, 0u);
  // After a reset the next read must not count as sequential.
  ASSERT_TRUE(first.Read(0, image).ok());
  EXPECT_EQ(first.stats().sequential_reads, 0u);
}

TEST(ReadOnlyDiskViewTest, WriteAndAllocateReturnUnimplemented) {
  DiskManager disk;
  disk.AllocateOrDie();
  ReadOnlyDiskView view(disk);
  auto image = MakeImage(disk.page_size(), 0);
  const core::Status written = view.Write(0, image);
  EXPECT_EQ(written.code(), core::StatusCode::kUnimplemented);
  const core::StatusOr<PageId> allocated = view.Allocate();
  EXPECT_EQ(allocated.status().code(), core::StatusCode::kUnimplemented);
  EXPECT_EQ(disk.page_count(), 1u) << "the refusal must not touch the device";
}

TEST(DiskManagerDeathTest, OutOfRangeAborts) {
  DiskManager disk;
  auto image = MakeImage(disk.page_size(), 0);
  EXPECT_DEATH(disk.Read(7, image), "out of range");
}

TEST(DiskManagerDeathTest, WrongBufferSizeAborts) {
  DiskManager disk;
  disk.AllocateOrDie();
  auto small = MakeImage(16, 0);
  EXPECT_DEATH(disk.Read(0, small), "SDB_CHECK");
}

}  // namespace
}  // namespace sdb::storage

#include "storage/disk_manager.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "storage/crc32c.h"

namespace sdb::storage {

namespace {
uint32_t ZeroPageCrc(size_t page_size) {
  std::vector<std::byte> zero(page_size, std::byte{0});
  return crc32c::Checksum(zero);
}

/// Directory segment of page `id` and the page's index in it.
std::pair<int, size_t> Place(size_t id) {
  const int segment = std::bit_width(id + 1) - 1;
  return {segment, id + 1 - (size_t{1} << segment)};
}
}  // namespace

DiskManager::DiskManager(size_t page_size)
    : page_size_(page_size), zero_page_crc_(ZeroPageCrc(page_size)) {
  SDB_CHECK_MSG(page_size >= PageHeaderView::kHeaderSize,
                "page must fit its header");
}

DiskManager::DiskManager(DiskManager&& other) noexcept
    : page_size_(other.page_size_),
      segments_(std::move(other.segments_)),
      page_count_(other.page_count_.exchange(0)),
      zero_page_crc_(other.zero_page_crc_),
      page_capacity_(other.page_capacity_),
      stats_(other.stats_),
      last_read_(other.last_read_),
      last_write_(other.last_write_) {}

DiskManager::~DiskManager() {
  for (PageId id = 0; id < page_count(); ++id) delete[] PagePtr(id);
}

core::StatusOr<PageId> DiskManager::Allocate() {
  // Disk-full is an operational condition, not a harness bug: the write
  // path surfaces it as backpressure (New() fails, the service stays up)
  // instead of aborting the process.
  const size_t id = page_count_.load(std::memory_order_relaxed);
  if (id >= kInvalidPageId || (page_capacity_ != 0 && id >= page_capacity_)) {
    return core::Status::ResourceExhausted("disk full");
  }
  const auto [segment, index] = Place(id);
  Segment& block = segments_[segment];
  if (block.pages == nullptr) {
    block.pages =
        std::make_unique_for_overwrite<std::byte*[]>(size_t{1} << segment);
    block.checksums =
        std::make_unique_for_overwrite<uint32_t[]>(size_t{1} << segment);
  }
  // Value-initialised: the new page is all zeros, which zero_page_crc_
  // describes.
  block.pages[index] = new std::byte[page_size_]();
  block.checksums[index] = zero_page_crc_;
  page_count_.store(id + 1, std::memory_order_release);
  return static_cast<PageId>(id);
}

core::Status DiskManager::Read(PageId id, std::span<std::byte> out) {
  SDB_CHECK(out.size() == page_size_);
  std::memcpy(out.data(), PagePtr(id), page_size_);
  ++stats_.reads;
  if (last_read_ != kInvalidPageId && id == last_read_ + 1) {
    ++stats_.sequential_reads;
  }
  last_read_ = id;
  return core::Status::Ok();
}

core::Status DiskManager::Write(PageId id, std::span<const std::byte> in) {
  // The page/sidecar update of WriteConcurrent, then the counters.
  if (core::Status stored = DiskManager::WriteConcurrent(id, in);
      !stored.ok()) {
    return stored;
  }
  ++stats_.writes;
  if (last_write_ != kInvalidPageId && id == last_write_ + 1) {
    ++stats_.sequential_writes;
  }
  last_write_ = id;
  return core::Status::Ok();
}

core::Status DiskManager::WriteConcurrent(PageId id,
                                          std::span<const std::byte> in) {
  // Write minus the IoStats counters and last_write_ run tracking, the only
  // members shared between pages; parallel redo partitions page ids across
  // threads. Short (or oversized) buffers and unallocated page ids are
  // rejected with a status, not an abort — the buffer manager propagates
  // the failure to the caller that dirtied the page.
  if (in.size() != page_size_) {
    return core::Status::InvalidArgument("short write: buffer size mismatch");
  }
  if (id >= page_count()) {
    return core::Status::InvalidArgument("write to unallocated page");
  }
  std::memcpy(PagePtr(id), in.data(), page_size_);
  uint32_t& checksum = SidecarOf(id);
  checksum = crc32c::Checksum(in);
  // Verify the sidecar re-stamp against the bytes actually stored: a page
  // rewrite must leave device bytes and sidecar in agreement, or every later
  // fetch of the page would quarantine it.
  if (crc32c::Checksum(PeekPage(id)) != checksum) {
    return core::Status::DataLoss("page rewrite failed checksum verification");
  }
  return core::Status::Ok();
}

std::optional<uint32_t> DiskManager::PageChecksum(PageId id) const {
  return SidecarOf(id);
}

PageMeta DiskManager::PeekMeta(PageId id) const {
  return ConstPageHeaderView(PagePtr(id)).ToMeta();
}

std::span<const std::byte> DiskManager::PeekPage(PageId id) const {
  return {PagePtr(id), page_size_};
}

namespace {
/// Image file magic ("SDBDISK1").
constexpr uint64_t kImageMagic = 0x53444244'49534b31ull;

struct ImageHeader {
  uint64_t magic;
  uint64_t page_size;
  uint64_t page_count;
};

/// Owns a FILE* for exception-free early returns.
struct FileCloser {
  std::FILE* file;
  ~FileCloser() {
    if (file != nullptr) std::fclose(file);
  }
};
}  // namespace

bool DiskManager::SaveImage(const std::string& path) const {
  FileCloser out{std::fopen(path.c_str(), "wb")};
  if (out.file == nullptr) return false;
  const ImageHeader header{kImageMagic, page_size_, page_count()};
  if (std::fwrite(&header, sizeof(header), 1, out.file) != 1) return false;
  for (PageId id = 0; id < header.page_count; ++id) {
    if (std::fwrite(PagePtr(id), 1, page_size_, out.file) != page_size_) {
      return false;
    }
  }
  return std::fflush(out.file) == 0;
}

std::optional<DiskManager> DiskManager::LoadImage(const std::string& path) {
  FileCloser in{std::fopen(path.c_str(), "rb")};
  if (in.file == nullptr) return std::nullopt;
  ImageHeader header;
  if (std::fread(&header, sizeof(header), 1, in.file) != 1 ||
      header.magic != kImageMagic ||
      header.page_size < PageHeaderView::kHeaderSize) {
    return std::nullopt;
  }
  DiskManager disk(header.page_size);
  for (uint64_t i = 0; i < header.page_count; ++i) {
    const core::StatusOr<PageId> id = disk.Allocate();
    if (!id.ok()) return std::nullopt;
    if (std::fread(disk.PagePtr(*id), 1, header.page_size, in.file) !=
        header.page_size) {
      return std::nullopt;
    }
    // Stamp the sidecar eagerly so views opened on the loaded image can
    // verify fetches without ever writing through this manager.
    disk.SidecarOf(*id) = crc32c::Checksum(disk.PeekPage(*id));
  }
  return disk;
}

void DiskManager::ResetStats() {
  stats_ = IoStats{};
  last_read_ = kInvalidPageId;
  last_write_ = kInvalidPageId;
}

std::byte* DiskManager::PagePtr(PageId id) const {
  SDB_CHECK_MSG(id < page_count(), "page id out of range");
  const auto [segment, index] = Place(id);
  return segments_[segment].pages[index];
}

uint32_t& DiskManager::SidecarOf(PageId id) const {
  SDB_CHECK_MSG(id < page_count(), "page id out of range");
  const auto [segment, index] = Place(id);
  return segments_[segment].checksums[index];
}

}  // namespace sdb::storage

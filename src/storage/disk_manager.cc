#include "storage/disk_manager.h"

#include <cstdio>
#include <cstring>

#include "common/macros.h"
#include "storage/crc32c.h"

namespace sdb::storage {

namespace {
uint32_t ZeroPageCrc(size_t page_size) {
  std::vector<std::byte> zero(page_size, std::byte{0});
  return crc32c::Checksum(zero);
}
}  // namespace

DiskManager::DiskManager(size_t page_size)
    : page_size_(page_size), zero_page_crc_(ZeroPageCrc(page_size)) {
  SDB_CHECK_MSG(page_size >= PageHeaderView::kHeaderSize,
                "page must fit its header");
}

core::StatusOr<PageId> DiskManager::Allocate() {
  // Disk-full is an operational condition, not a harness bug: the write
  // path surfaces it as backpressure (New() fails, the service stays up)
  // instead of aborting the process.
  if (pages_.size() >= kInvalidPageId ||
      (page_capacity_ != 0 && pages_.size() >= page_capacity_)) {
    return core::Status::ResourceExhausted("disk full");
  }
  // make_unique<T[]> value-initialises: the new page is all zeros, which
  // zero_page_crc_ describes.
  pages_.push_back(std::make_unique<std::byte[]>(page_size_));
  checksums_.push_back(zero_page_crc_);
  return static_cast<PageId>(pages_.size() - 1);
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
  // Hardened write path: short (or oversized) buffers and unallocated page
  // ids are rejected with a status, not an abort — the buffer manager
  // propagates the failure to the caller that dirtied the page.
  if (in.size() != page_size_) {
    return core::Status::InvalidArgument("short write: buffer size mismatch");
  }
  if (id >= pages_.size()) {
    return core::Status::InvalidArgument("write to unallocated page");
  }
  std::memcpy(PagePtr(id), in.data(), page_size_);
  checksums_[id] = crc32c::Checksum(in);
  // Verify the sidecar re-stamp against the bytes actually stored: a page
  // rewrite must leave device bytes and sidecar in agreement, or every later
  // fetch of the page would quarantine it.
  if (crc32c::Checksum({PagePtr(id), page_size_}) != checksums_[id]) {
    return core::Status::DataLoss("page rewrite failed checksum verification");
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
  // Parallel-redo variant of Write: identical page/sidecar update, minus
  // the IoStats counters and last_write_ run tracking — the only members
  // shared between pages. Callers partition page ids across threads, so
  // pages_[id]/checksums_[id] are single-writer here.
  if (in.size() != page_size_) {
    return core::Status::InvalidArgument("short write: buffer size mismatch");
  }
  if (id >= pages_.size()) {
    return core::Status::InvalidArgument("write to unallocated page");
  }
  std::memcpy(PagePtr(id), in.data(), page_size_);
  checksums_[id] = crc32c::Checksum(in);
  if (crc32c::Checksum({PagePtr(id), page_size_}) != checksums_[id]) {
    return core::Status::DataLoss("page rewrite failed checksum verification");
  }
  return core::Status::Ok();
}

std::optional<uint32_t> DiskManager::PageChecksum(PageId id) const {
  SDB_CHECK_MSG(id < checksums_.size(), "page id out of range");
  return checksums_[id];
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
  const ImageHeader header{kImageMagic, page_size_, pages_.size()};
  if (std::fwrite(&header, sizeof(header), 1, out.file) != 1) return false;
  for (const auto& page : pages_) {
    if (std::fwrite(page.get(), 1, page_size_, out.file) != page_size_) {
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
  disk.pages_.reserve(header.page_count);
  disk.checksums_.reserve(header.page_count);
  for (uint64_t i = 0; i < header.page_count; ++i) {
    auto page = std::make_unique<std::byte[]>(header.page_size);
    if (std::fread(page.get(), 1, header.page_size, in.file) !=
        header.page_size) {
      return std::nullopt;
    }
    // Stamp the sidecar eagerly so views opened on the loaded image can
    // verify fetches without ever writing through this manager.
    disk.checksums_.push_back(
        crc32c::Checksum({page.get(), header.page_size}));
    disk.pages_.push_back(std::move(page));
  }
  return disk;
}

void DiskManager::ResetStats() {
  stats_ = IoStats{};
  last_read_ = kInvalidPageId;
  last_write_ = kInvalidPageId;
}

std::byte* DiskManager::PagePtr(PageId id) {
  SDB_CHECK_MSG(id < pages_.size(), "page id out of range");
  return pages_[id].get();
}

const std::byte* DiskManager::PagePtr(PageId id) const {
  SDB_CHECK_MSG(id < pages_.size(), "page id out of range");
  return pages_[id].get();
}

}  // namespace sdb::storage

#include "storage/disk_view.h"

#include <cstring>

#include "common/macros.h"

namespace sdb::storage {

namespace {
/// Copies page `id` of `base` into `out` and counts the read in `stats`.
void CopyPage(const DiskManager& base, PageId id, std::span<std::byte> out,
              IoStats* stats, PageId* last_read) {
  SDB_CHECK(out.size() == base.page_size());
  std::memcpy(out.data(), base.PeekPage(id).data(), out.size());
  ++stats->reads;
  if (*last_read != kInvalidPageId && id == *last_read + 1) {
    ++stats->sequential_reads;
  }
  *last_read = id;
}
}  // namespace

core::StatusOr<PageId> ReadOnlyDiskView::Allocate() {
  return core::Status::Unimplemented(
      "read-only disk view cannot allocate pages");
}

core::Status ReadOnlyDiskView::Read(PageId id, std::span<std::byte> out) {
  CopyPage(*base_, id, out, &stats_, &last_read_);
  return core::Status::Ok();
}

core::Status ReadOnlyDiskView::Write(PageId, std::span<const std::byte>) {
  return core::Status::Unimplemented("read-only disk view cannot write pages");
}

void ReadOnlyDiskView::ResetStats() {
  stats_ = IoStats{};
  last_read_ = kInvalidPageId;
}

core::StatusOr<PageId> WritableDiskView::Allocate() {
  std::lock_guard<std::mutex> lock(*mu_);
  return base_->Allocate();
}

core::Status WritableDiskView::Sync() {
  std::lock_guard<std::mutex> lock(*mu_);
  return base_->Sync();
}

core::Status WritableDiskView::Read(PageId id, std::span<std::byte> out) {
  CopyPage(*base_, id, out, &stats_, &last_read_);
  return core::Status::Ok();
}

core::Status WritableDiskView::Write(PageId id, std::span<const std::byte> in) {
  std::lock_guard<std::mutex> lock(*mu_);
  const core::Status status = base_->Write(id, in);
  if (!status.ok()) return status;
  ++stats_.writes;
  if (last_write_ != kInvalidPageId && id == last_write_ + 1) {
    ++stats_.sequential_writes;
  }
  last_write_ = id;
  return core::Status::Ok();
}

void WritableDiskView::ResetStats() {
  stats_ = IoStats{};
  last_read_ = kInvalidPageId;
  last_write_ = kInvalidPageId;
}

}  // namespace sdb::storage

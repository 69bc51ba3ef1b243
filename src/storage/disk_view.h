#ifndef SPATIALBUFFER_STORAGE_DISK_VIEW_H_
#define SPATIALBUFFER_STORAGE_DISK_VIEW_H_

#include <cstddef>
#include <mutex>
#include <span>

#include "storage/disk_manager.h"

namespace sdb::storage {

/// Read-only window onto a shared DiskManager with its own I/O counters.
///
/// The experiment harness replays many (policy × buffer-size × query-set)
/// cells against one expensively built disk image. The image itself is never
/// modified by a replay, but DiskManager::Read mutates the device counters,
/// so concurrent replays over the shared manager would race and corrupt the
/// metrics. Each replay instead wraps the manager in its own view: reads are
/// served straight from the shared page array (which must not be mutated
/// while views exist), while read counts and sequential-run detection are
/// tracked per view. Write and Allocate return kUnimplemented — a replay
/// that dirties pages is a harness bug, reported as a status.
class ReadOnlyDiskView final : public PageDevice {
 public:
  explicit ReadOnlyDiskView(const DiskManager& base) : base_(&base) {}

  size_t page_size() const override { return base_->page_size(); }
  size_t page_count() const override { return base_->page_count(); }

  core::StatusOr<PageId> Allocate() override;
  core::Status Read(PageId id, std::span<std::byte> out) override;
  core::Status Write(PageId id, std::span<const std::byte> in) override;

  /// Forwards to the shared manager's eagerly-maintained sidecar; safe to
  /// call from concurrent views because replays never write.
  std::optional<uint32_t> PageChecksum(PageId id) const override {
    return base_->PageChecksum(id);
  }

  const IoStats& stats() const override { return stats_; }
  void ResetStats() override;

  const DiskManager& base() const { return *base_; }

 private:
  const DiskManager* base_;
  IoStats stats_;
  PageId last_read_ = kInvalidPageId;
};

/// Writable window onto a shared DiskManager for the sharded write path.
///
/// Reads take no lock: the manager's page directory never moves an entry,
/// and the service's page partitioning guarantees each page's bytes and
/// checksum are only touched under one shard's latch. Allocate, Write and
/// Sync share the manager's counters, so all views over one manager
/// serialize them on a device mutex (owned by the service). I/O counters
/// and sequential-run detection stay per view so shard statistics remain
/// exact.
class WritableDiskView final : public PageDevice {
 public:
  WritableDiskView(DiskManager& base, std::mutex& device_mu)
      : base_(&base), mu_(&device_mu), page_size_(base.page_size()) {}

  size_t page_size() const override { return page_size_; }
  size_t page_count() const override { return base_->page_count(); }

  core::StatusOr<PageId> Allocate() override;
  core::Status Read(PageId id, std::span<std::byte> out) override;
  core::Status Write(PageId id, std::span<const std::byte> in) override;
  core::Status Sync() override;

  std::optional<uint32_t> PageChecksum(PageId id) const override {
    return base_->PageChecksum(id);
  }

  const IoStats& stats() const override { return stats_; }
  void ResetStats() override;

 private:
  DiskManager* base_;
  std::mutex* mu_;
  const size_t page_size_;
  IoStats stats_;
  PageId last_read_ = kInvalidPageId;
  PageId last_write_ = kInvalidPageId;
};

}  // namespace sdb::storage

#endif  // SPATIALBUFFER_STORAGE_DISK_VIEW_H_

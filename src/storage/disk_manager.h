#ifndef SPATIALBUFFER_STORAGE_DISK_MANAGER_H_
#define SPATIALBUFFER_STORAGE_DISK_MANAGER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/status.h"
#include "storage/page.h"

namespace sdb::storage {

/// Counters of the simulated disk. The paper's experiments report the number
/// of disk accesses; the random/sequential breakdown supports the cost-model
/// ablation the paper lists as future work ("distinguishing random and
/// sequential I/O").
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t sequential_reads = 0;  ///< reads at last-read page id + 1
  uint64_t sequential_writes = 0;

  uint64_t accesses() const { return reads + writes; }
  uint64_t random_reads() const { return reads - sequential_reads; }
  uint64_t random_writes() const { return writes - sequential_writes; }

  /// Weighted cost: a sequential access costs `sequential_cost` relative to
  /// a random access cost of 1.0 (a small fraction on spinning disks).
  double WeightedCost(double sequential_cost) const {
    const uint64_t sequential = sequential_reads + sequential_writes;
    const uint64_t random = accesses() - sequential;
    return static_cast<double>(random) +
           sequential_cost * static_cast<double>(sequential);
  }
};

/// Interface of everything a buffer pool needs from its backing store:
/// page-granular transfers plus per-device I/O accounting. DiskManager is
/// the canonical implementation; ReadOnlyDiskView (disk_view.h) adapts a
/// shared DiskManager for concurrent read-only replays, each view carrying
/// its own counters.
class PageDevice {
 public:
  virtual ~PageDevice() = default;

  virtual size_t page_size() const = 0;

  /// Appends a zeroed page and returns its id. Allocation is not counted as
  /// I/O (the zero page materializes in the buffer). Returns
  /// kResourceExhausted when the device is full (capacity reached or an
  /// injected disk-full fault) and kUnimplemented on read-only devices —
  /// callers surface the failure as backpressure instead of aborting.
  virtual core::StatusOr<PageId> Allocate() = 0;

  /// Allocate for call sites where a full disk indicates a harness bug
  /// (index builds and tests over an unbounded simulated device): unwraps
  /// or aborts with the error text.
  PageId AllocateOrDie() { return Allocate().ValueOrDie(); }

  /// Copies a page into `out` (which must be page_size() bytes). Returns
  /// non-OK when the device could not deliver the page — kUnavailable for
  /// transient failures worth retrying, kPermanentFailure for bad sectors.
  /// A non-OK read leaves `out` unspecified. Requesting a page id that was
  /// never allocated is a caller bug and still aborts.
  virtual core::Status Read(PageId id, std::span<std::byte> out) = 0;

  /// Copies `in` (page_size() bytes) onto the page. Returns non-OK instead
  /// of aborting on write failure: kInvalidArgument for short/oversized
  /// buffers or unallocated page ids, kDataLoss when the post-write checksum
  /// re-stamp does not verify, kUnimplemented on read-only devices.
  virtual core::Status Write(PageId id, std::span<const std::byte> in) = 0;

  /// True when WriteConcurrent may be called from several threads at once
  /// for *distinct* page ids. Devices whose write path mutates shared state
  /// beyond the page itself (fault schedules, wrapped views) answer false,
  /// and parallel writers must serialize through Write instead.
  virtual bool SupportsConcurrentWrites() const { return false; }

  /// Write variant that parallel redo calls concurrently for distinct page
  /// ids when SupportsConcurrentWrites(). Implementations skip the shared
  /// sequential-access accounting; the default forwards to Write for
  /// devices that never claim concurrency.
  virtual core::Status WriteConcurrent(PageId id,
                                       std::span<const std::byte> in) {
    return Write(id, in);
  }

  /// Makes every acknowledged Write durable ("fsync"). The in-memory
  /// devices are trivially durable, so the default succeeds; the fault
  /// layer overrides this to model failing fsyncs. The fsyncgate contract
  /// for callers: after a non-OK Sync, NONE of the writes since the last
  /// successful Sync may be assumed durable — re-write them from memory
  /// before the next Sync, or stop claiming durability.
  virtual core::Status Sync() { return core::Status::Ok(); }

  /// Number of allocated pages, when the device can tell (0 otherwise).
  /// The WAL stamps this into commit records so recovery can bound its
  /// byte-exactness check to pages that were committed.
  virtual size_t page_count() const { return 0; }

  /// Expected CRC-32C of the page as last written, if this device maintains
  /// checksums; nullopt disables verification on fetch. Checksums are kept
  /// out of band (a device sidecar, not page-header bytes) so the on-page
  /// layout — and with it fanout and every paper metric — is unchanged.
  virtual std::optional<uint32_t> PageChecksum(PageId /*id*/) const {
    return std::nullopt;
  }

  virtual const IoStats& stats() const = 0;
  virtual void ResetStats() = 0;
};

/// Simulated disk: a growable array of fixed-size pages held in memory, with
/// exact accounting of every page transfer. All experiment metrics are
/// computed from these counters, so buffer hits must never reach this class.
///
/// Allocate, Write and Read share the counters and need one caller at a
/// time. PeekPage, PageChecksum and page_count may run beside them for any
/// page below the count they observe: Allocate publishes the count after
/// filling the new slot. A page's bytes and checksum are the caller's to
/// guard.
class DiskManager : public PageDevice {
 public:
  explicit DiskManager(size_t page_size = kDefaultPageSize);

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  core::StatusOr<PageId> Allocate() override;
  core::Status Read(PageId id, std::span<std::byte> out) override;
  core::Status Write(PageId id, std::span<const std::byte> in) override;

  /// Artificial capacity in pages (0 = unbounded, the default): Allocate
  /// fails with kResourceExhausted once page_count() reaches it. The
  /// deterministic disk-full knob of the write-path fault tests.
  void set_page_capacity(size_t pages) { page_capacity_ = pages; }
  size_t page_capacity() const { return page_capacity_; }

  /// Distinct page ids touch distinct directory slots, so writes to
  /// different pages need no synchronization once the shared IoStats and
  /// sequential-run bookkeeping are skipped.
  bool SupportsConcurrentWrites() const override { return true; }
  core::Status WriteConcurrent(PageId id,
                               std::span<const std::byte> in) override;

  /// CRC-32C sidecar, maintained eagerly: stamped on Allocate/Write (and in
  /// one pass by LoadImage), so concurrent ReadOnlyDiskViews can verify
  /// without synchronizing. The simulated disk itself never fails; the
  /// sidecar exists so corruption injected *between* disk and buffer (torn
  /// reads, bit flips) is detected on fetch.
  std::optional<uint32_t> PageChecksum(PageId id) const override;

  /// Header of a page as it is on disk — for offline inspection/validation
  /// without touching the I/O counters.
  PageMeta PeekMeta(PageId id) const;

  /// Whole page image as it is on disk, again without counting I/O. Used by
  /// structural validation and statistics walks; never by query execution.
  std::span<const std::byte> PeekPage(PageId id) const;

  /// Serializes the whole disk image to a file, so an expensively built
  /// database can be reused across processes (e.g. by benchmark runs).
  /// Returns false on I/O failure.
  bool SaveImage(const std::string& path) const;

  /// Restores a disk image written by SaveImage; nullopt if the file is
  /// missing or malformed.
  static std::optional<DiskManager> LoadImage(const std::string& path);

  DiskManager(DiskManager&& other) noexcept;
  ~DiskManager() override;

  size_t page_size() const override { return page_size_; }
  size_t page_count() const override {
    return page_count_.load(std::memory_order_acquire);
  }

  const IoStats& stats() const override { return stats_; }
  void ResetStats() override;

 private:
  /// Page `id`'s bytes and sidecar CRC; both abort unless id < page_count().
  std::byte* PagePtr(PageId id) const;
  uint32_t& SidecarOf(PageId id) const;

  const size_t page_size_;
  // Page directory: segment s holds the heap blocks (freed by the
  // destructor) and CRC-32Cs of pages 2^s - 1 to 2^(s+1) - 2, so 32 cover
  // every PageId. A segment is allocated with its first page, its slots
  // untouched until their page is, and it never moves: readers need no lock.
  struct Segment {
    std::unique_ptr<std::byte*[]> pages;
    std::unique_ptr<uint32_t[]> checksums;
  };
  std::array<Segment, 32> segments_;
  std::atomic<size_t> page_count_{0};
  // CRC of the all-zero page, computed once so Allocate stays O(1).
  const uint32_t zero_page_crc_;
  size_t page_capacity_ = 0;  ///< 0 = unbounded
  IoStats stats_;
  PageId last_read_ = kInvalidPageId;
  PageId last_write_ = kInvalidPageId;
};

}  // namespace sdb::storage

#endif  // SPATIALBUFFER_STORAGE_DISK_MANAGER_H_

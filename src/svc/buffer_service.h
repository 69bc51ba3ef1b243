#ifndef SPATIALBUFFER_SVC_BUFFER_SERVICE_H_
#define SPATIALBUFFER_SVC_BUFFER_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/asb_shared.h"
#include "core/buffer_manager.h"
#include "obs/collector.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/disk_view.h"
#include "storage/fault_injection.h"
#include "wal/wal.h"

namespace sdb::svc {

class FlushCoordinator;

/// Health of the whole service's write path. The service degrades instead
/// of dying: once a write-side failure survives every retry budget below it
/// (WAL sticky error) or quarantine eats the last spare frame of a shard,
/// New/Commit/Checkpoint return kUnavailable while the read path keeps
/// serving every page it can. Degradation is one-way for the life of the
/// process — the data needed to leave it safely (the unflushed WAL tail,
/// the quarantined frames' images) is exactly what the trigger proved the
/// device cannot persist.
enum class DegradedState : uint8_t {
  kHealthy = 0,
  /// The WAL hit a terminal device failure: nothing can be made durable,
  /// so nothing new may be acknowledged.
  kWalError,
  /// A shard's write-quarantine hit its cap: frames are leaving service
  /// faster than the device accepts pages back.
  kQuarantineSaturated,
};

/// Construction knobs of a BufferService.
struct BufferServiceConfig {
  /// Logical buffer capacity in frames, split over the shards (every shard
  /// gets total/shards frames; the remainder is distributed one frame each
  /// to the lowest-numbered shards). Must be >= shard_count. A fetch whose
  /// shard has every frame pinned fails with kResourceExhausted, so clients
  /// holding pins concurrently want every shard to have at least
  /// (max concurrent pins + 1) frames. Query traversal pins one page at a
  /// time, so shard_count * (clients + 1) total frames always suffices.
  size_t total_frames = 256;
  size_t shard_count = 4;
  /// Replacement policy of every shard (core::CreatePolicy spec).
  std::string policy_spec = "ASB";
  /// Attach one obs::Collector per shard (mutated only under the shard
  /// latch), adding histograms, gauges, policy counters and events to the
  /// metrics views. The counters are exported either way.
  bool collect_metrics = false;
  /// Per-shard fault handling (retry budget, checksum verification,
  /// quarantine cap), forwarded to every shard's BufferManager.
  core::ResilienceOptions resilience;
  /// Deferred events one shard of a read-only service may hold, split over
  /// its thread stripes (core::ConcurrentOptions). Small capacities just
  /// fall back to the latched path more often.
  size_t event_ring_capacity = 1024;
  /// When enabled, every shard reads through its own FaultInjectingDevice
  /// wrapping the shard view; the profile seed is mixed with the shard
  /// index so shards draw independent fault sequences but the whole service
  /// remains replayable for a fixed seed.
  storage::FaultProfile fault_profile;
  /// Background write-back (writable service only): flusher threads that
  /// harvest each shard's dirty frames off the pin path, so eviction finds
  /// clean victims instead of stalling on device writes. 0 (the default)
  /// keeps the synchronous-eviction behaviour, bit-for-bit.
  size_t flusher_threads = 0;
  /// Per-shard dirty ratio (dirty / usable frames) at or below which the
  /// flusher idles. Above it the flusher drains while eviction skips dirty
  /// victims, up to the buffer's high watermark (0.50); past that
  /// eviction stops waiting and writes back synchronously (counted as
  /// sync_writeback_fallbacks — the bench gate expects zero in steady
  /// state). Between commit nudges the flusher polls at
  /// FlushCoordinator's idle cadence.
  double dirty_low_watermark = 0.10;
  /// Pages one flusher round harvests from one shard (bounds the latch
  /// hold; a capped round re-runs immediately).
  size_t flusher_batch_pages = 16;
};

/// Counters of one shard (or the shard-summed aggregate).
struct ShardStats {
  core::BufferStats buffer;
  storage::IoStats io;
  /// Fetch arrivals that found the shard latch held by another thread.
  uint64_t latch_waits = 0;
  /// Total latch acquisitions — fetches plus stats/metrics reads (the
  /// contention denominator).
  uint64_t latch_acquires = 0;
  /// Health accounting: frames this shard took out of service and pages it
  /// recorded as permanently unreadable. A shard keeps serving while
  /// degraded; a fetch only fails once nothing evictable remains.
  uint64_t quarantined_frames = 0;
  uint64_t bad_pages = 0;
  /// Frames still in service (capacity minus quarantined).
  uint64_t usable_frames = 0;
  /// Optimistic-path accounting (all zero on a writable service): hits
  /// served without the shard latch, probe attempts abandoned, and version
  /// validations lost against a concurrent writer.
  uint64_t optimistic_hits = 0;
  uint64_t optimistic_retries = 0;
  uint64_t version_conflicts = 0;
  /// Always 0: kept only because perfbench/src/common.cc reads them.
  uint64_t batch_submits = 0;
  uint64_t async_reads = 0;
  /// Service-wide degraded-mode accounting, mirrored into every shard's
  /// stats (degradation is a service property, not a shard one):
  /// the current DegradedState as an integer and how many times the
  /// service has entered degraded mode (0 or 1 today — one-way).
  uint64_t degraded = 0;
  uint64_t degraded_entries = 0;
};

/// ShardStats' own counters under their exported names. The nested buffer
/// stats export through core::kBufferStatsCounters and the device reads as
/// svc.disk_reads; the health levels (quarantined, bad and usable frames)
/// are summed by AggregateStats but not exported as counters.
inline constexpr obs::StatsCounter<ShardStats> kShardStatsCounters[] = {
    {"svc.latch_waits", &ShardStats::latch_waits},
    {"svc.latch_acquires", &ShardStats::latch_acquires},
    {"svc.optimistic_hits", &ShardStats::optimistic_hits},
    {"svc.optimistic_retries", &ShardStats::optimistic_retries},
    {"svc.version_conflicts", &ShardStats::version_conflicts},
};

/// Thread-safe shared buffer: one logical pool sharded across N
/// BufferManager-backed partitions. Page-id hash picks the shard, a
/// per-shard latch serializes that shard's buffer and policy, and policy
/// work (victim scans, ASB adaptation) stays confined per shard so the
/// lookup path of other shards never waits on it. Handles returned by
/// Fetch may be dropped from any thread at any time: a writable shard
/// releases the pin under its latch, a read-only shard without it (it takes
/// the latch only to drain a full event stripe).
///
/// Read-only construction serves query traffic over a shared DiskManager
/// image: each shard reads through its own ReadOnlyDiskView (per-shard I/O
/// counters, no device races), and New() fails with kUnimplemented.
/// Writable construction (mutable disk + WAL) additionally serves page
/// creation and durability: each shard reads and writes through a
/// WritableDiskView (reads take no lock; allocations and writes are
/// serialized on one device mutex), every shard's buffer holds the WAL, and
/// Commit/Checkpoint gather the dirty pages of ALL shards into one atomic
/// log group.
///
/// The latch protocol follows writability. A read-only service's shards
/// pin hits latch-free (core::BufferManager::EnableConcurrency); a writable
/// service's shards take the plain shard mutex, so the write path never
/// races a latch-free reader. Run serially, both give the same hits and
/// misses.
class BufferService final : public core::PageSource {
 public:
  BufferService(const storage::DiskManager& disk,
                const BufferServiceConfig& config);

  /// Writable service over `disk`, with the write-ahead rule enforced by
  /// `wal` (both must outlive the service). Reads return the read-only
  /// service's bytes and, run serially, its hits and misses; they take the
  /// shard mutex instead of the optimistic path.
  BufferService(storage::DiskManager* disk, wal::WalManager* wal,
                const BufferServiceConfig& config);
  ~BufferService() override;

  BufferService(const BufferService&) = delete;
  BufferService& operator=(const BufferService&) = delete;

  /// Thread-safe pinned fetch through the page's shard. Errors are
  /// per-shard and per-page: a fetch on a degraded shard fails with the
  /// recorded terminal status (or kResourceExhausted when quarantine or
  /// held pins left the shard nothing evictable) while every other shard
  /// keeps serving.
  core::StatusOr<core::PageHandle> Fetch(storage::PageId page,
                                         const core::AccessContext& ctx)
      override;

  /// Writable service: allocates a fresh page on the shared device and
  /// installs it zero-filled and dirty in its shard. Read-only service:
  /// always kUnimplemented. The page id picks the shard, so allocation
  /// comes first: when the shard then refuses the install with
  /// kResourceExhausted (every frame pinned, or quarantine emptied it), the
  /// allocated page id is leaked — a zeroed device page nothing references,
  /// since the device has no free list to return it to.
  core::StatusOr<core::PageHandle> New(const core::AccessContext& ctx)
      override;

  /// Writable service only. Gathers the dirty, not-yet-logged pages of
  /// every shard (all shard latches held, taken in index order) into ONE
  /// atomic WAL commit group and waits for durability. kUnimplemented on a
  /// read-only service.
  core::Status Commit(const core::AccessContext& ctx = {});

  /// Commit, force every shard's dirty frames to the data device (all
  /// shard latches held), then append one durable checkpoint record
  /// covering the whole service: recovery replays nothing before it.
  core::Status Checkpoint(const core::AccessContext& ctx = {});

  /// One background write-back round over shard `s` (writable service with
  /// background write-back configured; returns 0 otherwise): when the
  /// shard's dirty ratio is above the low watermark, harvests up to
  /// `max_pages` flush candidates (oldest rec_lsn first) and writes them
  /// out in page-id order under the shard latch. Returns the number of
  /// pages written back. Called by the FlushCoordinator workers; exposed
  /// for tests.
  core::StatusOr<size_t> FlushShardBatch(size_t s, size_t max_pages,
                                         const core::AccessContext& ctx = {});

  /// The background flusher (nullptr when flusher_threads == 0 or the
  /// service is read-only).
  FlushCoordinator* flusher() const { return flusher_.get(); }

  /// True when the service was constructed writable.
  bool writable() const { return writable_disk_ != nullptr; }
  wal::WalManager* wal() const { return wal_; }

  /// Write-path health (see DegradedState). Lock-free reads; safe from any
  /// thread.
  DegradedState degraded_state() const {
    return static_cast<DegradedState>(
        degraded_.load(std::memory_order_acquire));
  }
  bool degraded() const { return degraded_state() != DegradedState::kHealthy; }
  uint64_t degraded_entries() const {
    return degraded_entries_.load(std::memory_order_relaxed);
  }

  /// Called by the FlushCoordinator when it backs off a persistently
  /// failing shard: records a kFlushBackoff event in the shard's collector
  /// (takes the shard latch; no-op without metrics).
  void NoteFlushBackoff(size_t shard, uint64_t consecutive_errors,
                        uint64_t skip_rounds);

  /// Buffered image of a resident page. Quiescent use only — the returned
  /// span is unprotected against concurrent eviction.
  std::span<const std::byte> Peek(storage::PageId page) const override;

  /// True if the page is currently resident in its shard (point-in-time).
  bool Contains(storage::PageId page) const;

  size_t shard_count() const { return shards_.size(); }
  size_t total_frames() const { return total_frames_; }
  const std::string& policy_spec() const { return policy_spec_; }

  /// Shard serving `page` (stable hash of the page id).
  size_t ShardOf(storage::PageId page) const;

  /// Frame capacity of one shard (capacity split with remainder).
  size_t ShardFrames(size_t shard) const;

  /// Point-in-time counters of one shard / summed over all shards. Takes
  /// the shard latch(es).
  ShardStats StatsOfShard(size_t shard) const;
  ShardStats AggregateStats() const;

  /// The globally-published ASB candidate-set size, or 0 when the shards
  /// do not run ASB.
  size_t shared_candidate() const;
  const core::AsbSharedTuning* shared_tuning() const {
    return asb_shared_ ? &asb_tuning_ : nullptr;
  }

  /// The shard's buffer, for inspection by tests and reports. Quiescent
  /// use only (no latching).
  const core::BufferManager& shard_buffer(size_t shard) const {
    return *shards_[shard]->buffer;
  }

  /// The shard's fault-injecting device (nullptr when the service runs
  /// without a fault profile). Quiescent use only.
  const storage::FaultInjectingDevice* shard_fault_device(size_t shard) const {
    return shards_[shard]->fault.get();
  }

  /// Injected-fault counters summed over every shard device (all zero
  /// without a fault profile). Takes the shard latches.
  storage::FaultStats AggregateFaultStats() const;

  /// The service's metrics view, built fresh from the stats structs: every
  /// shard's view (see ShardMetricsSnapshots) merged in shard order, plus
  /// the svc.degraded gauge and, on a writable service, the wal.* counters
  /// of WalStats, wal.flusher_pages and wal.degraded_entries. The counter
  /// set is fixed by the configuration — the same with or without
  /// collect_metrics, zero or not, before and after faults. Deterministic
  /// for any thread count wherever the underlying counts are.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// One view per shard: the shard collector's registry (histograms,
  /// gauges, policy counters; empty without collect_metrics), every
  /// BufferStats counter, buffer.header_decodes, the kShardStatsCounters
  /// and svc.disk_reads, all absolute.
  std::vector<obs::MetricsSnapshot> ShardMetricsSnapshots() const;

  /// On-demand live stats dump: MetricsSnapshot() plus service-shape
  /// gauges, rendered as Prometheus text exposition. Thread-safe; takes the
  /// shard latches like any stats read.
  std::string StatsText() const;

 private:
  struct Shard {
    explicit Shard(const storage::DiskManager& disk) : view(disk) {}

    storage::ReadOnlyDiskView view;
    // Writable service only: the shard's view over the mutable disk, used
    // in place of `view` for both reads and writes.
    std::unique_ptr<storage::WritableDiskView> writable;
    // Optional fault-injection wrapper over the shard's device; the shard's
    // buffer reads through it when the service runs a fault profile.
    std::unique_ptr<storage::FaultInjectingDevice> fault;
    std::mutex latch;
    std::unique_ptr<obs::Collector> collector;  // null without metrics
    std::unique_ptr<core::BufferManager> buffer;
    std::atomic<uint64_t> latch_waits{0};
    std::atomic<uint64_t> latch_acquires{0};
  };

  /// Shared construction body of both constructors.
  void Init(const storage::DiskManager& disk,
            const BufferServiceConfig& config);

  /// Acquires the shard latch, counting contended arrivals.
  std::unique_lock<std::mutex> LockShard(Shard& shard) const;

  /// The shard's device-level I/O counters (writable view in write mode,
  /// read-only view otherwise).
  const storage::IoStats& ShardIoStats(const Shard& shard) const {
    return shard.writable != nullptr ? shard.writable->stats()
                                     : shard.view.stats();
  }

  /// The shard's counters (caller holds its latch), read after draining
  /// the deferred optimistic events into them.
  ShardStats StatsOfShardLocked(Shard& shard) const;

  /// Adds the shard's metrics view (see ShardMetricsSnapshots) to
  /// `registry`. Caller holds the shard latch.
  void ExportShardLocked(Shard& shard, obs::MetricsRegistry* registry) const;

  /// One-way transition into degraded read-only mode: first trigger wins
  /// (CAS from kHealthy), counts degraded_entries and records a kDegraded
  /// event in shard `s`'s collector. The caller must hold shard `s`'s latch
  /// (collector access). Idempotent once degraded.
  void EnterDegraded(DegradedState why, size_t s, core::StatusCode code);

  size_t total_frames_ = 0;
  // Write mode (both null on a read-only service). The device mutex
  // serializes allocations and writes of every shard's view over the one
  // mutable DiskManager.
  storage::DiskManager* writable_disk_ = nullptr;
  wal::WalManager* wal_ = nullptr;
  std::mutex device_mu_;
  std::string policy_spec_;
  bool asb_shared_ = false;
  core::AsbSharedTuning asb_tuning_;
  /// DegradedState of the write path, stored widened so the CAS in
  /// EnterDegraded stays on a plain integer. kHealthy until the first
  /// terminal write-path failure; never goes back.
  std::atomic<uint8_t> degraded_{0};
  std::atomic<uint64_t> degraded_entries_{0};
  // unique_ptr elements: Shard holds a mutex and atomics (immovable), and
  // handles outstanding anywhere keep raw pointers into the shard.
  std::vector<std::unique_ptr<Shard>> shards_;
  // Declared after shards_ so it destructs first: the workers are joined
  // before any shard they might be flushing goes away.
  std::unique_ptr<FlushCoordinator> flusher_;
};

}  // namespace sdb::svc

#endif  // SPATIALBUFFER_SVC_BUFFER_SERVICE_H_

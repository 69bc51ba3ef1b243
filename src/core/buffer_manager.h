#ifndef SPATIALBUFFER_CORE_BUFFER_MANAGER_H_
#define SPATIALBUFFER_CORE_BUFFER_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/access_context.h"
#include "core/frame_sync.h"
#include "core/page_table.h"
#include "core/replacement_policy.h"
#include "core/status.h"
#include "obs/collector.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "wal/wal.h"

namespace sdb::core {

class BufferManager;

/// RAII pin on one buffered page. While a handle is alive the page cannot be
/// evicted; the pin is released on destruction. Obtain handles only from
/// BufferManager::Fetch / ::New.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle() { Release(); }

  bool valid() const { return manager_ != nullptr; }
  storage::PageId page_id() const { return page_id_; }

  /// Whole page image, including the header.
  std::span<std::byte> bytes();
  std::span<const std::byte> bytes() const;

  /// Header accessors over the live frame bytes.
  storage::PageHeaderView header();
  storage::ConstPageHeaderView header() const;

  /// Marks the page dirty; it will be written back before eviction.
  void MarkDirty();

  /// Unpins early (idempotent).
  void Release();

  /// Invalidates the handle WITHOUT unpinning: the caller takes over the
  /// pin and must release it with an explicit BufferManager::Unpin on the
  /// returned frame. For code that manages pin lifetimes manually.
  FrameId Detach();

 private:
  friend class BufferManager;
  PageHandle(BufferManager* manager, FrameId frame, storage::PageId page)
      : manager_(manager), frame_(frame), page_id_(page) {}

  BufferManager* manager_ = nullptr;
  FrameId frame_ = kInvalidFrameId;
  storage::PageId page_id_ = storage::kInvalidPageId;
};

/// Hit/miss and fault accounting of one buffer instance — the only store of
/// these counts; exported snapshots read them through kBufferStatsCounters.
struct BufferStats {
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  /// Dirty victims written back synchronously on the foreground eviction
  /// path while background write-back was enabled — the stalls the flusher
  /// exists to prevent (only counted past the high watermark or when no
  /// clean victim could be found).
  uint64_t sync_writeback_fallbacks = 0;
  uint64_t io_read_retries = 0;        ///< failed read attempts that were retried
  uint64_t io_checksum_mismatches = 0; ///< verify failures (incl. terminal ones)
  uint64_t io_recovered_reads = 0;     ///< fetches that succeeded after >=1 retry
  uint64_t io_permanent_failures = 0;  ///< fetches that failed terminally
  uint64_t io_quarantined_frames = 0;  ///< frames taken out of service
  uint64_t io_write_retries = 0;       ///< failed write-back attempts retried
  uint64_t io_write_quarantined = 0;   ///< frames quarantined for write failure

  double HitRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(requests);
  }
};

/// Every BufferStats counter under its exported metric name.
inline constexpr obs::StatsCounter<BufferStats> kBufferStatsCounters[] = {
    {"buffer.requests", &BufferStats::requests},
    {"buffer.hits", &BufferStats::hits},
    {"buffer.misses", &BufferStats::misses},
    {"buffer.evictions", &BufferStats::evictions},
    {"buffer.dirty_writebacks", &BufferStats::dirty_writebacks},
    {"wal.sync_writeback_fallbacks", &BufferStats::sync_writeback_fallbacks},
    {"io.read_retries", &BufferStats::io_read_retries},
    {"io.checksum_mismatches", &BufferStats::io_checksum_mismatches},
    {"io.recovered_reads", &BufferStats::io_recovered_reads},
    {"io.permanent_failures", &BufferStats::io_permanent_failures},
    {"io.quarantined_frames", &BufferStats::io_quarantined_frames},
    {"io.write_retries", &BufferStats::io_write_retries},
    {"io.write_quarantined", &BufferStats::io_write_quarantined},
};

/// Outcome of an explicit BufferManager::Unpin call. Handle-driven unpins
/// always succeed (the handle owns a pin by construction); manual callers
/// get an explicit error instead of an assertion failure.
enum class UnpinStatus : uint8_t {
  kOk,
  kUnknownFrame,  ///< frame index out of range, or no page resident in it
  kNotPinned,     ///< the frame's pin count is already zero
  kQuarantined,   ///< the frame was quarantined after a terminal read failure
};

/// Outcome of an explicit BufferManager::Evict call. Typed refusals instead
/// of assertions: eviction of a pinned or quarantined frame is an ordinary
/// condition for a caller managing residency explicitly (checkpointers,
/// tests), not a harness bug.
enum class EvictStatus : uint8_t {
  kOk,
  kNotResident,      ///< the page is not in the buffer
  kPinned,           ///< refused: the frame holds live pins
  kQuarantined,      ///< refused: the frame is out of service
  kWriteBackFailed,  ///< the dirty write-back (or its WAL flush) failed
};

/// Fault-handling knobs of one BufferManager. The defaults keep the fault
/// machinery semantically invisible over a healthy device: verification only
/// runs when the device maintains checksums, and retries only trigger on
/// failed reads. Retries follow at once: a simulated device fails
/// deterministically, not because of load.
struct ResilienceOptions {
  /// Verify the CRC-32C of every page read against the device sidecar
  /// (skipped when the device reports no checksum). Detects torn reads and
  /// bit flips before corrupt bytes reach query execution.
  bool verify_checksums = true;
  /// Failed-read retries beyond the first attempt (so a fetch performs at
  /// most 1 + max_read_retries device reads).
  uint32_t max_read_retries = 3;
  /// Failed write-back retries beyond the first attempt, applied only to
  /// retryable device errors. Doubles as the escalation threshold of the
  /// background flusher: a frame whose write-back rounds keep failing past
  /// this count is write-quarantined instead of re-harvested forever.
  uint32_t max_write_retries = 3;
};

/// Concurrency knobs of one BufferManager (EnableConcurrency). Off by
/// default: single-threaded users never pay for any of it.
struct ConcurrentOptions {
  /// Deferred events the buffer may hold, split evenly over its thread
  /// stripes (each stripe rounded up to a power of two). A full stripe falls
  /// back to the exclusive path, so this bounds deferral.
  size_t event_ring_capacity = 1024;
};

/// Background write-back knobs (ConfigureBackgroundWriteback). Disabled by
/// default: eviction then writes dirty victims back synchronously inside
/// the pin path, the pre-flusher behaviour.
struct WritebackOptions {
  /// When on, eviction prefers clean victims while the dirty ratio is at or
  /// below the buffer's high watermark (half the usable frames), leaving
  /// dirty pages to the background flusher; a synchronous foreground
  /// write-back only happens past the high watermark or when no clean
  /// victim exists within 8 skips, counted in
  /// BufferStats::sync_writeback_fallbacks.
  bool enabled = false;
  /// Dirty ratio (dirty frames / usable frames) at or below which the
  /// flusher leaves the pool alone — a small dirty set is free write
  /// combining for re-dirtied pages.
  double low_watermark = 0.10;
};

/// One dirty frame selected by HarvestFlushCandidates for background
/// write-back.
struct DirtyCandidate {
  FrameId frame = kInvalidFrameId;
  storage::PageId page = storage::kInvalidPageId;
  uint64_t rec_lsn = 0;   ///< 1-based recovery LSN at harvest time
  uint64_t page_lsn = 0;  ///< durable-image LSN the write-ahead rule needs
};

/// Source of pinned pages — the interface query execution (the R-tree)
/// traverses through. Implemented by BufferManager (one private,
/// single-threaded buffer: the paper's experimental setup) and by
/// svc::BufferService (one logical buffer sharded across many
/// BufferManagers behind per-shard latches, serving concurrent clients).
class PageSource {
 public:
  virtual ~PageSource() = default;

  /// Returns a pinned handle on the page, reading it from the backing
  /// device on a miss. Non-OK when the page could not be delivered after
  /// bounded retries: kUnavailable/kDataLoss exhausted their retry budget
  /// (now recorded as a permanent failure), kPermanentFailure for bad
  /// sectors, kResourceExhausted when quarantine left no usable frame or
  /// (sharded sources) other clients pin every frame of the page's shard.
  virtual StatusOr<PageHandle> Fetch(storage::PageId page,
                                     const AccessContext& ctx) = 0;

  /// Kept only for perfbench's TimedSource: a sequential Fetch loop.
  virtual void FetchBatch(std::span<const storage::PageId> pages,
                          const AccessContext& ctx,
                          std::vector<StatusOr<PageHandle>>* out);
  /// Kept only for perfbench's TimedSource: always false.
  virtual bool PrefersBatchedReads() const { return false; }
  /// Kept only for perfbench's TimedSource: always 0.
  virtual size_t BatchPinBudget() const { return 0; }

  /// Allocates a fresh zeroed page and pins it. Sources serving read-only
  /// traffic return kUnimplemented.
  virtual StatusOr<PageHandle> New(const AccessContext& ctx) = 0;

  /// Current buffered image of a resident page (empty span if not
  /// resident). Structural inspection only: not an access, and only
  /// meaningful while no concurrent traffic can evict the page.
  virtual std::span<const std::byte> Peek(storage::PageId page) const = 0;

  /// Conveniences for call sites where an I/O error indicates a harness bug
  /// (index builds and replays over a fault-free simulated device): unwrap
  /// or abort with the error text.
  PageHandle FetchOrDie(storage::PageId page, const AccessContext& ctx) {
    return Fetch(page, ctx).ValueOrDie();
  }
  PageHandle NewOrDie(const AccessContext& ctx) {
    return New(ctx).ValueOrDie();
  }
};

/// Page buffer with a pluggable replacement policy — the experimental
/// apparatus of the paper. Frames hold page images read from one
/// PageDevice (a DiskManager or a per-run ReadOnlyDiskView); every miss
/// costs exactly one disk read (plus a write-back if the victim is dirty).
class BufferManager : public FrameMetaSource, public PageSource {
 public:
  /// `frames` is the buffer capacity in pages. The policy is bound to this
  /// buffer and must not be shared. `collector` (optional) receives metrics
  /// and events from this buffer and its policy; it must outlive the buffer
  /// and is attached before the policy binds, so bind-time events (e.g.
  /// ASB's configuration record) are captured.
  BufferManager(storage::PageDevice* disk, size_t frames,
                std::unique_ptr<ReplacementPolicy> policy,
                obs::Collector* collector = nullptr,
                ResilienceOptions resilience = {});
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Returns a pinned handle on the page, reading it from disk on a miss.
  /// Transient read failures and checksum mismatches are retried up to
  /// ResilienceOptions::max_read_retries times; a terminal failure
  /// quarantines the staging frame, remembers the page
  /// as bad (subsequent fetches fail fast without touching the device) and
  /// returns the error.
  StatusOr<PageHandle> Fetch(storage::PageId page,
                             const AccessContext& ctx) override;

  /// Allocates a fresh zeroed page on disk and pins it (no disk read).
  /// Fails with kResourceExhausted when no frame can be freed — quarantine
  /// consumed the evictable pool, or (latch attached) other clients pin
  /// every frame — and with the device's Allocate error (disk full), in
  /// which case the acquired frame returns to the free list. A private
  /// buffer whose caller pinned every frame aborts instead.
  StatusOr<PageHandle> New(const AccessContext& ctx) override;

  /// Installs an externally-allocated, still-zeroed page and pins it —
  /// New() split in two for callers that must route a page to a specific
  /// buffer after allocating it elsewhere (the sharded service allocates on
  /// the shared device, then installs into the page's home shard). The page
  /// must not be resident anywhere. Fails with kResourceExhausted exactly
  /// when New's frame acquisition would; the page is then not installed and
  /// stays allocated on its device.
  StatusOr<PageHandle> NewAt(storage::PageId page, const AccessContext& ctx);

  /// True if the page is currently resident.
  bool Contains(storage::PageId page) const;

  /// Current in-buffer image of a resident page (which may be newer than
  /// the disk copy), or an empty span if the page is not resident. Does not
  /// count as an access and must not be used by query execution.
  std::span<const std::byte> Peek(storage::PageId page) const override;

  /// Releases one pin on `frame`, marking the page dirty first if `dirty`.
  /// Returns an explicit error — instead of asserting — when the frame is
  /// out of range / holds no page (kUnknownFrame) or is not pinned
  /// (kNotPinned); the buffer state is untouched in both error cases.
  /// Acquires the external latch (see set_latch) when one is attached, so
  /// handle releases are safe without the caller holding the shard latch.
  UnpinStatus Unpin(FrameId frame, bool dirty);

  /// Attaches the latch that guards this buffer inside a sharded service
  /// (nullptr detaches). When set, the PageHandle release/MarkDirty paths
  /// acquire it; Fetch/New/Contains/stats callers must hold it themselves
  /// — svc::BufferService is that caller. Single-threaded users never set
  /// this, keeping every hot path latch-free.
  void set_latch(std::mutex* latch) { latch_ = latch; }

  /// Switches this buffer into concurrent mode (call once, before traffic,
  /// with the external latch already attached): allocates the per-frame
  /// version stamps and one deferred-event ring per thread stripe (the
  /// hardware thread count rounded up to a power of two; a thread keeps its
  /// stripe for life). From then on TryOptimisticFetch
  /// may serve hits without the latch, and exclusive sections
  /// (Fetch/Unpin/stats under the latch) drain the stripes first. A
  /// concurrent buffer is a read-only service shard: a WAL or background
  /// write-back attached before or after aborts, and New, NewAt and Evict
  /// are not for it.
  void EnableConcurrency(const ConcurrentOptions& options);
  bool concurrent() const { return concurrent_; }

  /// Latch-free hit path: probes the page table, pins through the frame's
  /// version stamp, and defers the policy/stats bookkeeping into the calling
  /// thread's stripe — the only words it writes besides the pin count.
  /// Returns nullopt — after bounded retries — on a miss, a version
  /// conflict, or a full stripe; the caller then takes the latch and calls
  /// Fetch. Only valid in concurrent mode.
  std::optional<PageHandle> TryOptimisticFetch(storage::PageId page,
                                               const AccessContext& ctx);

  /// Replays the deferred optimistic hit/unpin events into the policy,
  /// stats and collector, stripe by stripe (each in FIFO order), then sets
  /// every frame whose pin edge it applied to evictable iff it has no live
  /// pin: stripes reorder events between threads, so a hit edge may drain
  /// after the unpin edge that ended its pin (a no-op in serial runs).
  /// Callers must hold the external latch. Fetch/New/Unpin drain implicitly;
  /// explicit callers are the service's stats/metrics paths, which must
  /// drain before reading.
  void DrainDeferred();

  /// Optimistic-path counters (concurrent mode; all zero otherwise; read
  /// under the latch). Hits count when their deferred event drains;
  /// retries = optimistic attempts abandoned for any reason; conflicts =
  /// version validations that failed against a concurrent writer.
  uint64_t optimistic_hits() const { return optimistic_hits_; }
  uint64_t optimistic_retries() const {
    return SumStripes(&EventStripe::retries);
  }
  uint64_t version_conflicts() const {
    return SumStripes(&EventStripe::conflicts);
  }

  /// Attaches the write-ahead log (nullptr detaches). From then on the
  /// write-ahead rule holds: no dirty frame reaches the data device before
  /// its after-image is durable in the log — eviction of a logged page
  /// waits for the log flush, and eviction of a dirty-but-unlogged page
  /// forces a steal commit of that single page first. Callers that want
  /// crash consistency without steals must size the buffer so dirty pages
  /// survive until the next Commit/Checkpoint.
  void AttachWal(wal::WalManager* wal);
  wal::WalManager* wal() const { return wal_; }

  /// Logs the after-image of every dirty-and-not-yet-logged frame plus one
  /// commit record as an atomic group and waits for durability. Frames stay
  /// dirty (and resident); they become cheap to evict, since their images
  /// are already in the log. Requires an attached WAL.
  Status Commit(const AccessContext& ctx = {});

  /// Commit, then force every dirty frame to the data device and append a
  /// durable checkpoint record: after this the data device holds exactly
  /// the committed state and recovery replays nothing before the record.
  Status Checkpoint(const AccessContext& ctx = {});

  /// Forces every dirty frame to the data device without evicting it
  /// (honoring the write-ahead rule per frame). The write-back half of
  /// Checkpoint, exposed so a sharded service can interleave one shared
  /// checkpoint record between per-shard forces.
  Status ForceDirty(const AccessContext& ctx = {});

  /// Explicitly evicts one page, writing it back first if dirty (honoring
  /// the write-ahead rule). Refusals are typed, never assertions.
  EvictStatus Evict(storage::PageId page);

  /// Dirty-frame census: resident frames whose bytes differ from the data
  /// device. `min_rec_lsn` is the smallest recovery LSN among them (0 when
  /// none are dirty or no WAL is attached) — the log prefix a redo pass
  /// would need, which sizes the recovery-time-vs-dirty-set bench axis.
  size_t dirty_count() const;
  uint64_t min_rec_lsn() const;

  /// Switches watermark-driven background write-back on or off. Changes
  /// only eviction's victim preference and unlocks the harvest API below —
  /// the flusher threads themselves belong to the owning service.
  void ConfigureBackgroundWriteback(const WritebackOptions& options);
  const WritebackOptions& writeback_options() const { return writeback_; }

  /// O(1) dirty census for watermark math, maintained on every
  /// clean<->dirty edge (dirty_count() scans and is for reporting).
  size_t dirty_frame_count() const { return dirty_frames_; }

  /// Selects up to `max` background-flush candidates: dirty, unpinned,
  /// non-quarantined frames whose current bytes are already logged
  /// (wal_logged) — flushing only those never needs a steal commit, the
  /// flusher's steal-avoidance invariant. Ordered oldest rec_lsn first, so
  /// flushing them advances the checkpoint low-water mark fastest. Caller
  /// holds the external latch. Appends to `out`, returns the count added.
  size_t HarvestFlushCandidates(size_t max, std::vector<DirtyCandidate>* out);

  /// Writes harvested candidates to the data device in ascending page-id
  /// order (write clustering), honoring the write-ahead rule, skipping —
  /// without error — any candidate that was evicted, re-pinned or
  /// re-dirtied past its logged image since the harvest (the page stays
  /// dirty; a later round picks it up). Caller holds the external latch.
  /// Returns the number written back.
  StatusOr<size_t> FlushFrames(std::span<const DirtyCandidate> candidates,
                               const AccessContext& ctx);

  /// The two halves of Commit, exposed so a sharded service can gather
  /// images from every shard (all latches held) into ONE atomic commit
  /// group. CollectDirtyPages appends an image ref (aliasing the frame
  /// bytes — keep the latch!) and the frame id of every dirty, unlogged
  /// frame; MarkFramesCommitted records the group's end LSN on them.
  void CollectDirtyPages(std::vector<wal::PageImageRef>* images,
                         std::vector<FrameId>* frames);
  void MarkFramesCommitted(std::span<const FrameId> frames, uint64_t end_lsn);

  /// Writes back all dirty resident pages (without evicting them). With a
  /// WAL attached this commits first (write-ahead rule), so it degrades to
  /// a checkpoint without the checkpoint record; failures abort — callers
  /// needing a status use Commit/Checkpoint/Evict.
  void FlushAll();

  size_t frame_count() const { return frames_.size(); }
  size_t resident_count() const { return page_table_.size(); }
  storage::PageDevice& disk() { return *disk_; }
  ReplacementPolicy& policy() { return *policy_; }
  const ReplacementPolicy& policy() const { return *policy_; }
  /// The attached observability collector (nullptr = none).
  obs::Collector* collector() const { return obs_; }
  const BufferStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = BufferStats{};
    header_decodes_ = 0;
  }

  /// Frames currently out of service after terminal read failures. They are
  /// never on the free list and never become policy candidates, so the
  /// effective pool is frame_count() - quarantined_count().
  size_t quarantined_count() const { return quarantined_count_; }
  /// Most frames this buffer quarantines before terminally failing reads
  /// start recycling frames instead (a shrinking pool must keep serving):
  /// half the pool. quarantined_count() == quarantine_cap() is the
  /// saturation signal the service's degraded mode watches.
  size_t quarantine_cap() const { return frames_.size() / 2; }

  /// True if `page` previously failed terminally; fetches of it fail fast.
  bool IsBadPage(storage::PageId page) const {
    return bad_pages_.contains(page);
  }
  size_t bad_page_count() const { return bad_pages_.size(); }

  const ResilienceOptions& resilience() const { return resilience_; }

  /// FrameMetaSource: metadata of the page resident in `frame`, served from
  /// the per-frame cache (decoded once per page load / in-place update
  /// instead of once per victim-scan visit).
  storage::PageMeta GetMeta(FrameId frame) const override;

  /// FrameMetaSource: per-frame versions, bumped whenever a frame's cached
  /// metadata may have changed (page load, MarkDirty, dirty unpin).
  const uint64_t* MetaVersionArray() const override {
    return meta_versions_.data();
  }

  /// Header decodes performed on behalf of GetMeta: only re-decodes after
  /// an in-place update (steady-state victim scans decode nothing).
  uint64_t header_decodes() const { return header_decodes_; }

  /// Adds this buffer's metrics view to `registry`: the attached
  /// collector's registry (histograms, gauges, policy counters), then every
  /// BufferStats counter and buffer.header_decodes as absolute values —
  /// the same names whether or not a collector is attached, zero or not.
  /// Deferred optimistic hits count only once drained (the service drains
  /// before exporting a shard).
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  friend class PageHandle;

  struct Frame {
    storage::PageId page = storage::kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool quarantined = false;
    /// The frame's current bytes are logged and committed in the WAL.
    /// Cleared on every (re)dirty; a clean frame's value is meaningless.
    bool wal_logged = false;
    /// End LSN of the newest logged image of this page; the write-ahead
    /// rule makes write-back wait for this prefix to be durable.
    uint64_t page_lsn = 0;
    /// Recovery LSN + 1 (0 = clean): the log position when the frame first
    /// became dirty, i.e. where redo for this page would have to start.
    uint64_t rec_lsn = 0;
    /// Consecutive failed write-back rounds (each round is one bounded
    /// retry loop). Reset on a successful write-back; past
    /// ResilienceOptions::max_write_retries the flusher escalates to
    /// write-quarantine.
    uint32_t write_failures = 0;
  };

  /// Cached decoded header of the resident page; valid iff `version`
  /// matches the frame's current meta version.
  struct MetaCacheEntry {
    storage::PageMeta meta;
    uint64_t version = 0;  ///< 0 = never filled (versions start at 1)
  };

  std::byte* FrameData(FrameId f);
  const std::byte* FrameData(FrameId f) const;

  /// Finds a frame for an incoming page: free list first, else victim
  /// eviction. Returns kResourceExhausted when quarantine has shrunk the
  /// pool to nothing evictable, or when every frame of a latched (service
  /// shard) buffer is pinned — in concurrent mode only after a bounded wait
  /// for deferred unpins. A private buffer with every frame pinned still
  /// aborts (caller bug, exactly the seed behaviour).
  StatusOr<FrameId> AcquireFrame(const AccessContext& ctx,
                                 storage::PageId incoming);

  /// One device read into `frame` plus checksum verification and the
  /// bounded retry loop; on terminal failure quarantines the frame and
  /// records the page as bad. `page` is not yet in the page table.
  Status ReadPageWithRecovery(FrameId frame, storage::PageId page);

  /// Takes `frame` out of service (or recycles it once the quarantine cap
  /// is hit) after a terminal read failure.
  void QuarantineFrame(FrameId frame, storage::PageId page);

  /// Write-side escalation: detaches the (dirty, wal_logged) page from the
  /// tables, pins the redo low-water mark so log truncation cannot drop the
  /// page's only current image, remembers the page as bad, then hands the
  /// frame to QuarantineFrame. Caller holds the latch; the frame has a zero
  /// pin count (and the buffer, having a WAL, is not concurrent).
  void QuarantineWriteFailure(FrameId frame);

  /// Unpin body, latch already held (or no latch attached).
  UnpinStatus UnpinLocked(FrameId frame, bool dirty);

  /// Handle-release fast path: in concurrent mode an atomic decrement plus,
  /// on the 1 -> 0 edge, a deferred event (the handle owns the pin by
  /// construction, so no status to report); otherwise the classic latched
  /// Unpin.
  void ReleasePin(FrameId frame);

  /// Applies one drained event to policy/stats/collector and notes an
  /// applied pin edge for the drain's reconcile (latch held).
  void ApplyDeferred(const DeferredEvent& event);

  /// The concurrent-mode pin-count accessors: frames_[f].pin_count and
  /// sync_[f].pins must agree at every exclusive-section boundary, so all
  /// exclusive-path pin arithmetic funnels through these.
  uint32_t PinCount(FrameId f) const {
    return concurrent_ ? sync_[f].pins.load(std::memory_order_acquire)
                       : frames_[f].pin_count;
  }
  /// Returns the pre-increment count.
  uint32_t PinIncrement(FrameId f) {
    if (concurrent_) return sync_[f].pins.fetch_add(1, std::memory_order_acq_rel);
    return frames_[f].pin_count++;
  }
  /// Returns the pre-decrement count.
  uint32_t PinDecrement(FrameId f) {
    if (concurrent_) return sync_[f].pins.fetch_sub(1, std::memory_order_acq_rel);
    return frames_[f].pin_count--;
  }
  /// Installs `page` into frame `f` after its bytes are in place: page
  /// table, frame fields, pin count 1, meta fill, policy load callback.
  /// In concurrent mode the caller holds the frame's version latch and this
  /// publishes page/pins before the caller unlocks.
  void InstallLoadedPage(FrameId f, storage::PageId page,
                         const AccessContext& ctx, bool dirty);

  /// PageHandle::MarkDirty body: latches, sets the dirty bit and drops the
  /// frame's cached metadata.
  void MarkFrameDirty(FrameId frame);

  /// Dirty-tracking bookkeeping shared by every path that dirties a frame:
  /// sets the bit, invalidates the logged state (the bytes changed since the
  /// last image) and stamps the recovery LSN on the clean->dirty edge.
  void NoteDirtyLocked(FrameId frame);

  /// Writes one dirty frame back to the data device, honoring the
  /// write-ahead rule when a WAL is attached (EnsureDurable for logged
  /// frames, a forced steal commit for unlogged ones). Retryable device
  /// failures are retried up to max_write_retries times.
  /// No-op when clean. `device_write_failed`, when given, is set iff the
  /// returned error came from the data-device write (as opposed to the WAL
  /// half) — the distinction the flusher's quarantine escalation needs.
  Status WriteBackLocked(FrameId frame, const AccessContext& ctx,
                         bool* device_write_failed = nullptr);

  /// Dirty ratio above which eviction stops deferring to the background
  /// flusher and writes dirty victims back itself.
  static constexpr double kHighWatermark = 0.50;
  /// Dirty victims one frame acquisition sets aside while hunting for a
  /// clean victim before it gives up and writes back synchronously.
  static constexpr size_t kMaxCleanScan = 8;

  /// True when the dirty ratio exceeds kHighWatermark.
  bool PastHighWatermark() const {
    const size_t usable = frames_.size() - quarantined_count_;
    if (usable == 0) return true;
    return static_cast<double>(dirty_frames_) >
           kHighWatermark * static_cast<double>(usable);
  }

  /// Marks the frame's cached metadata stale (in-place page update); the
  /// next GetMeta re-decodes the header.
  void InvalidateMeta(FrameId frame) { ++meta_versions_[frame]; }

  /// Decodes the frame's header into the cache under a fresh version (page
  /// just loaded or created).
  void FillMeta(FrameId frame);

  storage::PageDevice* disk_;
  // Write-ahead log (nullptr = read-only use; every WAL touch is guarded).
  wal::WalManager* wal_ = nullptr;
  // External shard latch (nullptr = single-threaded use, no locking).
  std::mutex* latch_ = nullptr;
  std::unique_ptr<ReplacementPolicy> policy_;
  size_t page_size_;
  ResilienceOptions resilience_;
  size_t quarantined_count_ = 0;
  // Pages that failed terminally, with the status code to fail fast with.
  std::unordered_map<storage::PageId, StatusCode> bad_pages_;
  std::unique_ptr<std::byte[]> frame_data_;
  std::vector<Frame> frames_;
  std::vector<FrameId> free_frames_;
  // Resident page -> frame, in every mode; optimistic readers probe it
  // without the latch.
  PageTable page_table_;
  BufferStats stats_;
  // Background write-back state: knobs plus the O(1) dirty census the
  // watermark checks read on every eviction.
  WritebackOptions writeback_;
  size_t dirty_frames_ = 0;
  // The metadata cache proper: entries are re-decoded lazily inside the
  // logically-const GetMeta, hence mutable.
  std::vector<uint64_t> meta_versions_;
  mutable std::vector<MetaCacheEntry> meta_cache_;
  mutable uint64_t header_decodes_ = 0;
  // Observability sink for events, histograms and policy metrics (nullptr
  // = none); the counts themselves live in stats_.
  obs::Collector* obs_ = nullptr;
  // Smallest rec_lsn among write-quarantined pages (0 = none): their only
  // current image lives in the WAL, so min_rec_lsn() — and with it fuzzy
  // checkpoint truncation — must never advance past it.
  uint64_t write_quarantined_rec_lsn_floor_ = 0;
  // --- concurrent mode (EnableConcurrency; all null/false otherwise) ---
  bool concurrent_ = false;
  // One sync word per frame; sized with frames_ at EnableConcurrency.
  std::unique_ptr<FrameSync[]> sync_;
  // One thread stripe: its share of the deferred events plus the counters
  // its threads' latch-free attempts bump, so a hit or unpin writes nothing
  // the whole shard shares.
  struct EventStripe {
    AccessEventRing events;
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> conflicts{0};
  };
  /// The calling thread's stripe.
  EventStripe& OwnStripe();
  uint64_t SumStripes(std::atomic<uint64_t> EventStripe::*counter) const;
  std::unique_ptr<EventStripe[]> stripes_;
  size_t stripe_mask_ = 0;
  // Frames whose pin edge the running drain applied; reconciled at its end.
  std::vector<FrameId> edged_frames_;
  uint64_t optimistic_hits_ = 0;
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_BUFFER_MANAGER_H_

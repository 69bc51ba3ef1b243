#include "core/buffer_manager.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "obs/trace.h"
#include "storage/crc32c.h"

namespace sdb::core {

namespace {
/// splitmix64 finalizer for the backoff jitter.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Concurrent-mode bound on victimless policy scans before AcquireFrame
/// concludes the pool is genuinely exhausted (each scan drains the deferred
/// events and yields, so lagging unpin events get every chance to land).
constexpr size_t kVictimScanLimit = 1u << 16;

/// Optimistic probe retries (after the first attempt) before
/// TryOptimisticFetch gives up and the caller takes the latch.
constexpr uint32_t kMaxOptimisticRetries = 3;

/// Abort message of the read-only-shard invariant (EnableConcurrency).
constexpr char kReadOnlyShard[] = "a concurrent buffer is a read-only shard";

/// This thread's stripe ordinal: handed out in first-use order, kept for the
/// thread's life.
size_t ThreadOrdinal() {
  static std::atomic<size_t> next{0};
  thread_local const size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}
}  // namespace

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = std::exchange(other.manager_, nullptr);
    frame_ = std::exchange(other.frame_, kInvalidFrameId);
    page_id_ = std::exchange(other.page_id_, storage::kInvalidPageId);
  }
  return *this;
}

std::span<std::byte> PageHandle::bytes() {
  SDB_CHECK(valid());
  return {manager_->FrameData(frame_), manager_->page_size_};
}

std::span<const std::byte> PageHandle::bytes() const {
  SDB_CHECK(valid());
  return {manager_->FrameData(frame_), manager_->page_size_};
}

storage::PageHeaderView PageHandle::header() {
  SDB_CHECK(valid());
  return storage::PageHeaderView(manager_->FrameData(frame_));
}

storage::ConstPageHeaderView PageHandle::header() const {
  SDB_CHECK(valid());
  return storage::ConstPageHeaderView(manager_->FrameData(frame_));
}

void PageHandle::MarkDirty() {
  SDB_CHECK(valid());
  manager_->MarkFrameDirty(frame_);
}

void PageHandle::Release() {
  if (manager_ != nullptr) {
    manager_->ReleasePin(frame_);
    manager_ = nullptr;
    frame_ = kInvalidFrameId;
    page_id_ = storage::kInvalidPageId;
  }
}

FrameId PageHandle::Detach() {
  SDB_CHECK(valid());
  const FrameId frame = frame_;
  manager_ = nullptr;
  frame_ = kInvalidFrameId;
  page_id_ = storage::kInvalidPageId;
  return frame;
}

BufferManager::BufferManager(storage::PageDevice* disk, size_t frames,
                             std::unique_ptr<ReplacementPolicy> policy,
                             obs::Collector* collector,
                             ResilienceOptions resilience)
    : disk_(disk),
      policy_(std::move(policy)),
      page_size_(disk->page_size()),
      resilience_(resilience),
      page_table_(frames) {
  SDB_CHECK(disk_ != nullptr);
  SDB_CHECK(policy_ != nullptr);
  SDB_CHECK_MSG(frames > 0, "buffer needs at least one frame");
  quarantine_cap_ = resilience_.max_quarantined_frames != 0
                        ? std::min(resilience_.max_quarantined_frames, frames)
                        : frames / 2;
  obs_ = collector;
  frame_data_ = std::make_unique<std::byte[]>(frames * page_size_);
  frames_.assign(frames, Frame{});
  meta_versions_.assign(frames, 0);
  meta_cache_.assign(frames, MetaCacheEntry{});
  free_frames_.reserve(frames);
  // Hand out low frame ids first (cosmetic; makes traces easier to read).
  for (size_t f = frames; f > 0; --f) {
    free_frames_.push_back(static_cast<FrameId>(f - 1));
  }
  // Collector before Bind so bind-time events (kAsbInit) are captured.
  policy_->SetCollector(obs_);
  policy_->Bind(this, frames);
}

BufferManager::~BufferManager() { FlushAll(); }

StatusOr<PageHandle> BufferManager::Fetch(storage::PageId page,
                                          const AccessContext& ctx) {
  if (concurrent_) DrainDeferred();
  return FetchDrained(page, ctx, nullptr);
}

StatusOr<PageHandle> BufferManager::FetchDrained(storage::PageId page,
                                                 const AccessContext& ctx,
                                                 StagedReads* staged) {
  // Fast-fail on a page that already failed terminally: no device traffic,
  // no frame churn, the caller gets the same terminal code every time.
  if (!bad_pages_.empty()) {
    if (const auto it = bad_pages_.find(page); it != bad_pages_.end()) {
      return Status(it->second, "page previously failed terminally");
    }
  }
  ++stats_.requests;
  if (const FrameId f = page_table_.Lookup(page);
      f != PageTable::kInvalidFrame) {
    ++stats_.hits;
    if (PinIncrement(f) == 0) {
      policy_->SetEvictable(f, false);
    }
    policy_->OnPageAccessed(f, ctx);
    if (obs_ != nullptr) obs_->OnBufferRequest(page, ctx.query_id, true);
    return PageHandle(this, f, page);
  }

  ++stats_.misses;
  if (obs_ != nullptr) obs_->OnBufferRequest(page, ctx.query_id, false);
  StatusOr<FrameId> acquired = AcquireFrame(ctx, page);
  if (!acquired.ok()) return acquired.status();
  const FrameId f = *acquired;
  const Status read = staged != nullptr
                          ? ReadStagedPage(f, page, ctx, *staged)
                          : ReadPageWithRecovery(f, page);
  if (!read.ok()) {
    if (concurrent_) sync_[f].Unlock();
    return read;
  }
  InstallLoadedPage(f, page, ctx, /*dirty=*/false);
  if (concurrent_) sync_[f].Unlock();
  return PageHandle(this, f, page);
}

StatusOr<PageHandle> BufferManager::New(const AccessContext& ctx) {
  SDB_DCHECK(!concurrent_);
  ++stats_.requests;
  ++stats_.misses;  // a new page is never a hit
  StatusOr<FrameId> acquired = AcquireFrame(ctx, storage::kInvalidPageId);
  if (!acquired.ok()) return acquired.status();
  const FrameId f = *acquired;
  const StatusOr<storage::PageId> allocated = disk_->Allocate();
  if (!allocated.ok()) {
    // Disk-full backpressure: hand the acquired frame back and surface the
    // status — the caller's New fails, the pool (and its resident pages)
    // stays intact and keeps serving reads.
    free_frames_.push_back(f);
    return allocated.status();
  }
  const storage::PageId page = *allocated;
  if (obs_ != nullptr) obs_->OnBufferRequest(page, ctx.query_id, false);
  std::memset(FrameData(f), 0, page_size_);
  InstallLoadedPage(f, page, ctx,
                    /*dirty=*/true);  // must reach disk even if never modified
  return PageHandle(this, f, page);
}

StatusOr<PageHandle> BufferManager::NewAt(storage::PageId page,
                                          const AccessContext& ctx) {
  SDB_DCHECK(!concurrent_);
  SDB_CHECK_MSG(!page_table_.Contains(page), "NewAt of a resident page");
  ++stats_.requests;
  ++stats_.misses;
  StatusOr<FrameId> acquired = AcquireFrame(ctx, page);
  if (!acquired.ok()) return acquired.status();
  if (obs_ != nullptr) obs_->OnBufferRequest(page, ctx.query_id, false);
  const FrameId f = *acquired;
  std::memset(FrameData(f), 0, page_size_);
  InstallLoadedPage(f, page, ctx, /*dirty=*/true);
  return PageHandle(this, f, page);
}

void BufferManager::InstallLoadedPage(FrameId f, storage::PageId page,
                                      const AccessContext& ctx, bool dirty) {
  Frame& frame = frames_[f];
  frame.page = page;
  frame.dirty = dirty;
  if (dirty) ++dirty_frames_;  // frames outside the page table are clean
  frame.wal_logged = false;
  frame.page_lsn = 0;
  frame.rec_lsn =
      (dirty && wal_ != nullptr) ? wal_->next_lsn() + 1 : 0;
  if (concurrent_) sync_[f].page.store(page, std::memory_order_release);
  page_table_.Insert(page, f);
  // fetch_add, not a store: a doomed optimistic pin (one that will fail its
  // validation and undo itself) may be in flight on this frame, and a plain
  // store would erase its +1 before the matching -1 lands.
  PinIncrement(f);
  FillMeta(f);
  policy_->OnPageLoaded(f, page, ctx);
}

bool BufferManager::Contains(storage::PageId page) const {
  return page_table_.Contains(page);
}

std::span<const std::byte> BufferManager::Peek(storage::PageId page) const {
  const FrameId f = page_table_.Lookup(page);
  if (f == PageTable::kInvalidFrame) return {};
  return {FrameData(f), page_size_};
}

void BufferManager::FlushAll() {
  if (wal_ != nullptr && dirty_count() > 0) {
    const Status committed = Commit();
    if (!committed.ok()) {
      // A log that cannot commit (sticky WAL error, full log device) means
      // these frames can never be made durable under the write-ahead rule.
      // Nothing here was acknowledged to a caller, so dropping the frames
      // loses nothing that was promised — while aborting would turn a
      // degraded service into a crash at shutdown.
      return;
    }
  }
  for (FrameId f = 0; f < frames_.size(); ++f) {
    Frame& frame = frames_[f];
    if (frame.page != storage::kInvalidPageId && frame.dirty) {
      // Best-effort: a frame whose device refuses the write stays dirty and
      // is dropped with the pool. Its committed image lives in the log and
      // recovery replays it; quarantine bookkeeping already counted it.
      (void)WriteBackLocked(f, AccessContext{});
    }
  }
}

storage::PageMeta BufferManager::GetMeta(FrameId frame) const {
  SDB_DCHECK(frame < frames_.size());
  SDB_DCHECK(frames_[frame].page != storage::kInvalidPageId);
  MetaCacheEntry& entry = meta_cache_[frame];
  if (entry.version != meta_versions_[frame]) {
    entry.meta = storage::ConstPageHeaderView(FrameData(frame)).ToMeta();
    entry.version = meta_versions_[frame];
    ++header_decodes_;
  }
  return entry.meta;
}

void BufferManager::FillMeta(FrameId f) {
  // Eager decode at load time: one 64-byte decode per miss keeps every
  // subsequent victim-scan GetMeta a pure array read (0 decodes per
  // eviction in steady state). Not counted in header_decodes(), which
  // tracks decodes performed to *serve* GetMeta.
  ++meta_versions_[f];
  MetaCacheEntry& entry = meta_cache_[f];
  entry.meta = storage::ConstPageHeaderView(FrameData(f)).ToMeta();
  entry.version = meta_versions_[f];
}

std::byte* BufferManager::FrameData(FrameId f) {
  return frame_data_.get() + static_cast<size_t>(f) * page_size_;
}

const std::byte* BufferManager::FrameData(FrameId f) const {
  return frame_data_.get() + static_cast<size_t>(f) * page_size_;
}

StatusOr<FrameId> BufferManager::AcquireFrame(const AccessContext& ctx,
                                              storage::PageId incoming) {
  if (!free_frames_.empty()) {
    const FrameId f = free_frames_.back();
    free_frames_.pop_back();
    // A free frame is invisible to optimistic readers (never in the page
    // table), but locking it anyway gives the caller one uniform
    // unlock-publishes-the-bytes protocol.
    if (concurrent_) sync_[f].Lock();
    return f;
  }
  // Bound on no-victim retries in concurrent mode: deferred unpin events
  // can lag the atomic pin counts, so a transiently victimless policy view
  // is drained and re-scanned before the pool is declared exhausted.
  size_t starved_scans = 0;
  // Clean-victim preference: with background write-back enabled and the
  // pool at or below the high watermark, dirty victims are set aside
  // (temporarily unevictable) so the flusher — not the foreground pin
  // path — pays for their device writes.
  std::vector<FrameId> dirty_skipped;
  const auto restore_skipped = [&] {
    for (const FrameId skipped : dirty_skipped) {
      if (frames_[skipped].page != storage::kInvalidPageId &&
          !frames_[skipped].quarantined && PinCount(skipped) == 0) {
        policy_->SetEvictable(skipped, true);
      }
    }
    dirty_skipped.clear();
  };
  bool prefer_clean = writeback_.enabled && !PastHighWatermark();
  for (;;) {
    const std::optional<FrameId> victim = policy_->ChooseVictim(ctx, incoming);
    if (!victim.has_value()) {
      if (!dirty_skipped.empty()) {
        // Everything the policy had left was a dirty frame we set aside:
        // restore the flags and accept a dirty victim after all.
        restore_skipped();
        prefer_clean = false;
        continue;
      }
      if (concurrent_ && ++starved_scans < kVictimScanLimit) {
        DrainDeferred();
        if (starved_scans > 1) {
          // Draining alone did not produce a victim, so heal event-less
          // flag staleness: an aborted optimistic pin (+1 undone by -1,
          // no event) can leave an unpinned frame marked unevictable. By
          // the eager protocol any live-unpinned frame is evictable, and
          // the eviction path re-checks live pins under the frame lock, so
          // over-marking here is safe.
          for (FrameId swept = 0; swept < frames_.size(); ++swept) {
            if (frames_[swept].page != storage::kInvalidPageId &&
                !frames_[swept].quarantined && PinCount(swept) == 0) {
              policy_->SetEvictable(swept, true);
            }
          }
        }
        std::this_thread::yield();
        continue;
      }
      // A private buffer with no victim means its one caller pinned
      // everything — a harness bug, and the seed's abort contract. A service
      // shard (latch attached) is different: clients that together hold
      // every pin reach this legitimately, and so does a pool shrunk by
      // quarantine. Both are operational conditions the caller must survive.
      SDB_CHECK_MSG(latch_ != nullptr || quarantined_count_ > 0,
                    "no evictable frame: all pages are pinned");
      return Status::ResourceExhausted(
          quarantined_count_ > 0
              ? "no evictable frame: pool shrunk by quarantine"
              : "no evictable frame: all pages are pinned");
    }
    const FrameId f = *victim;
    Frame& frame = frames_[f];
    if (concurrent_) {
      sync_[f].Lock();
      if (sync_[f].pins.load(std::memory_order_acquire) != 0) {
        // The policy's evictable flag lagged a live optimistic pin (its
        // deferred event is still in flight). Correct the flag, release the
        // frame and rescan — the pin count is the authority.
        sync_[f].Unlock();
        policy_->SetEvictable(f, false);
        OwnStripe().conflicts.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    } else {
      SDB_CHECK_MSG(frame.pin_count == 0, "policy evicted a pinned page");
    }
    SDB_CHECK(frame.page != storage::kInvalidPageId);
    if (prefer_clean && frame.dirty &&
        dirty_skipped.size() < writeback_.max_clean_scan) {
      policy_->SetEvictable(f, false);
      dirty_skipped.push_back(f);
      continue;
    }
    const bool was_dirty = frame.dirty;
    if (frame.dirty) {
      if (writeback_.enabled) {
        // The flusher should have cleaned this frame before eviction
        // reached it — a synchronous foreground write is the fallback the
        // watermark bench gates on.
        ++stats_.sync_writeback_fallbacks;
      }
      if (Status written = WriteBackLocked(f, ctx); !written.ok()) {
        // The victim keeps its bytes and residency; the fetch that wanted
        // the frame fails instead of evicting a page the device refused (a
        // read-only shard refuses every write a client's MarkDirty causes).
        if (concurrent_) sync_[f].Unlock();
        restore_skipped();
        return written;
      }
    }
    ++stats_.evictions;
    if (obs_ != nullptr) {
      obs::Event event;
      event.kind = obs::EventKind::kEviction;
      event.flag = was_dirty;
      event.frame = f;
      event.query = ctx.query_id;
      event.page = frame.page;
      obs_->events().Push(event);
    }
    page_table_.Erase(frame.page);
    if (concurrent_) {
      sync_[f].page.store(storage::kInvalidPageId, std::memory_order_release);
    }
    policy_->OnPageEvicted(f, frame.page);
    frame.page = storage::kInvalidPageId;
    restore_skipped();
    // In concurrent mode the frame stays version-locked: the caller fills
    // the bytes and unlocks, which is what publishes them to readers.
    return f;
  }
}

Status BufferManager::ReadPageWithRecovery(FrameId f, storage::PageId page) {
  return FinishReadWithRecovery(
      f, page, disk_->Read(page, {FrameData(f), page_size_}));
}

Status BufferManager::ReadStagedPage(FrameId f, storage::PageId page,
                                     const AccessContext& ctx,
                                     StagedReads& staged) {
  const auto slot = staged.slot.find(page);
  if (slot == staged.slot.end()) return ReadPageWithRecovery(f, page);
  // The complete span covers the harvest-until-this-page poll loop plus the
  // staging copy and checksum verify — the whole wait for the device.
  obs::ScopedSpan complete_span(ctx.span, obs::SpanKind::kAsyncComplete);
  complete_span.set_page(page);
  while (!staged.completed.contains(page) && async_device_->in_flight() > 0) {
    staged.completions.clear();
    async_device_->PollCompletions(&staged.completions, 1);
    for (const auto& completion : staged.completions) {
      staged.completed.emplace(completion.page, completion.status);
    }
  }
  const auto done = staged.completed.find(page);
  if (done == staged.completed.end()) return ReadPageWithRecovery(f, page);
  complete_span.set_flag(true);
  std::memcpy(FrameData(f), staging_.get() + slot->second * page_size_,
              page_size_);
  return FinishReadWithRecovery(f, page, done->second);
}

Status BufferManager::FinishReadWithRecovery(FrameId f, storage::PageId page,
                                             Status status) {
  uint32_t failures = 0;
  while (true) {
    if (status.ok() && resilience_.verify_checksums) {
      if (const std::optional<uint32_t> expected = disk_->PageChecksum(page)) {
        const uint32_t actual =
            storage::crc32c::Checksum({FrameData(f), page_size_});
        if (actual != *expected) {
          status = Status::DataLoss("page checksum mismatch");
          ++stats_.io_checksum_mismatches;
        }
      }
    }
    if (status.ok()) {
      if (failures > 0) {
        ++stats_.io_recovered_reads;
        if (obs_ != nullptr) {
          obs::Event event;
          event.kind = obs::EventKind::kIoRecovered;
          event.frame = f;
          event.page = page;
          event.a = failures;
          obs_->events().Push(event);
        }
      }
      return status;
    }
    if (obs_ != nullptr) {
      obs::Event event;
      event.kind = obs::EventKind::kIoFault;
      event.flag = status.retryable();
      event.frame = f;
      event.page = page;
      event.a = failures;
      event.b = static_cast<uint64_t>(status.code());
      obs_->events().Push(event);
    }
    if (!status.retryable() || failures >= resilience_.max_read_retries) {
      ++stats_.io_permanent_failures;
      bad_pages_.emplace(page, status.code());
      QuarantineFrame(f, page);
      return status;
    }
    ++failures;
    ++stats_.io_read_retries;
    BackoffBeforeRetry(failures, page);
    status = disk_->Read(page, {FrameData(f), page_size_});
  }
}

void BufferManager::QuarantineFrame(FrameId f, storage::PageId page) {
  Frame& frame = frames_[f];
  SDB_DCHECK(frame.page == storage::kInvalidPageId);
  SDB_DCHECK(PinCount(f) == 0);
  if (quarantined_count_ < quarantine_cap_) {
    // Out of service: not on the free list, page invalid, so the policies
    // (which only rank valid frames) never see it again and ASB's candidate
    // set adapts over the shrunken pool.
    frame.quarantined = true;
    ++quarantined_count_;
    ++stats_.io_quarantined_frames;
    if (obs_ != nullptr) {
      obs::Event event;
      event.kind = obs::EventKind::kFrameQuarantined;
      event.frame = f;
      event.page = page;
      event.a = quarantined_count_;
      obs_->events().Push(event);
    }
    return;
  }
  // Cap reached: the frame itself is not the failure in this fault model
  // (the device is), so recycle it — a pool that kept shrinking would turn
  // one noisy device region into a self-inflicted outage.
  std::memset(FrameData(f), 0, page_size_);
  free_frames_.push_back(f);
}

void BufferManager::QuarantineWriteFailure(FrameId f) {
  Frame& frame = frames_[f];
  const storage::PageId page = frame.page;
  SDB_DCHECK(page != storage::kInvalidPageId);
  SDB_DCHECK(frame.dirty);
  // The page's only current image is its committed WAL record now — the
  // device copy is stale and the device refuses updates. Pin the redo
  // low-water mark so fuzzy-checkpoint truncation can never reclaim that
  // record, and remember the page as bad so the stale device copy is never
  // served to a reader. Recovery (which replays the WAL onto the device
  // region that works, or a replacement) is the only way the page comes
  // back.
  if (frame.rec_lsn != 0 && (write_quarantined_rec_lsn_floor_ == 0 ||
                             frame.rec_lsn < write_quarantined_rec_lsn_floor_)) {
    write_quarantined_rec_lsn_floor_ = frame.rec_lsn;
  }
  bad_pages_.emplace(page, StatusCode::kPermanentFailure);
  page_table_.Erase(page);
  policy_->OnPageEvicted(f, page);
  SDB_DCHECK(dirty_frames_ > 0);
  --dirty_frames_;
  frame.dirty = false;
  frame.wal_logged = false;
  frame.page_lsn = 0;
  frame.rec_lsn = 0;
  frame.write_failures = 0;
  frame.page = storage::kInvalidPageId;
  ++stats_.io_write_quarantined;
  QuarantineFrame(f, page);
}

void BufferManager::BackoffBeforeRetry(uint32_t failures,
                                       storage::PageId page) {
  if (resilience_.backoff_base_us == 0) return;
  // Exponential with full-range deterministic jitter: delay in
  // [base * 2^(n-1) / 2, base * 2^(n-1)], capped at 64x base so a deep
  // retry chain cannot stall a shard for long.
  const uint32_t exp = std::min(failures - 1, 6u);
  const uint64_t ceiling =
      static_cast<uint64_t>(resilience_.backoff_base_us) << exp;
  const uint64_t jitter =
      Mix64(resilience_.backoff_seed ^ Mix64(page) ^ failures) %
      (ceiling / 2 + 1);
  std::this_thread::sleep_for(
      std::chrono::microseconds(ceiling - jitter));
}

void BufferManager::ExportMetrics(obs::MetricsRegistry* registry) const {
  if (obs_ != nullptr) registry->Merge(obs_->metrics().Snapshot());
  obs::AddStatsCounters(kBufferStatsCounters, stats_, registry);
  registry->GetCounter("buffer.header_decodes")->Add(header_decodes_);
}

UnpinStatus BufferManager::Unpin(FrameId f, bool dirty) {
  if (latch_ == nullptr) {
    if (concurrent_) DrainDeferred();
    return UnpinLocked(f, dirty);
  }
  std::lock_guard<std::mutex> lock(*latch_);
  if (concurrent_) DrainDeferred();
  return UnpinLocked(f, dirty);
}

UnpinStatus BufferManager::UnpinLocked(FrameId f, bool dirty) {
  if (f >= frames_.size()) return UnpinStatus::kUnknownFrame;
  if (frames_[f].quarantined) return UnpinStatus::kQuarantined;
  if (frames_[f].page == storage::kInvalidPageId) {
    return UnpinStatus::kUnknownFrame;
  }
  if (PinCount(f) == 0) return UnpinStatus::kNotPinned;
  if (dirty) {
    NoteDirtyLocked(f);
    InvalidateMeta(f);
  }
  if (PinDecrement(f) == 1) {
    policy_->SetEvictable(f, true);
  }
  return UnpinStatus::kOk;
}

void BufferManager::ReleasePin(FrameId f) {
  if (!concurrent_) {
    const UnpinStatus status = Unpin(f, /*dirty=*/false);
    SDB_CHECK_MSG(status == UnpinStatus::kOk,
                  "handle released a frame it no longer pins");
    return;
  }
  // Latch-free release: the handle owns a pin by construction, so the
  // decrement cannot fail, and holding that pin until here means the
  // frame's page cannot have changed since the fetch.
  const storage::PageId page = sync_[f].page.load(std::memory_order_acquire);
  const uint32_t prev = sync_[f].pins.fetch_sub(1, std::memory_order_acq_rel);
  SDB_DCHECK(prev > 0);
  // Only the 1 -> 0 edge changes what the policy sees.
  if (prev != 1) return;
  DeferredEvent event;
  event.frame = f;
  event.page = page;
  event.kind = DeferredEvent::Kind::kUnpin;
  event.edge = true;
  AccessEventRing& events = OwnStripe().events;
  if (events.TryPush(event)) return;
  // Stripe full: drain under the latch to make room; the event then queues
  // behind this thread's earlier ones, so their order stays FIFO.
  const auto drain_and_push = [&] {
    do {
      DrainDeferred();
    } while (!events.TryPush(event));
  };
  if (latch_ == nullptr) {
    drain_and_push();
  } else {
    std::lock_guard<std::mutex> lock(*latch_);
    drain_and_push();
  }
}

void BufferManager::MarkFrameDirty(FrameId f) {
  const auto mark = [&] {
    NoteDirtyLocked(f);
    // The page bytes may have been rewritten in place; drop the cached
    // header so the replacement policies re-rank the page with its current
    // values.
    InvalidateMeta(f);
  };
  if (latch_ == nullptr) {
    mark();
    return;
  }
  std::lock_guard<std::mutex> lock(*latch_);
  mark();
}

void BufferManager::NoteDirtyLocked(FrameId f) {
  Frame& frame = frames_[f];
  if (!frame.dirty) ++dirty_frames_;
  frame.dirty = true;
  // Any committed image of this page is stale now; the next commit (or a
  // forced steal at eviction) must re-log the bytes.
  frame.wal_logged = false;
  if (wal_ != nullptr && frame.rec_lsn == 0) {
    frame.rec_lsn = wal_->next_lsn() + 1;  // stored 1-based; 0 means clean
  }
}

Status BufferManager::WriteBackLocked(FrameId f, const AccessContext& ctx,
                                      bool* device_write_failed) {
  Frame& frame = frames_[f];
  if (!frame.dirty) return Status::Ok();
  if (wal_ != nullptr) {
    if (!frame.wal_logged) {
      // Steal of an uncommitted page: commit this one image atomically so
      // the WAL rule (no data-device write without a durable log image)
      // holds. With no undo log the image becomes visible to recovery, which
      // is the documented no-rollback caveat of the redo-only design.
      const wal::PageImageRef image{frame.page, {FrameData(f), page_size_}};
      StatusOr<wal::Lsn> end = wal_->CommitPages(
          {&image, 1}, disk_->page_count(), ctx, /*forced_steal=*/true);
      if (!end.ok()) return end.status();
      frame.page_lsn = *end;
      frame.wal_logged = true;
    }
    if (Status durable = wal_->EnsureDurable(frame.page_lsn); !durable.ok()) {
      return durable;
    }
  }
  // Bounded retry of the data-device write, mirroring the read path:
  // transient faults clear on a fresh draw, everything else fails through.
  Status written = disk_->Write(frame.page, {FrameData(f), page_size_});
  uint32_t failures = 0;
  while (!written.ok() && written.retryable() &&
         failures < resilience_.max_write_retries) {
    ++failures;
    ++stats_.io_write_retries;
    BackoffBeforeRetry(failures, frame.page);
    written = disk_->Write(frame.page, {FrameData(f), page_size_});
  }
  if (!written.ok()) {
    if (device_write_failed != nullptr) *device_write_failed = true;
    return written;
  }
  frame.write_failures = 0;
  frame.dirty = false;
  SDB_DCHECK(dirty_frames_ > 0);
  --dirty_frames_;
  frame.rec_lsn = 0;
  ++stats_.dirty_writebacks;
  return Status::Ok();
}

Status BufferManager::Commit(const AccessContext& ctx) {
  if (wal_ == nullptr) {
    return Status::Unimplemented("no write-ahead log attached");
  }
  std::vector<wal::PageImageRef> images;
  std::vector<FrameId> dirty;
  CollectDirtyPages(&images, &dirty);
  StatusOr<wal::Lsn> end =
      wal_->CommitPages(images, disk_->page_count(), ctx);
  if (!end.ok()) return end.status();
  MarkFramesCommitted(dirty, *end);
  return Status::Ok();
}

Status BufferManager::Checkpoint(const AccessContext& ctx) {
  if (wal_ == nullptr) {
    return Status::Unimplemented("no write-ahead log attached");
  }
  if (Status committed = Commit(ctx); !committed.ok()) return committed;
  if (Status forced = ForceDirty(ctx); !forced.ok()) return forced;
  StatusOr<wal::Lsn> end = wal_->AppendCheckpoint(disk_->page_count(), ctx);
  return end.ok() ? Status::Ok() : end.status();
}

Status BufferManager::ForceDirty(const AccessContext& ctx) {
  for (FrameId f = 0; f < frames_.size(); ++f) {
    if (frames_[f].page == storage::kInvalidPageId || !frames_[f].dirty) {
      continue;
    }
    if (Status written = WriteBackLocked(f, ctx); !written.ok()) {
      return written;
    }
  }
  return Status::Ok();
}

EvictStatus BufferManager::Evict(storage::PageId page) {
  SDB_DCHECK(!concurrent_);
  const FrameId f = page_table_.Lookup(page);
  if (f == PageTable::kInvalidFrame) return EvictStatus::kNotResident;
  Frame& frame = frames_[f];
  if (frame.quarantined) return EvictStatus::kQuarantined;
  if (frame.pin_count != 0) return EvictStatus::kPinned;
  if (frame.dirty && !WriteBackLocked(f, AccessContext{}).ok()) {
    return EvictStatus::kWriteBackFailed;
  }
  ++stats_.evictions;
  page_table_.Erase(frame.page);
  policy_->OnPageEvicted(f, frame.page);
  frame.page = storage::kInvalidPageId;
  free_frames_.push_back(f);
  return EvictStatus::kOk;
}

size_t BufferManager::dirty_count() const {
  size_t dirty = 0;
  for (const Frame& frame : frames_) {
    if (frame.page != storage::kInvalidPageId && frame.dirty) ++dirty;
  }
  return dirty;
}

uint64_t BufferManager::min_rec_lsn() const {
  // Seeded with the write-quarantine floor: a quarantined page's only
  // current image is in the WAL, so truncation must keep its records.
  uint64_t min_lsn = write_quarantined_rec_lsn_floor_;
  for (const Frame& frame : frames_) {
    if (frame.page == storage::kInvalidPageId || !frame.dirty ||
        frame.rec_lsn == 0) {
      continue;
    }
    if (min_lsn == 0 || frame.rec_lsn < min_lsn) min_lsn = frame.rec_lsn;
  }
  return min_lsn;
}

void BufferManager::CollectDirtyPages(std::vector<wal::PageImageRef>* images,
                                      std::vector<FrameId>* frames) {
  for (FrameId f = 0; f < frames_.size(); ++f) {
    const Frame& frame = frames_[f];
    // wal_logged dirty frames already have their current bytes in a
    // committed image (dirty only survives commit until write-back), so
    // re-imaging them would bloat the log with duplicates.
    if (frame.page == storage::kInvalidPageId || !frame.dirty ||
        frame.wal_logged) {
      continue;
    }
    images->push_back(
        wal::PageImageRef{frame.page, {FrameData(f), page_size_}});
    frames->push_back(f);
  }
}

void BufferManager::MarkFramesCommitted(std::span<const FrameId> frames,
                                        uint64_t end_lsn) {
  for (const FrameId f : frames) {
    Frame& frame = frames_[f];
    frame.wal_logged = true;
    frame.page_lsn = end_lsn;
  }
}

void BufferManager::AttachWal(wal::WalManager* wal) {
  SDB_CHECK_MSG(wal == nullptr || !concurrent_, kReadOnlyShard);
  wal_ = wal;
}

void BufferManager::ConfigureBackgroundWriteback(
    const WritebackOptions& options) {
  SDB_CHECK_MSG(
      !options.enabled || options.low_watermark <= options.high_watermark,
      "low watermark must not exceed the high watermark");
  SDB_CHECK_MSG(!options.enabled || !concurrent_, kReadOnlyShard);
  writeback_ = options;
}

size_t BufferManager::HarvestFlushCandidates(size_t max,
                                             std::vector<DirtyCandidate>* out) {
  const size_t before = out->size();
  for (FrameId f = 0; f < frames_.size(); ++f) {
    const Frame& frame = frames_[f];
    // Only wal_logged frames qualify: their current bytes already sit in a
    // durable committed image, so flushing them never forces a steal commit
    // (the flusher's steal-avoidance invariant) and never blocks on the log.
    if (frame.page == storage::kInvalidPageId || !frame.dirty ||
        frame.quarantined || !frame.wal_logged || frame.pin_count != 0) {
      continue;
    }
    out->push_back(
        DirtyCandidate{f, frame.page, frame.rec_lsn, frame.page_lsn});
  }
  // Oldest rec_lsn first: flushing those frames lifts the checkpoint
  // low-water mark (and thus how much log truncation can reclaim) fastest.
  std::sort(out->begin() + before, out->end(),
            [](const DirtyCandidate& a, const DirtyCandidate& b) {
              return a.rec_lsn != b.rec_lsn ? a.rec_lsn < b.rec_lsn
                                            : a.page < b.page;
            });
  if (out->size() - before > max) out->resize(before + max);
  return out->size() - before;
}

StatusOr<size_t> BufferManager::FlushFrames(
    std::span<const DirtyCandidate> candidates, const AccessContext& ctx) {
  // Device writes go out in ascending page-id order so adjacent dirty pages
  // coalesce into sequential device writes (write clustering) regardless of
  // the rec_lsn order the harvest selected them in.
  std::vector<DirtyCandidate> ordered(candidates.begin(), candidates.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const DirtyCandidate& a, const DirtyCandidate& b) {
              return a.page < b.page;
            });
  size_t flushed = 0;
  for (const DirtyCandidate& candidate : ordered) {
    const FrameId f = candidate.frame;
    Frame& frame = frames_[f];
    // Re-validate: the frame may have been evicted, re-pinned, or re-dirtied
    // past its logged image (wal_logged cleared) since the harvest. Skipping
    // is always safe — the page stays dirty and a later round, a commit, or
    // the eviction fallback picks it up.
    if (frame.page != candidate.page || !frame.dirty || !frame.wal_logged ||
        frame.quarantined || frame.pin_count != 0) {
      continue;
    }
    bool device_write_failed = false;
    const Status written = WriteBackLocked(f, ctx, &device_write_failed);
    if (!written.ok() && device_write_failed) {
      // The WAL half succeeded (the current bytes sit in a durable image);
      // only the data device refuses this page. A permanent refusal — or a
      // transient one that keeps exhausting whole retry rounds — escalates
      // to write-quarantine, otherwise the coordinator's next round (after
      // its backoff) retries the same frame.
      ++frame.write_failures;
      if (!written.retryable() ||
          frame.write_failures > resilience_.max_write_retries) {
        QuarantineWriteFailure(f);
        continue;  // the page is absorbed, keep flushing the rest
      }
    }
    if (!written.ok()) return written;
    ++flushed;
  }
  return flushed;
}

void BufferManager::EnableConcurrency(const ConcurrentOptions& options) {
  SDB_CHECK_MSG(!concurrent_, "EnableConcurrency is one-shot");
  SDB_CHECK_MSG(page_table_.size() == 0 && stats_.requests == 0,
                "enable concurrency before traffic");
  SDB_CHECK_MSG(wal_ == nullptr && !writeback_.enabled, kReadOnlyShard);
  sync_ = std::make_unique<FrameSync[]>(frames_.size());
  const size_t stripes =
      std::bit_ceil(std::max(1u, std::thread::hardware_concurrency()));
  stripes_ = std::make_unique<EventStripe[]>(stripes);
  for (size_t s = 0; s < stripes; ++s) {
    stripes_[s].events.Allocate(options.event_ring_capacity / stripes);
  }
  stripe_mask_ = stripes - 1;
  edged_frames_.reserve(options.event_ring_capacity);
  storage::AsyncDeviceOptions async = options.async;
  async.queue_depth = std::clamp<size_t>(async.queue_depth, 1, frames_.size());
  async_device_ = std::make_unique<storage::AsyncPageDevice>(disk_, async);
  staging_ = std::make_unique<std::byte[]>(async.queue_depth * page_size_);
  concurrent_ = true;
}

std::optional<PageHandle> BufferManager::TryOptimisticFetch(
    storage::PageId page, const AccessContext& ctx) {
  SDB_DCHECK(concurrent_);
  EventStripe& stripe = OwnStripe();
  for (uint32_t attempt = 0; attempt <= kMaxOptimisticRetries; ++attempt) {
    if (attempt > 0) stripe.retries.fetch_add(1, std::memory_order_relaxed);
    const uint64_t table_version = page_table_.version();
    const uint32_t f = page_table_.Lookup(page);
    if (f == PageTable::kInvalidFrame) {
      if (page_table_.version() != table_version) {
        // The probe raced a mutation; "not found" can't be trusted.
        stripe.conflicts.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return std::nullopt;  // genuine miss: the latched path loads it
    }
    FrameSync& sync = sync_[f];
    const uint64_t version = sync.version.load(std::memory_order_acquire);
    if ((version & 1) != 0 ||
        sync.page.load(std::memory_order_acquire) != page) {
      stripe.conflicts.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Pin-then-validate: either the pin lands before an evictor samples the
    // pin count (the evictor then skips this frame), or the evictor locked
    // first and the re-validation below fails before any byte is exposed.
    const uint32_t prev = sync.pins.fetch_add(1, std::memory_order_acq_rel);
    if (sync.version.load(std::memory_order_acquire) != version) {
      sync.pins.fetch_sub(1, std::memory_order_acq_rel);
      stripe.conflicts.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    DeferredEvent event;
    event.frame = f;
    event.page = page;
    event.query = ctx.query_id;
    event.kind = DeferredEvent::Kind::kHit;
    event.edge = prev == 0;
    if (!stripe.events.TryPush(event)) {
      // Stripe full: undo and let the latched path do this hit eagerly (it
      // drains the stripes first, which is what makes room again).
      sync.pins.fetch_sub(1, std::memory_order_acq_rel);
      stripe.retries.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    return PageHandle(this, f, page);
  }
  return std::nullopt;
}

BufferManager::EventStripe& BufferManager::OwnStripe() {
  return stripes_[ThreadOrdinal() & stripe_mask_];
}

uint64_t BufferManager::SumStripes(
    std::atomic<uint64_t> EventStripe::*counter) const {
  uint64_t sum = 0;
  if (concurrent_) {
    for (size_t s = 0; s <= stripe_mask_; ++s) {
      sum += (stripes_[s].*counter).load(std::memory_order_relaxed);
    }
  }
  return sum;
}

void BufferManager::DrainDeferred() {
  if (!concurrent_) return;
  DeferredEvent event;
  for (size_t s = 0; s <= stripe_mask_; ++s) {
    while (stripes_[s].events.TryPop(&event)) ApplyDeferred(event);
  }
  // Stripes reorder events between threads, so a frame's hit edge may have
  // drained after the unpin edge that ended its pin: the live pin count
  // settles the flag (in serial runs it already agrees).
  for (const FrameId f : edged_frames_) {
    policy_->SetEvictable(f, PinCount(f) == 0);
  }
  edged_frames_.clear();
}

void BufferManager::ApplyDeferred(const DeferredEvent& event) {
  // The pin behind the event protected the frame while it was held, but by
  // drain time the pin may be gone and the frame evicted and reloaded; the
  // stats still count (the access happened and was served), while policy
  // callbacks only apply if the frame still holds the event's page. The
  // drain's reconcile and the eviction path's live-pin check are the safety
  // net for any flag staleness this introduces under races; in serial
  // execution the guard never fires and the replay is exactly the eager
  // mutex-path sequence.
  const bool current = event.frame < frames_.size() &&
                       frames_[event.frame].page == event.page;
  if (current && event.edge) {
    policy_->SetEvictable(event.frame,
                          event.kind == DeferredEvent::Kind::kUnpin);
    edged_frames_.push_back(event.frame);
  }
  if (event.kind == DeferredEvent::Kind::kHit) {
    ++stats_.requests;
    ++stats_.hits;
    ++optimistic_hits_;
    if (obs_ != nullptr) obs_->OnBufferRequest(event.page, event.query, true);
    if (current) {
      policy_->OnPageAccessed(event.frame, AccessContext{event.query});
    }
  }
}

void BufferManager::FetchBatchLocked(
    std::span<const storage::PageId> pages, const AccessContext& ctx,
    std::vector<StatusOr<PageHandle>>* out) {
  if (!concurrent_ || pages.size() < 2) {
    for (const storage::PageId page : pages) out->push_back(Fetch(page, ctx));
    return;
  }
  DrainDeferred();
  const size_t depth = async_device_->queue_depth();
  std::vector<storage::PageId> staged_pages;
  StagedReads staged;
  size_t begin = 0;
  while (begin < pages.size()) {
    // Segment the batch so its distinct predicted misses fit the queue.
    // Prediction mutates nothing; an element whose residency shifts under
    // our own installs/evictions mid-segment degrades to a sync read with
    // identical accounting.
    staged_pages.clear();
    staged.slot.clear();
    staged.completed.clear();
    size_t end = begin;
    while (end < pages.size()) {
      const storage::PageId page = pages[end];
      const bool predicted_miss = !bad_pages_.contains(page) &&
                                  !page_table_.Contains(page) &&
                                  !staged.slot.contains(page);
      if (predicted_miss && staged_pages.size() == depth) break;
      if (predicted_miss) {
        staged.slot.emplace(page, staged_pages.size());
        staged_pages.push_back(page);
      }
      ++end;
    }
    {
      // The device itself carries no tracing; the submit span closes over
      // the whole staging burst. A segment with nothing staged emits none.
      obs::ScopedSpan submit_span(
          staged_pages.empty() ? nullptr : ctx.span,
          obs::SpanKind::kAsyncSubmit);
      submit_span.set_payload(staged_pages.size());
      for (size_t i = 0; i < staged_pages.size(); ++i) {
        async_device_->SubmitRead(
            staged_pages[i], {staging_.get() + i * page_size_, page_size_});
      }
      async_device_->EndBatch();
    }
    // In-order semantic phase: the exact sequential Fetch sequence, with
    // completions harvested out of order as each miss comes due.
    for (size_t i = begin; i < end; ++i) {
      out->push_back(FetchDrained(pages[i], ctx, &staged));
    }
    // Whatever was staged but never consumed (its element turned resident,
    // or failed before the read) is dropped unread — no device read, no
    // fault draw, so counted reads match the sequential replay.
    async_device_->CancelAll();
    begin = end;
  }
}

void PageSource::FetchBatch(std::span<const storage::PageId> pages,
                            const AccessContext& ctx,
                            std::vector<StatusOr<PageHandle>>* out) {
  // Default: a plain sequential loop, byte-identical to the caller issuing
  // the fetches itself. Sources with an async pipeline override this.
  out->reserve(out->size() + pages.size());
  for (const storage::PageId page : pages) out->push_back(Fetch(page, ctx));
}

}  // namespace sdb::core

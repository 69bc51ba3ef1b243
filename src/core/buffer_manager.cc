#include "core/buffer_manager.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "storage/crc32c.h"

namespace sdb::core {

namespace {
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

BufferManager::BufferManager(storage::PageDevice* disk, size_t frames,
                             std::unique_ptr<ReplacementPolicy> policy,
                             obs::Collector* collector)
    : disk_(disk),
      policy_(std::move(policy)),
      page_size_(disk->page_size()),
      page_table_(frames) {
  SDB_CHECK(disk_ != nullptr);
  SDB_CHECK(policy_ != nullptr);
  SDB_CHECK_MSG(frames > 0, "buffer needs at least one frame");
  obs_ = collector;
  // Not zero-filled: no frame byte is read before it is written. A miss
  // reads the page into its frame, New and NewAt zero theirs, a frame
  // recycled after a failed read is zeroed in QuarantineFrame, and Peek and
  // every other reader see only resident pages.
  frame_data_ =
      std::make_unique_for_overwrite<std::byte[]>(frames * page_size_);
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
    if (AddPin(f)) {
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
  const Status read = ReadPageWithRecovery(f, page);
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
  AddPin(f);
  FillMeta(f);
  policy_->OnPageLoaded(f, page, ctx);
  // A concurrent buffer's policy sees every resident frame as evictable:
  // eviction reads the live pin count itself.
  if (concurrent_) policy_->SetEvictable(f, true);
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
  if (wal_ != nullptr && dirty_frames_ > 0) {
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
  // Victims set aside (flagged unevictable) for the rest of this
  // acquisition and restored before it returns. With background write-back
  // enabled and the pool at or below the high watermark these are dirty
  // frames, so the flusher — not the foreground pin path — pays for their
  // device writes. In concurrent mode, whose policy sees every resident
  // frame as evictable, they are frames whose live pin count is nonzero.
  std::vector<FrameId> skipped;
  const auto restore_skipped = [&] {
    for (const FrameId f : skipped) policy_->SetEvictable(f, true);
    skipped.clear();
  };
  bool prefer_clean = writeback_ && !PastHighWatermark();
  size_t pinned_rounds = 0;
  for (;;) {
    const std::optional<FrameId> victim = policy_->ChooseVictim(ctx, incoming);
    if (!victim.has_value()) {
      if (prefer_clean && !skipped.empty()) {
        // Everything the policy had left was a dirty frame we set aside:
        // restore the flags and accept a dirty victim after all.
        restore_skipped();
        prefer_clean = false;
        continue;
      }
      restore_skipped();
      if (concurrent_ && ++pinned_rounds < kPinnedVictimRounds) {
        // Every candidate was pinned when looked at. Other clients release
        // pins, and a doomed optimistic pin looks live for a moment, so
        // choose again a few times before declaring the pool exhausted.
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
      // Under the version lock no new pin can land, so the live count is
      // the authority: a pinned victim is set aside and the policy asked
      // again.
      sync_[f].Lock();
      if (LivePins(f) != 0) {
        sync_[f].Unlock();
        policy_->SetEvictable(f, false);
        skipped.push_back(f);
        continue;
      }
    } else {
      SDB_CHECK_MSG(frame.pin_count == 0, "policy evicted a pinned page");
    }
    SDB_CHECK(frame.page != storage::kInvalidPageId);
    if (prefer_clean && frame.dirty && skipped.size() < kMaxCleanScan) {
      policy_->SetEvictable(f, false);
      skipped.push_back(f);
      continue;
    }
    const bool was_dirty = frame.dirty;
    if (frame.dirty) {
      if (writeback_) {
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
  Status status = disk_->Read(page, {FrameData(f), page_size_});
  uint32_t failures = 0;
  while (true) {
    if (status.ok()) {
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
    if (!status.retryable() || failures >= kMaxReadRetries) {
      ++stats_.io_permanent_failures;
      bad_pages_.emplace(page, status.code());
      QuarantineFrame(f, page);
      return status;
    }
    ++failures;
    ++stats_.io_read_retries;
    status = disk_->Read(page, {FrameData(f), page_size_});
  }
}

void BufferManager::QuarantineFrame(FrameId f, storage::PageId page) {
  Frame& frame = frames_[f];
  SDB_DCHECK(frame.page == storage::kInvalidPageId);
  SDB_DCHECK(PinCount(f) == 0);
  if (quarantined_count_ < quarantine_cap()) {
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
  // device copy is stale and the device refuses updates. Remember the page
  // as bad so the stale device copy is never served to a reader. Recovery
  // (which replays the WAL onto the device region that works, or a
  // replacement) is the only way the page comes back.
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

void BufferManager::ExportMetrics(obs::MetricsRegistry* registry) const {
  if (obs_ != nullptr) registry->Merge(obs_->metrics().Snapshot());
  obs::AddStatsCounters(kBufferStatsCounters, stats_, registry);
  registry->GetCounter("buffer.header_decodes")->Add(header_decodes_);
}

void BufferManager::ReleasePin(FrameId f) {
  if (concurrent_) {
    // Latch-free release: the handle owns a pin by construction, so the
    // decrement cannot fail, and the policy hears nothing (it sees every
    // resident frame as evictable). Released on another thread than the
    // fetch, the pin leaves this stripe's counter one below zero, which the
    // wrapping sum in LivePins absorbs. The release order publishes the
    // holder's reads of the frame to the evictor that sees the count drop.
    OwnStripe().Pins(f).fetch_sub(1, std::memory_order_release);
    return;
  }
  std::unique_lock<std::mutex> lock;
  if (latch_ != nullptr) lock = std::unique_lock<std::mutex>(*latch_);
  SDB_DCHECK(frames_[f].pin_count > 0);
  if (--frames_[f].pin_count == 0) policy_->SetEvictable(f, true);
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
         failures < kMaxWriteRetries) {
    ++failures;
    ++stats_.io_write_retries;
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

void BufferManager::EnableBackgroundWriteback(double low_watermark) {
  SDB_CHECK_MSG(low_watermark <= kHighWatermark,
                "low watermark must not exceed the high watermark");
  SDB_CHECK_MSG(!concurrent_, kReadOnlyShard);
  writeback_ = true;
  low_watermark_ = low_watermark;
}

StatusOr<size_t> BufferManager::FlushOldestDirty(size_t max_pages,
                                                 const AccessContext& ctx) {
  const size_t usable = frames_.size() - quarantined_count_;
  if (!writeback_ || usable == 0 ||
      static_cast<double>(dirty_frames_) / static_cast<double>(usable) <=
          low_watermark_) {
    return size_t{0};
  }
  // Only logged frames qualify: their current bytes already sit in a
  // durable committed image, so writing them never forces a steal commit
  // (the flusher's steal-avoidance invariant) and never blocks on the log.
  std::vector<FrameId> picked;
  for (FrameId f = 0; f < frames_.size(); ++f) {
    const Frame& frame = frames_[f];
    if (frame.page != storage::kInvalidPageId && frame.dirty &&
        !frame.quarantined && frame.wal_logged && frame.pin_count == 0) {
      picked.push_back(f);
    }
  }
  // The longest-dirty pages reach the device first: keep the `max_pages`
  // oldest by rec_lsn, ties by page id (a total order over resident frames).
  if (picked.size() > max_pages) {
    std::nth_element(picked.begin(), picked.begin() + max_pages, picked.end(),
                     [this](FrameId a, FrameId b) {
                       return std::pair(frames_[a].rec_lsn, frames_[a].page) <
                              std::pair(frames_[b].rec_lsn, frames_[b].page);
                     });
    picked.resize(max_pages);
  }
  // Device writes go out in ascending page-id order, so adjacent dirty pages
  // coalesce into sequential device writes (write clustering). The loop
  // pins, dirties and evicts no other picked frame, and the caller's latch
  // keeps clients off, so each is still logged, unpinned and dirty when its
  // turn comes.
  std::sort(picked.begin(), picked.end(), [this](FrameId a, FrameId b) {
    return frames_[a].page < frames_[b].page;
  });
  size_t flushed = 0;
  for (const FrameId f : picked) {
    bool device_write_failed = false;
    const Status written = WriteBackLocked(f, ctx, &device_write_failed);
    if (!written.ok() && device_write_failed) {
      // The WAL half succeeded (the current bytes sit in a durable image);
      // only the data device refuses this page. A permanent refusal — or a
      // transient one that keeps exhausting whole retry rounds — escalates
      // to write-quarantine, otherwise the coordinator's next round (after
      // its backoff) retries the same frame.
      Frame& frame = frames_[f];
      ++frame.write_failures;
      if (!written.retryable() || frame.write_failures > kMaxWriteRetries) {
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
  SDB_CHECK_MSG(wal_ == nullptr && !writeback_, kReadOnlyShard);
  sync_ = std::make_unique<FrameSync[]>(frames_.size());
  const size_t stripes =
      std::bit_ceil(std::max(1u, std::thread::hardware_concurrency()));
  const size_t pin_blocks =
      (frames_.size() + PinBlock::kFrames - 1) / PinBlock::kFrames;
  stripes_ = std::make_unique<EventStripe[]>(stripes);
  for (size_t s = 0; s < stripes; ++s) {
    stripes_[s].pins = std::make_unique<PinBlock[]>(pin_blocks);
    stripes_[s].events.Allocate(options.event_ring_capacity / stripes);
  }
  stripe_mask_ = stripes - 1;
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
    const FrameSync& sync = sync_[f];
    const uint64_t version = sync.version.load(std::memory_order_acquire);
    if ((version & 1) != 0 ||
        sync.page.load(std::memory_order_acquire) != page) {
      stripe.conflicts.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Pin-then-validate on this thread's own counter: either the pin lands
    // before an evictor sums the counters (the evictor then sets this frame
    // aside), or the evictor locked first and the re-validation below fails
    // before any byte is exposed.
    std::atomic<uint32_t>& pins = stripe.Pins(f);
    pins.fetch_add(1, std::memory_order_seq_cst);
    if (sync.version.load(std::memory_order_seq_cst) != version) {
      pins.fetch_sub(1, std::memory_order_release);
      stripe.conflicts.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!stripe.events.TryPush(DeferredEvent{f, page, ctx.query_id})) {
      // Stripe full: undo and let the latched path do this hit eagerly (it
      // drains the stripes first, which is what makes room again).
      pins.fetch_sub(1, std::memory_order_release);
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

uint32_t BufferManager::LivePins(FrameId f) const {
  uint32_t live = 0;
  for (size_t s = 0; s <= stripe_mask_; ++s) {
    live += stripes_[s].Pins(f).load(std::memory_order_seq_cst);
  }
  return live;
}

void BufferManager::DrainDeferred() {
  if (!concurrent_) return;
  // The pin behind a hit protected its frame while it was held, but by
  // drain time the pin may be gone and the frame evicted and reloaded: the
  // stats still count the hit (the access happened and was served), while
  // the policy hears of it only if the frame still holds the event's page.
  // In serial execution that guard never fires and the replay is exactly
  // the eager mutex-path sequence.
  DeferredEvent event;
  for (size_t s = 0; s <= stripe_mask_; ++s) {
    while (stripes_[s].events.TryPop(&event)) {
      ++stats_.requests;
      ++stats_.hits;
      ++optimistic_hits_;
      if (obs_ != nullptr) obs_->OnBufferRequest(event.page, event.query, true);
      if (frames_[event.frame].page == event.page) {
        policy_->OnPageAccessed(event.frame, AccessContext{event.query});
      }
    }
  }
}

void PageSource::FetchBatch(std::span<const storage::PageId> pages,
                            const AccessContext& ctx,
                            std::vector<StatusOr<PageHandle>>* out) {
  out->reserve(out->size() + pages.size());
  for (const storage::PageId page : pages) out->push_back(Fetch(page, ctx));
}

}  // namespace sdb::core

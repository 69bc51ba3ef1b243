#include "svc/buffer_service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "common/random.h"
#include "core/policy_asb.h"
#include "core/policy_factory.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "svc/flush_coordinator.h"

namespace sdb::svc {

namespace {

/// Capacity split: total/count per shard, remainder to the lowest-numbered
/// shards one frame each.
size_t SplitFrames(size_t total, size_t count, size_t shard) {
  return total / count + (shard < total % count ? 1 : 0);
}

}  // namespace

BufferService::BufferService(const storage::DiskManager& disk,
                             const BufferServiceConfig& config) {
  Init(disk, config);
}

BufferService::BufferService(storage::DiskManager* disk,
                             wal::WalManager* wal,
                             const BufferServiceConfig& config) {
  SDB_CHECK(disk != nullptr);
  SDB_CHECK(wal != nullptr);
  writable_disk_ = disk;
  wal_ = wal;
  Init(*disk, config);
}

void BufferService::Init(const storage::DiskManager& disk,
                         const BufferServiceConfig& config) {
  total_frames_ = config.total_frames;
  policy_spec_ = config.policy_spec;
  SDB_CHECK_MSG(config.shard_count > 0, "service needs at least one shard");
  SDB_CHECK_MSG(config.total_frames >= config.shard_count,
                "fewer frames than shards: some shard would be empty");
  shards_.reserve(config.shard_count);
  for (size_t s = 0; s < config.shard_count; ++s) {
    auto shard = std::make_unique<Shard>(disk);
    if (config.collect_metrics) {
      obs::CollectorOptions options;
      options.event_capacity = 0;  // metrics only; no per-shard event ring
      shard->collector = std::make_unique<obs::Collector>(options);
    }
    auto policy = core::CreatePolicy(config.policy_spec);
    // ASB shards publish one global candidate-set size that every shard
    // adapts (clamped CAS) and re-reads before its next demotion scan, so
    // the self-tuning sees the full overflow-hit evidence instead of a 1/N
    // slice per shard. Attached before the buffer constructs: construction
    // binds the policy, and Bind is where the shard registers.
    if (auto* asb = dynamic_cast<core::AsbPolicy*>(policy.get())) {
      asb->set_shared_tuning(&asb_tuning_);
      asb_shared_ = true;
    }
    storage::PageDevice* device = &shard->view;
    if (writable_disk_ != nullptr) {
      shard->writable = std::make_unique<storage::WritableDiskView>(
          *writable_disk_, device_mu_);
      device = shard->writable.get();
    }
    if (config.fault_profile.enabled()) {
      // Each shard draws from an independent but seed-derived stream: the
      // whole service replays for a fixed profile seed, yet shards do not
      // mirror each other's fault pattern.
      storage::FaultProfile profile = config.fault_profile;
      profile.seed = Mix64(profile.seed ^ (static_cast<uint64_t>(s) + 1));
      shard->fault = std::make_unique<storage::FaultInjectingDevice>(
          *device, std::move(profile));
      device = shard->fault.get();
    }
    shard->buffer = std::make_unique<core::BufferManager>(
        device, SplitFrames(total_frames_, config.shard_count, s),
        std::move(policy), shard->collector.get());
    shard->buffer->set_latch(&shard->latch);
    // Read-only shards go optimistic; writable ones keep the shard mutex.
    if (writable_disk_ == nullptr) {
      core::ConcurrentOptions concurrent;
      concurrent.event_ring_capacity = config.event_ring_capacity;
      shard->buffer->EnableConcurrency(concurrent);
    }
    if (wal_ != nullptr) shard->buffer->AttachWal(wal_);
    if (writable_disk_ != nullptr && config.flusher_threads > 0) {
      shard->buffer->EnableBackgroundWriteback(config.dirty_low_watermark);
    }
    shards_.push_back(std::move(shard));
  }
  if (writable_disk_ != nullptr && config.flusher_threads > 0) {
    flusher_ = std::make_unique<FlushCoordinator>(
        this, std::min(config.flusher_threads, shards_.size()));
  }
}

BufferService::~BufferService() = default;

size_t BufferService::ShardOf(storage::PageId page) const {
  // Page ids are sequential on disk, so a plain modulo would put whole
  // subtrees on one shard; the mix spreads them evenly.
  return static_cast<size_t>(Mix64(static_cast<uint64_t>(page)) %
                             shards_.size());
}

size_t BufferService::ShardFrames(size_t shard) const {
  return SplitFrames(total_frames_, shards_.size(), shard);
}

std::unique_lock<std::mutex> BufferService::LockShard(Shard& shard) const {
  std::unique_lock<std::mutex> lock(shard.latch, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard.latch_waits.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  shard.latch_acquires.fetch_add(1, std::memory_order_relaxed);
  return lock;
}

core::StatusOr<core::PageHandle> BufferService::Fetch(
    storage::PageId page, const core::AccessContext& ctx) {
  const size_t s = ShardOf(page);
  Shard& shard = *shards_[s];
  // Span over the whole routed fetch (optimistic probe included); payload =
  // the shard index, flag = served latch-free.
  obs::ScopedSpan span(ctx.span, obs::SpanKind::kShardFetch);
  span.set_page(page);
  span.set_payload(s);
  if (shard.buffer->concurrent()) {
    // Latch-free hit path: version-validated pin, bookkeeping deferred.
    if (std::optional<core::PageHandle> hit =
            shard.buffer->TryOptimisticFetch(page, ctx)) {
      span.set_flag(true);
      return std::move(*hit);
    }
  }
  const std::unique_lock<std::mutex> lock = LockShard(shard);
  return shard.buffer->Fetch(page, ctx);
}

core::StatusOr<core::PageHandle> BufferService::New(
    const core::AccessContext& ctx) {
  if (writable_disk_ == nullptr) {
    return core::Status::Unimplemented(
        "BufferService is read-only: New() is not served");
  }
  if (degraded()) {
    return core::Status::Unavailable(
        "service degraded: read-only mode, New() refused");
  }
  // Allocate on the shared device first — the page id decides the shard.
  // A failed allocation (disk full) is backpressure, not degradation: the
  // caller may free space or retry later, and commits of existing pages
  // keep working.
  storage::PageId page;
  {
    const std::lock_guard<std::mutex> device_lock(device_mu_);
    const core::StatusOr<storage::PageId> allocated =
        writable_disk_->Allocate();
    if (!allocated.ok()) return allocated.status();
    page = *allocated;
  }
  Shard& shard = *shards_[ShardOf(page)];
  obs::ScopedSpan span(ctx.span, obs::SpanKind::kShardFetch);
  span.set_page(page);
  span.set_payload(ShardOf(page));
  const std::unique_lock<std::mutex> lock = LockShard(shard);
  // A refused install leaks `page` (see the contract in the header).
  return shard.buffer->NewAt(page, ctx);
}

core::Status BufferService::Commit(const core::AccessContext& ctx) {
  if (wal_ == nullptr) {
    return core::Status::Unimplemented(
        "BufferService is read-only: nothing to commit");
  }
  if (degraded()) {
    return core::Status::Unavailable(
        "service degraded: read-only mode, Commit() refused");
  }
  // All shard latches, in index order (the service-wide lock order), so the
  // gathered images are a consistent cross-shard snapshot and stay frozen
  // until the group is durable.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    locks.push_back(LockShard(*shard));
  }
  std::vector<wal::PageImageRef> images;
  std::vector<std::vector<core::FrameId>> frames(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->buffer->CollectDirtyPages(&images, &frames[s]);
  }
  core::StatusOr<wal::Lsn> end =
      wal_->CommitPages(images, writable_disk_->page_count(), ctx);
  if (!end.ok()) {
    // A commit can fail transiently (shutdown race); only a sticky WAL
    // error — durability is gone for good — trips degraded mode. All shard
    // latches are held here, satisfying EnterDegraded's contract.
    if (!wal_->sticky_error().ok()) {
      EnterDegraded(DegradedState::kWalError, 0, end.status().code());
    }
    return end.status();
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->buffer->MarkFramesCommitted(frames[s], *end);
  }
  // The commit just turned its dirty pages into flush candidates (logged,
  // so the flusher can write them without a steal): wake the workers now
  // rather than waiting out the idle timer.
  if (flusher_ != nullptr) flusher_->Nudge();
  return core::Status::Ok();
}

core::Status BufferService::Checkpoint(const core::AccessContext& ctx) {
  if (wal_ == nullptr) {
    return core::Status::Unimplemented(
        "BufferService is read-only: nothing to checkpoint");
  }
  if (core::Status committed = Commit(ctx); !committed.ok()) return committed;
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    locks.push_back(LockShard(*shard));
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    // A frame dirtied between the Commit above and this latch hold gets a
    // forced steal commit inside the write-back, so the checkpoint's
    // invariant (device state == some committed state) still holds.
    if (core::Status forced = shard->buffer->ForceDirty(ctx); !forced.ok()) {
      return forced;
    }
  }
  core::StatusOr<wal::Lsn> end =
      wal_->AppendCheckpoint(writable_disk_->page_count(), ctx);
  if (!end.ok()) {
    // Every shard latch is still held (`locks` above), so EnterDegraded's
    // collector access is covered.
    if (!wal_->sticky_error().ok()) {
      EnterDegraded(DegradedState::kWalError, 0, end.status().code());
    }
    return end.status();
  }
  return core::Status::Ok();
}

core::StatusOr<size_t> BufferService::FlushShardBatch(
    size_t s, size_t max_pages, const core::AccessContext& ctx) {
  Shard& shard = *shards_[s];
  const std::unique_lock<std::mutex> lock = LockShard(shard);
  core::BufferManager& buffer = *shard.buffer;
  if (wal_ != nullptr && !wal_->sticky_error().ok()) {
    // The write-ahead rule makes every flush of a logged page wait on WAL
    // durability, which a sticky log can never grant: flushing now would
    // just spin each candidate through EnsureDurable failures. Park the
    // dirty set — it is the only current copy of that data.
    EnterDegraded(DegradedState::kWalError, s, wal_->sticky_error().code());
    return size_t{0};
  }
  obs::ScopedSpan span(ctx.span, obs::SpanKind::kFlush);
  core::StatusOr<size_t> flushed = buffer.FlushOldestDirty(max_pages, ctx);
  if (flushed.ok()) {
    span.set_payload(*flushed);
    span.set_flag(*flushed == max_pages);
  }
  // The round may have escalated persistent write failures to frame
  // quarantine; when that exhausts the shard's quarantine budget the write
  // path has lost the race against the device for good.
  if (buffer.quarantine_cap() > 0 &&
      buffer.quarantined_count() >= buffer.quarantine_cap()) {
    EnterDegraded(DegradedState::kQuarantineSaturated, s,
                  core::StatusCode::kPermanentFailure);
  }
  return flushed;
}

std::span<const std::byte> BufferService::Peek(storage::PageId page) const {
  return shards_[ShardOf(page)]->buffer->Peek(page);
}

bool BufferService::Contains(storage::PageId page) const {
  Shard& shard = *shards_[ShardOf(page)];
  const std::unique_lock<std::mutex> lock = LockShard(shard);
  return shard.buffer->Contains(page);
}

ShardStats BufferService::StatsOfShard(size_t s) const {
  Shard& shard = *shards_[s];
  const std::unique_lock<std::mutex> lock = LockShard(shard);
  return StatsOfShardLocked(shard);
}

ShardStats BufferService::StatsOfShardLocked(Shard& shard) const {
  // Deferred optimistic events must reach the buffer's stats before they
  // are sampled (no-op on a writable service's shards).
  shard.buffer->DrainDeferred();
  ShardStats stats;
  stats.buffer = shard.buffer->stats();
  stats.io = ShardIoStats(shard);
  stats.latch_waits = shard.latch_waits.load(std::memory_order_relaxed);
  stats.latch_acquires = shard.latch_acquires.load(std::memory_order_relaxed);
  stats.quarantined_frames = shard.buffer->quarantined_count();
  stats.bad_pages = shard.buffer->bad_page_count();
  stats.usable_frames = shard.buffer->frame_count() - stats.quarantined_frames;
  stats.optimistic_hits = shard.buffer->optimistic_hits();
  stats.optimistic_retries = shard.buffer->optimistic_retries();
  stats.version_conflicts = shard.buffer->version_conflicts();
  stats.degraded = static_cast<uint64_t>(degraded_state());
  stats.degraded_entries = degraded_entries();
  return stats;
}

ShardStats BufferService::AggregateStats() const {
  ShardStats total;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardStats one = StatsOfShard(s);
    for (const auto& counter : core::kBufferStatsCounters) {
      total.buffer.*counter.field += one.buffer.*counter.field;
    }
    for (const auto& counter : kShardStatsCounters) {
      total.*counter.field += one.*counter.field;
    }
    total.io.reads += one.io.reads;
    total.io.writes += one.io.writes;
    total.io.sequential_reads += one.io.sequential_reads;
    total.io.sequential_writes += one.io.sequential_writes;
    total.quarantined_frames += one.quarantined_frames;
    total.bad_pages += one.bad_pages;
    total.usable_frames += one.usable_frames;
  }
  // Service-level, not per-shard: copied rather than summed.
  total.degraded = static_cast<uint64_t>(degraded_state());
  total.degraded_entries = degraded_entries();
  return total;
}

storage::FaultStats BufferService::AggregateFaultStats() const {
  storage::FaultStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->fault == nullptr) continue;
    const std::unique_lock<std::mutex> lock = LockShard(*shard);
    const storage::FaultStats& one = shard->fault->fault_stats();
    total.transient_errors += one.transient_errors;
    total.permanent_errors += one.permanent_errors;
    total.torn_reads += one.torn_reads;
    total.torn_writes += one.torn_writes;
    total.bit_flips += one.bit_flips;
    total.latency_spikes += one.latency_spikes;
    total.write_transient_errors += one.write_transient_errors;
    total.write_permanent_errors += one.write_permanent_errors;
    total.sync_failures += one.sync_failures;
    total.disk_full_errors += one.disk_full_errors;
  }
  return total;
}

void BufferService::EnterDegraded(DegradedState why, size_t s,
                                  core::StatusCode code) {
  uint8_t expected = static_cast<uint8_t>(DegradedState::kHealthy);
  if (!degraded_.compare_exchange_strong(expected, static_cast<uint8_t>(why),
                                         std::memory_order_acq_rel)) {
    return;  // already degraded; the first trigger named the cause
  }
  degraded_entries_.fetch_add(1, std::memory_order_relaxed);
  obs::Collector* collector = shards_[s]->collector.get();
  if (collector == nullptr) return;
  obs::Event event;
  event.kind = obs::EventKind::kDegraded;
  event.frame = static_cast<uint32_t>(s);
  event.a = static_cast<uint64_t>(why);
  event.b = static_cast<uint64_t>(code);
  collector->events().Push(event);
}

void BufferService::NoteFlushBackoff(size_t shard, uint64_t consecutive_errors,
                                     uint64_t skip_rounds) {
  Shard& s = *shards_[shard];
  if (s.collector == nullptr) return;
  const std::unique_lock<std::mutex> lock = LockShard(s);
  obs::Event event;
  event.kind = obs::EventKind::kFlushBackoff;
  event.frame = static_cast<uint32_t>(shard);
  event.a = consecutive_errors;
  event.b = skip_rounds;
  s.collector->events().Push(event);
}

size_t BufferService::shared_candidate() const {
  if (!asb_shared_) return 0;
  return static_cast<size_t>(asb_tuning_.Load());
}

void BufferService::ExportShardLocked(Shard& shard,
                                      obs::MetricsRegistry* registry) const {
  const ShardStats stats = StatsOfShardLocked(shard);
  shard.buffer->ExportMetrics(registry);
  obs::AddStatsCounters(kShardStatsCounters, stats, registry);
  registry->GetCounter("svc.disk_reads")->Add(stats.io.reads);
}

obs::MetricsSnapshot BufferService::MetricsSnapshot() const {
  // Merge in shard order: registry merging is commutative, so the combined
  // snapshot is identical for any client-thread count as long as the
  // underlying per-shard counts are.
  obs::MetricsRegistry merged;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::unique_lock<std::mutex> lock = LockShard(*shard);
    ExportShardLocked(*shard, &merged);
  }
  merged.GetGauge("svc.degraded")
      ->Set(static_cast<double>(degraded_state()));
  if (wal_ != nullptr) {
    obs::AddStatsCounters(wal::kWalStatsCounters, wal_->stats(), &merged);
    merged.GetCounter("wal.flusher_pages")
        ->Add(flusher_ != nullptr ? flusher_->stats().pages_flushed : 0);
    merged.GetCounter("wal.degraded_entries")->Add(degraded_entries());
  }
  return merged.Snapshot();
}

std::string BufferService::StatsText() const {
  obs::MetricsRegistry registry;
  registry.Merge(MetricsSnapshot());
  registry.GetGauge("svc.shards")
      ->Set(static_cast<double>(shards_.size()));
  registry.GetGauge("svc.total_frames")
      ->Set(static_cast<double>(total_frames_));
  if (asb_shared_) {
    registry.GetGauge("svc.shared_candidate")
        ->Set(static_cast<double>(shared_candidate()));
  }
  return obs::PrometheusText(registry.Snapshot());
}

std::vector<obs::MetricsSnapshot> BufferService::ShardMetricsSnapshots()
    const {
  std::vector<obs::MetricsSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    obs::MetricsRegistry view;
    {
      const std::unique_lock<std::mutex> lock = LockShard(*shard);
      ExportShardLocked(*shard, &view);
    }
    snapshots.push_back(view.Snapshot());
  }
  return snapshots;
}

}  // namespace sdb::svc

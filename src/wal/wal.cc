#include "wal/wal.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/macros.h"
#include "obs/trace.h"

namespace sdb::wal {

std::string_view RecordTypeName(RecordType type) {
  switch (type) {
    case RecordType::kPageImage:
      return "page_image";
    case RecordType::kCommit:
      return "commit";
    case RecordType::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

WalManager::WalManager(storage::PageDevice* device, WalOptions options)
    : device_(device), options_(options), page_size_(device->page_size()) {
  SDB_CHECK_MSG(options_.segment_pages > 0, "segment must hold pages");
  SDB_CHECK_MSG(options_.commit_queue_capacity > 0,
                "commit queue must admit at least one commit");
  partial_.reserve(page_size_);
  if (options_.group_commit) {
    writer_ = std::thread([this] { WriterLoop(); });
  }
}

WalManager::~WalManager() { Shutdown(); }

void WalManager::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;  // idempotent: first caller did the work below
    stop_ = true;
  }
  writer_cv_.notify_all();
  durable_cv_.notify_all();
  space_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  // Final flush after the writer is gone: everything appended before the
  // shutdown reaches the device, so a clean close never loses records —
  // only the *acknowledgement* of commits caught mid-queue is withdrawn.
  Flush();
}

Lsn WalManager::AppendLocked(RecordType type, uint64_t page,
                             std::span<const std::byte> payload) {
  const Lsn lsn = next_lsn_;
  const size_t encoded = AppendRecord(type, lsn, page, payload, &tail_);
  const uint64_t segment_before = lsn / (options_.segment_pages * page_size_);
  next_lsn_ += encoded;
  const uint64_t segment_after =
      (next_lsn_ - 1) / (options_.segment_pages * page_size_);
  stats_.segments_opened += segment_after - segment_before;
  ++stats_.appends;
  stats_.bytes_appended += encoded;
  return lsn;
}

void WalManager::Flush() {
  std::lock_guard<std::mutex> file_lock(file_mu_);

  // Claim the appended-but-unflushed bytes under the queue latch, then do
  // the device writes holding only the file latch: appenders and new
  // committers keep queueing while this block is on its way out. The
  // covered-commit count is snapshotted with the claim — a commit record is
  // in the claimed chunk iff its CommitPages call incremented
  // pending_commits_ in the same mu_ hold that appended it.
  std::vector<std::byte> chunk;
  Lsn flush_begin = 0;
  size_t covered = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tail_.empty() || !sticky_error_.ok()) return;
    chunk.swap(tail_);
    flush_begin = durable_lsn_ - partial_.size();
    covered = pending_commits_;
  }
  SDB_CHECK(flush_begin % page_size_ == 0);

  // Compose the dirty device pages: the already-durable head of the current
  // tail page, then everything claimed above.
  std::vector<std::byte> block(partial_.size() + chunk.size());
  if (!partial_.empty()) {
    std::memcpy(block.data(), partial_.data(), partial_.size());
  }
  std::memcpy(block.data() + partial_.size(), chunk.data(), chunk.size());

  const size_t page_count = (block.size() + page_size_ - 1) / page_size_;
  const storage::PageId first_page =
      static_cast<storage::PageId>(flush_begin / page_size_);

  // Whole-attempt retry loop. Each attempt rewrites EVERY page of the block
  // and then syncs: after a failed sync the device may have dropped any page
  // written since the last successful one (fsyncgate), so resuming from the
  // page that errored — or re-syncing without rewriting — could persist a
  // hole while claiming durability.
  core::Status status = core::Status::Ok();
  uint32_t retries = 0;
  for (uint32_t attempt = 0;; ++attempt) {
    status = WriteBlockAndSync(first_page, page_count, block);
    if (status.ok()) break;
    if (!status.retryable() || attempt >= options_.max_flush_retries) break;
    ++retries;
  }

  if (!status.ok()) {
    // Terminal: restore the claimed bytes to the front of the tail so the
    // invariant "tail_ holds exactly [durable_lsn_, next_lsn_)" survives —
    // the in-memory tail stays the single source of truth for what was
    // never acknowledged. Then go sticky and wake everyone: committers and
    // EnsureDurable callers return the error instead of hanging, and the
    // writer thread parks until shutdown.
    {
      std::lock_guard<std::mutex> lock(mu_);
      tail_.insert(tail_.begin(), chunk.begin(), chunk.end());
      sticky_error_ = status;
      stats_.write_retries += retries;
    }
    durable_cv_.notify_all();
    space_cv_.notify_all();
    writer_cv_.notify_all();
    return;
  }

  partial_.assign(block.end() - (block.size() % page_size_), block.end());

  {
    std::lock_guard<std::mutex> lock(mu_);
    durable_lsn_ += chunk.size();
    ++stats_.fsyncs;
    stats_.write_retries += retries;
    if (covered > 0) {
      stats_.grouped_commits += covered;
      pending_commits_ -= covered;
    }
  }
  if (covered > 0) space_cv_.notify_all();
  durable_cv_.notify_all();
}

core::Status WalManager::WriteBlockAndSync(storage::PageId first_page,
                                           size_t page_count,
                                           std::span<const std::byte> block) {
  while (device_->page_count() < first_page + page_count) {
    const core::StatusOr<storage::PageId> page = device_->Allocate();
    // A full log device is terminal, not retryable: surface it unchanged so
    // the flush goes sticky and the service degrades.
    if (!page.ok()) return page.status();
  }
  std::vector<std::byte> image(page_size_);
  for (size_t p = 0; p < page_count; ++p) {
    const size_t offset = p * page_size_;
    const size_t n = std::min(page_size_, block.size() - offset);
    std::memcpy(image.data(), block.data() + offset, n);
    std::memset(image.data() + n, 0, page_size_ - n);
    const core::Status status =
        device_->Write(static_cast<storage::PageId>(first_page + p), image);
    if (!status.ok()) return status;
  }
  // Durability is claimed only after the sync reports success; the caller
  // publishes durable_lsn_ strictly after this returns Ok.
  return device_->Sync();
}

core::Status WalManager::TruncateBelow(Lsn lsn) {
  std::lock_guard<std::mutex> file_lock(file_mu_);
  Lsn durable = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!sticky_error_.ok()) return sticky_error_;
    durable = durable_lsn_;
  }
  const uint64_t segment_bytes = options_.segment_pages * page_size_;
  const Lsn bound = std::min(lsn, durable);
  const Lsn target = bound - bound % segment_bytes;
  if (target <= truncated_lsn_) return core::Status::Ok();

  // Zero whole segments in ascending page order: a crash at any point
  // leaves zeros in [0, k) for some k and intact records past it — the
  // zero-prefix shape recovery's start discovery expects.
  std::vector<std::byte> zero(page_size_, std::byte{0});
  const auto first = static_cast<storage::PageId>(truncated_lsn_ / page_size_);
  const auto last = static_cast<storage::PageId>(target / page_size_);
  for (storage::PageId p = first; p < last; ++p) {
    // Transient zeroing failures retry within the flush budget; only a
    // persistent failure turns sticky. (Losing a zeroing write in a crash
    // is harmless — recovery just replays records the checkpoint already
    // covered — but a device that cannot be written at all is the same
    // terminal condition a failed flush is.)
    core::Status status = core::Status::Ok();
    for (uint32_t attempt = 0;; ++attempt) {
      status = device_->Write(p, zero);
      if (status.ok()) break;
      if (!status.retryable() || attempt >= options_.max_flush_retries) break;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.write_retries;
    }
    if (!status.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        sticky_error_ = status;
      }
      durable_cv_.notify_all();
      space_cv_.notify_all();
      writer_cv_.notify_all();
      return status;
    }
  }
  const uint64_t segments = (target - truncated_lsn_) / segment_bytes;
  truncated_lsn_ = target;
  std::lock_guard<std::mutex> lock(mu_);
  stats_.segments_truncated += segments;
  return core::Status::Ok();
}

void WalManager::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    writer_cv_.wait(lock, [this] {
      // Once the log is sticky there is nothing useful to flush: park until
      // shutdown instead of hot-spinning on the undrainable commit queue.
      return stop_ ||
             ((pending_commits_ > 0 || urgent_flush_) && sticky_error_.ok());
    });
    if (stop_) return;
    if (options_.group_window_us > 0 && !urgent_flush_) {
      // Collection window: let stragglers join the batch. An urgent request
      // (EnsureDurable under eviction pressure) or shutdown cuts it short.
      writer_cv_.wait_for(lock,
                          std::chrono::microseconds(options_.group_window_us),
                          [this] { return stop_ || urgent_flush_; });
      if (stop_) return;
    }
    // Reset the urgent flag before dropping the latch: the flush below
    // claims everything appended up to its swap, so any request raised
    // before this point is covered, and one raised later re-wakes the loop.
    urgent_flush_ = false;
    lock.unlock();
    Flush();
    lock.lock();
  }
}

core::StatusOr<Lsn> WalManager::CommitPages(
    std::span<const PageImageRef> images, uint64_t data_page_count,
    const core::AccessContext& ctx, bool forced_steal) {
  obs::ScopedSpan span(ctx.span, obs::SpanKind::kWalAppend);
  span.set_payload(images.size());
  span.set_flag(forced_steal);

  std::unique_lock<std::mutex> lock(mu_);
  if (!sticky_error_.ok()) return sticky_error_;
  if (options_.group_commit) {
    // Bounded commit queue: hold new groups back while the writer is behind.
    space_cv_.wait(lock, [this] {
      return pending_commits_ < options_.commit_queue_capacity || stop_ ||
             !sticky_error_.ok();
    });
    if (!sticky_error_.ok()) return sticky_error_;
    if (stop_) return core::Status::Unavailable("wal shutting down");
  }

  // The whole group — images plus its commit record — is appended under one
  // mutex hold, so groups never interleave and recovery may treat every
  // image that precedes a commit record as committed.
  for (const PageImageRef& ref : images) {
    SDB_CHECK_MSG(ref.bytes.size() == page_size_,
                  "page image must be exactly one page");
    AppendLocked(RecordType::kPageImage, ref.page, ref.bytes);
  }
  const Lsn commit_lsn = AppendLocked(RecordType::kCommit, data_page_count, {});
  const Lsn end = next_lsn_;
  ++stats_.commits;
  if (forced_steal) ++stats_.forced_steals;
  (void)commit_lsn;

  if (!options_.group_commit) {
    ++pending_commits_;
    lock.unlock();
    Flush();
    lock.lock();
    if (!sticky_error_.ok()) return sticky_error_;
    // Our record was in the tail when Flush was called, and every flush
    // claims the whole tail — so whichever flusher won the file latch
    // first, the prefix through `end` is durable by now unless the log
    // went sticky (checked above). Report, never abort: a short durable
    // horizon here is a failed commit, not a harness bug.
    if (durable_lsn_ < end) {
      return core::Status::Unavailable("wal flush fell short of commit");
    }
    return end;
  }

  ++pending_commits_;
  writer_cv_.notify_one();
  durable_cv_.wait(lock, [this, end] {
    return durable_lsn_ >= end || !sticky_error_.ok() || stop_;
  });
  if (!sticky_error_.ok()) return sticky_error_;
  if (durable_lsn_ < end) {
    return core::Status::Unavailable("wal shut down before commit flushed");
  }
  return end;
}

core::StatusOr<Lsn> WalManager::AppendCheckpoint(
    uint64_t data_page_count, const core::AccessContext& ctx,
    std::optional<Lsn> redo_lsn) {
  obs::ScopedSpan span(ctx.span, obs::SpanKind::kCheckpoint);
  span.set_payload(redo_lsn.value_or(kNullLsn));
  Lsn end = kNullLsn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!sticky_error_.ok()) return sticky_error_;
    std::byte payload[kCheckpointRedoPayloadSize];
    std::span<const std::byte> body;
    if (redo_lsn.has_value()) {
      // Fuzzy checkpoint: carry the redo low-water mark instead of
      // asserting that the data device is clean.
      detail::PutU64(payload, *redo_lsn);
      body = {payload, sizeof(payload)};
    }
    AppendLocked(RecordType::kCheckpoint, data_page_count, body);
    end = next_lsn_;
    ++stats_.checkpoints;
  }
  // Flush on the checkpointing thread, holding only the file latch for the
  // device writes: group commits keep queueing and draining meanwhile.
  Flush();
  std::lock_guard<std::mutex> lock(mu_);
  if (!sticky_error_.ok()) return sticky_error_;
  if (durable_lsn_ < end) {
    return core::Status::Unavailable("wal flush fell short of checkpoint");
  }
  return end;
}

core::Status WalManager::EnsureDurable(Lsn lsn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!sticky_error_.ok()) return sticky_error_;
    if (durable_lsn_ >= lsn) return core::Status::Ok();
    if (options_.group_commit && !stop_) {
      urgent_flush_ = true;
      writer_cv_.notify_one();
      durable_cv_.wait(lock, [this, lsn] {
        return durable_lsn_ >= lsn || !sticky_error_.ok() || stop_;
      });
      if (!sticky_error_.ok()) return sticky_error_;
      if (durable_lsn_ < lsn) {
        return core::Status::Unavailable("wal shut down before flush");
      }
      return core::Status::Ok();
    }
  }
  // Inline mode (or a stopped writer): flush on the calling thread.
  Flush();
  std::lock_guard<std::mutex> lock(mu_);
  if (!sticky_error_.ok()) return sticky_error_;
  if (durable_lsn_ >= lsn) return core::Status::Ok();
  return core::Status::Unavailable("wal shut down before flush");
}

Lsn WalManager::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

Lsn WalManager::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

Lsn WalManager::truncated_lsn() const {
  std::lock_guard<std::mutex> lock(file_mu_);
  return truncated_lsn_;
}

core::Status WalManager::sticky_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sticky_error_;
}

WalStats WalManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace sdb::wal

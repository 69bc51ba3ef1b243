#ifndef SPATIALBUFFER_WAL_WAL_H_
#define SPATIALBUFFER_WAL_WAL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/access_context.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "wal/log_record.h"

namespace sdb::wal {

/// Construction knobs of a WalManager.
struct WalOptions {
  /// Group commit: run a dedicated writer thread that batches commit fsyncs
  /// inside a collection window. Off (the default) appends and flushes
  /// inline on the committing thread — fully deterministic, one fsync per
  /// commit, which is what tests and single-threaded replays want.
  bool group_commit = false;
  /// Collection window of the writer thread: after the first commit of a
  /// batch arrives the writer waits this long for stragglers before it
  /// flushes. 0 flushes as soon as the writer wakes.
  uint32_t group_window_us = 100;
  /// Bounded commit queue: at most this many commits may be waiting on the
  /// writer before further committers block (backpressure).
  size_t commit_queue_capacity = 64;
  /// Pages per log segment. Segments only rotate accounting (the log lives
  /// on one PageDevice), but the boundary is observable: stats count every
  /// segment the tail crosses, matching a file-per-segment layout.
  size_t segment_pages = 1024;
  /// Retry budget for one flush: a retryable device failure (transient
  /// write, failed sync) re-runs the whole write+sync attempt up to this
  /// many extra times before the error turns sticky. Each attempt rewrites
  /// every page of the block — the fsyncgate rule: a failed sync may have
  /// dropped anything written since the last successful one. Retries
  /// follow at once, so tests stay exact.
  uint32_t max_flush_retries = 3;
};

/// Counters of one WalManager, all maintained under its mutex.
struct WalStats {
  uint64_t appends = 0;        ///< records appended (images + commits + ckpts)
  uint64_t commits = 0;        ///< commit records, including steals
  uint64_t forced_steals = 0;  ///< commits forced by eviction of unlogged dirty
  uint64_t checkpoints = 0;
  uint64_t fsyncs = 0;         ///< durable flush batches
  uint64_t grouped_commits = 0;  ///< commits covered by those fsyncs
  uint64_t bytes_appended = 0;
  uint64_t segments_opened = 0;
  uint64_t segments_truncated = 0;  ///< whole segments zeroed by TruncateBelow
  uint64_t write_retries = 0;  ///< flush attempts re-run after retryable faults
};

/// Every WalStats counter under its exported metric name (the writable
/// service's metrics view; WalStats is the only store of these counts).
inline constexpr obs::StatsCounter<WalStats> kWalStatsCounters[] = {
    {"wal.appends", &WalStats::appends},
    {"wal.commits", &WalStats::commits},
    {"wal.forced_steals", &WalStats::forced_steals},
    {"wal.checkpoints", &WalStats::checkpoints},
    {"wal.fsyncs", &WalStats::fsyncs},
    {"wal.grouped_commits", &WalStats::grouped_commits},
    {"wal.bytes_appended", &WalStats::bytes_appended},
    {"wal.segments_opened", &WalStats::segments_opened},
    {"wal.segments_truncated", &WalStats::segments_truncated},
    {"wal.write_retries", &WalStats::write_retries},
};

/// One page image queued for a commit group.
struct PageImageRef {
  storage::PageId page = storage::kInvalidPageId;
  std::span<const std::byte> bytes;
};

/// Append-only, segmented, redo-only write-ahead log over a PageDevice.
///
/// The log is a byte stream of checksummed records (log_record.h) stored in
/// page-size blocks on its own device — its *own*, never the data device, so
/// the fault layer can tear the log tail without touching data pages. An LSN
/// is a byte offset into that stream; durability is tracked as the stream
/// prefix that has reached the device.
///
/// Commit protocol: CommitPages appends the group's page images plus one
/// commit record while holding the log mutex, so groups are contiguous —
/// recovery may treat every image before a commit record as committed.
/// In group-commit mode the committer then blocks until the writer thread's
/// next batched flush covers its commit record; many committers share one
/// device flush ("fsync"), which is the throughput lever the bench measures.
///
/// Thread-safe, with two latches: the queue latch `mu_` covers the append
/// tail, LSN bookkeeping and the commit queue, while the file latch
/// `file_mu_` covers device writes (flushes and truncation). A flush claims
/// the tail under `mu_`, writes it out holding only `file_mu_`, then
/// re-acquires `mu_` to publish durability — so committers keep appending
/// (and the queue keeps draining) while a flush or checkpoint is writing
/// pages. Lock order is file_mu_ -> mu_; mu_ is never held across a device
/// write. The writer thread (group-commit mode only) is joined by
/// Shutdown()/the destructor, which then runs one final flush.
class WalManager {
 public:
  /// `device` must outlive the manager and must start empty (recovery
  /// re-opens a log by scanning, not by instantiating a WalManager on it).
  explicit WalManager(storage::PageDevice* device,
                      WalOptions options = WalOptions{});
  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Appends the images and a commit record as one contiguous group and
  /// makes the group durable (inline, or via the writer thread's next
  /// batched flush). `data_page_count` is stamped into the commit record so
  /// recovery can bound byte-exactness to committed pages. Returns the LSN
  /// just past the commit record — the caller's new durable horizon.
  core::StatusOr<Lsn> CommitPages(std::span<const PageImageRef> images,
                                  uint64_t data_page_count,
                                  const core::AccessContext& ctx,
                                  bool forced_steal = false);

  /// Appends a checkpoint record and makes it durable. Without a `redo_lsn`
  /// the record is *strict* (empty payload): the caller must have forced
  /// every committed dirty page to the data device first, and recovery
  /// redoes nothing before it. With one the checkpoint is *fuzzy*: the
  /// record carries that redo low-water mark (a value of 0 is legal and
  /// just means "replay everything"), dirty pages stay in the pool, and
  /// recovery replays committed images from `redo_lsn` on. Fuzzy
  /// checkpoints run concurrently with mutators and license
  /// TruncateBelow(redo_lsn) once durable.
  core::StatusOr<Lsn> AppendCheckpoint(uint64_t data_page_count,
                                       const core::AccessContext& ctx,
                                       std::optional<Lsn> redo_lsn = {});

  /// Zeros every whole log segment strictly below `lsn` (clamped to the
  /// durable prefix), reclaiming the space a durable fuzzy checkpoint made
  /// dead. Segments are zeroed in ascending page order, so a crash at any
  /// point leaves the log with a zero prefix — which recovery's start
  /// discovery skips — never a gap that could resurrect stale records. The
  /// caller must only pass a redo_lsn whose checkpoint record is durable.
  core::Status TruncateBelow(Lsn lsn);

  /// Stops accepting group commits, joins the writer thread and runs one
  /// final flush, so everything appended before the call is durable when it
  /// returns. Committers blocked in CommitPages observe the shutdown and
  /// return Unavailable (their records may still become durable — an
  /// unacknowledged commit is replayed by recovery, which is the usual
  /// weakening). Idempotent; the destructor calls it.
  void Shutdown();

  /// Blocks until the stream prefix [0, lsn) is on the device. The
  /// write-ahead rule: eviction write-back of a logged page calls this with
  /// the page's LSN before touching the data device.
  core::Status EnsureDurable(Lsn lsn);

  /// Next LSN to be assigned (current end of the appended stream).
  Lsn next_lsn() const;
  /// End of the durable prefix.
  Lsn durable_lsn() const;
  /// End of the zeroed (truncated) prefix; always a segment boundary.
  Lsn truncated_lsn() const;
  /// The sticky terminal error, Ok while the log is healthy. Once set (a
  /// device failure that survived the retry budget) the log stops flushing
  /// and every commit/durability call returns this error — the service's
  /// trigger for degraded read-only mode. The in-memory tail still holds
  /// every unflushed byte (the failed flush restores its claim), so nothing
  /// acknowledged was lost: it was never acknowledged.
  core::Status sticky_error() const;

  WalStats stats() const;
  const WalOptions& options() const { return options_; }
  storage::PageDevice& device() { return *device_; }

 private:
  struct AppendedGroup {
    Lsn end = kNullLsn;
    core::Status status = core::Status::Ok();
  };

  /// Appends one record to the tail. Caller holds mu_.
  Lsn AppendLocked(RecordType type, uint64_t page,
                   std::span<const std::byte> payload);
  /// Claims the tail (under mu_), writes it out in page-size blocks (under
  /// file_mu_ only) and publishes the new durable_lsn_. Caller must hold
  /// NEITHER latch. Retries retryable device failures up to
  /// max_flush_retries; a terminal failure restores the claimed bytes to
  /// the tail, sets sticky_error_ and wakes every waiter.
  void Flush();
  /// One flush attempt: allocate missing log pages, write the whole block,
  /// then Sync. Caller holds file_mu_. Never publishes durability — a
  /// non-OK return means nothing in the block may be assumed on the device.
  core::Status WriteBlockAndSync(storage::PageId first_page, size_t page_count,
                                 std::span<const std::byte> block);
  /// Group-commit writer thread body.
  void WriterLoop();

  storage::PageDevice* device_;
  const WalOptions options_;
  const size_t page_size_;

  /// File latch: serializes device writes (flush blocks, truncation) and
  /// guards partial_/truncated_lsn_. Acquired before mu_, never inside it.
  mutable std::mutex file_mu_;
  std::vector<std::byte> partial_;  ///< durable bytes of the tail page
  Lsn truncated_lsn_ = 0;           ///< zeroed prefix end (segment-aligned)

  /// Queue latch: append tail, LSN bookkeeping, commit queue, stats.
  mutable std::mutex mu_;
  std::condition_variable writer_cv_;   ///< wakes the writer thread
  std::condition_variable durable_cv_;  ///< wakes committers / EnsureDurable
  std::condition_variable space_cv_;    ///< wakes committers on queue space

  std::vector<std::byte> tail_;  ///< appended, not yet claimed by a flush
  Lsn next_lsn_ = 0;
  Lsn durable_lsn_ = 0;
  size_t pending_commits_ = 0;  ///< commits waiting on the writer thread
  bool urgent_flush_ = false;   ///< EnsureDurable wants the window skipped
  bool stop_ = false;
  core::Status sticky_error_ = core::Status::Ok();

  WalStats stats_;

  std::thread writer_;
};

}  // namespace sdb::wal

#endif  // SPATIALBUFFER_WAL_WAL_H_

#ifndef SPATIALBUFFER_WAL_RECOVERY_H_
#define SPATIALBUFFER_WAL_RECOVERY_H_

#include <cstdint>

#include "core/access_context.h"
#include "core/status.h"
#include "obs/collector.h"
#include "storage/disk_manager.h"
#include "wal/log_record.h"

namespace sdb::wal {

/// Knobs of one Recover call.
struct RecoveryOptions {
  /// Worker threads for the replay pass. 0 (the default) reads
  /// SDB_REDO_WORKERS from the environment, falling back to 1. With 1 the
  /// replay runs serially on the calling thread, byte-for-byte the legacy
  /// path. More than one partitions committed images by page-id hash across
  /// a thread pool — byte-identical to serial because each page's images
  /// all land on one worker, in log order — and requires the data device to
  /// answer SupportsConcurrentWrites(); otherwise the replay stays serial.
  size_t redo_workers = 0;
};

/// Outcome of one redo pass.
struct RecoveryResult {
  /// Records in the valid log prefix (images + commits + checkpoints).
  uint64_t scanned_records = 0;
  /// Page images replayed onto the data device.
  uint64_t replayed_pages = 0;
  /// Byte length of the valid log prefix; everything past it failed
  /// validation (torn tail, zeros, stale bytes) and was discarded.
  Lsn valid_prefix = kNullLsn;
  /// LSN of the last commit record (kNullLsn when the log commits nothing).
  Lsn last_commit_lsn = kNullLsn;
  /// LSN of the last checkpoint record (kNullLsn when none).
  Lsn last_checkpoint_lsn = kNullLsn;
  /// Data-device page count stamped into the last commit (or checkpoint,
  /// whichever is later). Pages at or beyond this id were never committed;
  /// byte-exactness checks must ignore them.
  uint64_t committed_page_count = 0;
  /// True when invalid bytes followed the valid prefix within the allocated
  /// log pages — the signature of a torn tail, as opposed to a clean end.
  bool torn_tail = false;
  /// Threads that ran the replay pass (1 = serial on the caller).
  size_t redo_workers = 1;
};

/// ARIES-style redo-only recovery: scans the log's valid prefix, then
/// replays every committed physical page image that follows the last
/// checkpoint onto the data device, in log order. Uncommitted images — any
/// image after the last valid commit record — are discarded, which is
/// exactly safe because the write-ahead rule guarantees the data device
/// never saw them. Idempotent: replaying an already-applied image rewrites
/// identical bytes (and re-stamps the same CRC sidecar). A checkpoint
/// record must have an empty payload; one that carries a payload fails the
/// call with kDataLoss before anything is replayed.
///
/// `log` is read page-by-page (counting toward its stats); pages missing
/// from `data` are allocated before being replayed.
core::StatusOr<RecoveryResult> Recover(storage::PageDevice& log,
                                       storage::PageDevice& data,
                                       const core::AccessContext& ctx = {},
                                       obs::Collector* collector = nullptr,
                                       const RecoveryOptions& options = {});

}  // namespace sdb::wal

#endif  // SPATIALBUFFER_WAL_RECOVERY_H_

#include "wal/recovery.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "obs/trace.h"

namespace sdb::wal {

namespace {

size_t ResolveRedoWorkers(size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SDB_REDO_WORKERS");
      env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 1;
}

/// One committed page image selected for replay; `bytes` aliases the
/// scanned stream.
struct ReplayImage {
  storage::PageId page = storage::kInvalidPageId;
  std::span<const std::byte> bytes;
};

}  // namespace

core::StatusOr<RecoveryResult> Recover(storage::PageDevice& log,
                                       storage::PageDevice& data,
                                       const core::AccessContext& ctx,
                                       obs::Collector* collector,
                                       const RecoveryOptions& options) {
  obs::ScopedSpan span(ctx.span, obs::SpanKind::kRecovery);

  const size_t page_size = log.page_size();
  const size_t log_pages = log.page_count();
  std::vector<std::byte> stream(log_pages * page_size);
  for (size_t p = 0; p < log_pages; ++p) {
    const core::Status status =
        log.Read(static_cast<storage::PageId>(p),
                 {stream.data() + p * page_size, page_size});
    if (!status.ok()) return status;
  }

  // Pass 1: walk the valid prefix. The scan stops at the first record that
  // fails validation — magic, type, length bound, LSN-equals-offset, or
  // CRC — which is how a torn flush manifests. Records are only *located*
  // here; whether an image replays is decided by the redo horizon below.
  RecoveryResult result;
  Lsn last_commit_start = kNullLsn;
  bool any_commit = false;
  Lsn redo_horizon = kNullLsn;
  Lsn offset = kNullLsn;
  while (true) {
    const std::optional<ParsedRecord> record = ParseRecordAt(stream, offset);
    if (!record.has_value()) break;
    ++result.scanned_records;
    switch (record->header.type) {
      case RecordType::kPageImage:
        break;
      case RecordType::kCommit:
        last_commit_start = offset;
        any_commit = true;
        result.last_commit_lsn = offset;
        result.committed_page_count = record->header.page;
        break;
      case RecordType::kCheckpoint:
        // A checkpoint asserts that every committed image before it is on
        // the data device. One with a payload was written under another
        // contract (a redo horizon below the record): skipping to its end
        // would drop committed images, so refuse the log instead.
        if (!record->payload.empty()) {
          return core::Status::DataLoss("checkpoint record carries a payload");
        }
        result.last_checkpoint_lsn = offset;
        result.committed_page_count = record->header.page;
        redo_horizon = record->end;
        break;
    }
    offset = record->end;
  }
  result.valid_prefix = offset;
  // A clean end leaves only zero padding behind; anything else in the
  // allocated log pages means a record was torn mid-flush.
  for (size_t i = offset; i < stream.size(); ++i) {
    if (stream[i] != std::byte{0}) {
      result.torn_tail = true;
      break;
    }
  }

  // Pass 2: redo. Replay every committed image between the last
  // checkpoint's end and the last commit, in log order. Images before the
  // checkpoint are already on the data device; images after the last
  // commit record are uncommitted and must not reach it.
  if (any_commit) {
    obs::Counter* replayed_metric =
        collector == nullptr
            ? nullptr
            : collector->metrics().GetCounter("wal.recovery_replayed");
    std::vector<ReplayImage> images;
    offset = redo_horizon;
    while (offset < last_commit_start) {
      const std::optional<ParsedRecord> record = ParseRecordAt(stream, offset);
      SDB_CHECK(record.has_value());  // pass 1 validated this prefix
      if (record->header.type == RecordType::kPageImage) {
        images.push_back(
            {static_cast<storage::PageId>(record->header.page),
             record->payload});
      }
      offset = record->end;
    }

    size_t workers = 1;
    if (!images.empty() && data.SupportsConcurrentWrites()) {
      workers = std::min(ResolveRedoWorkers(options.redo_workers),
                         images.size());
    }
    result.redo_workers = std::max<size_t>(workers, 1);

    if (workers <= 1) {
      // Serial replay, page allocation interleaved with the writes —
      // byte-for-byte (and stats-for-stats) the single-threaded path.
      for (const ReplayImage& image : images) {
        while (data.page_count() <= image.page) {
          const core::StatusOr<storage::PageId> allocated = data.Allocate();
          if (!allocated.ok()) return allocated.status();
        }
        const core::Status status = data.Write(image.page, image.bytes);
        if (!status.ok()) return status;
        ++result.replayed_pages;
        if (replayed_metric != nullptr) replayed_metric->Add();
      }
    } else {
      // Parallel replay: allocate serially up front, then partition images
      // by page-id hash so each page's images land on exactly one worker,
      // in log order — which makes the result byte-identical to serial
      // regardless of worker count or scheduling.
      storage::PageId max_page = 0;
      for (const ReplayImage& image : images) {
        max_page = std::max(max_page, image.page);
      }
      while (data.page_count() <= max_page) {
        const core::StatusOr<storage::PageId> allocated = data.Allocate();
        if (!allocated.ok()) return allocated.status();
      }
      std::vector<core::Status> statuses(workers, core::Status::Ok());
      std::vector<uint64_t> replayed(workers, 0);
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
          for (const ReplayImage& image : images) {
            // Mixed, so adjacent page ids spread over the workers instead
            // of striping hot ranges onto one.
            if (Mix64(image.page) % workers != w) continue;
            const core::Status status =
                data.WriteConcurrent(image.page, image.bytes);
            if (!status.ok()) {
              statuses[w] = status;
              return;
            }
            ++replayed[w];
          }
        });
      }
      for (std::thread& worker : pool) worker.join();
      for (size_t w = 0; w < workers; ++w) {
        if (!statuses[w].ok()) return statuses[w];
        result.replayed_pages += replayed[w];
      }
      if (replayed_metric != nullptr) {
        replayed_metric->Add(result.replayed_pages);
      }
    }
  }

  span.set_payload(result.replayed_pages);
  span.set_flag(result.torn_tail);
  return result;
}

}  // namespace sdb::wal

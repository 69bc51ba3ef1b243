#include "svc/flush_coordinator.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/macros.h"
#include "svc/buffer_service.h"

namespace sdb::svc {

namespace {

/// Poll cadence while idle. A Nudge() (after every service commit) wakes
/// the workers immediately; the timer is the backstop that keeps watermark
/// pressure bounded between commits.
constexpr std::chrono::microseconds kIdleWait{200};
/// Failed rounds in a row on one shard before the worker starts skipping it
/// instead of hot-spinning its failing device: past the threshold the shard
/// sits out 2, 4, 8, ... rounds (doubling per further failure, flat at
/// kMaxBackoffRounds). Any successful round resets the shard to full
/// cadence.
constexpr uint64_t kMaxConsecutiveErrors = 3;
constexpr uint64_t kMaxBackoffRounds = 64;

}  // namespace

FlushCoordinator::FlushCoordinator(BufferService* service,
                                   FlushCoordinatorOptions options)
    : service_(service), options_(options) {
  SDB_CHECK(service_ != nullptr);
  SDB_CHECK_MSG(options_.threads > 0, "coordinator needs at least one worker");
  SDB_CHECK_MSG(options_.batch_pages > 0, "flusher batch must hold pages");
  workers_.reserve(options_.threads);
  for (size_t w = 0; w < options_.threads; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

FlushCoordinator::~FlushCoordinator() { Stop(); }

void FlushCoordinator::Nudge() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++nudges_;
  }
  cv_.notify_all();
}

void FlushCoordinator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

FlushCoordinatorStats FlushCoordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void FlushCoordinator::WorkerLoop(size_t worker) {
  const core::AccessContext ctx;  // background traffic: query id 0
  uint64_t seen_nudges = 0;
  // Per-shard failure state, worker-local: shards are owned round-robin, so
  // no other worker ever touches these slots. A persistently failing shard
  // backs off exponentially instead of burning a core against its device.
  std::vector<uint64_t> consecutive_errors(service_->shard_count(), 0);
  std::vector<uint64_t> skip_rounds(service_->shard_count(), 0);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, kIdleWait, [this, seen_nudges] {
        return stop_ || nudges_ != seen_nudges;
      });
      if (stop_) return;
      seen_nudges = nudges_;
      ++stats_.wakeups;
    }
    // One pass over this worker's shards; while any shard still yields a
    // full batch, pass again immediately — the dirty set is outrunning the
    // idle cadence (e.g. right after a large commit group).
    bool saturated = true;
    while (saturated) {
      saturated = false;
      for (size_t s = worker; s < service_->shard_count();
           s += options_.threads) {
        if (skip_rounds[s] > 0) {
          --skip_rounds[s];
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.backoff_skips;
          continue;
        }
        const core::StatusOr<size_t> flushed =
            service_->FlushShardBatch(s, options_.batch_pages, ctx);
        if (!flushed.ok()) {
          // The shard keeps its dirty frames (FlushFrames failed mid-batch
          // leaves unflushed candidates dirty); eviction's synchronous
          // fallback still guards correctness, so record, back off the
          // shard if it keeps failing, and move on.
          ++consecutive_errors[s];
          uint64_t backoff = 0;
          if (consecutive_errors[s] > kMaxConsecutiveErrors) {
            const uint64_t over = consecutive_errors[s] - kMaxConsecutiveErrors;
            backoff = over >= 63 ? kMaxBackoffRounds
                                 : std::min(uint64_t{1} << over,
                                            kMaxBackoffRounds);
            skip_rounds[s] = backoff;
          }
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.flush_errors;
          }
          if (backoff > 0) {
            service_->NoteFlushBackoff(s, consecutive_errors[s], backoff);
          }
          continue;
        }
        consecutive_errors[s] = 0;
        std::lock_guard<std::mutex> lock(mu_);
        if (*flushed > 0) {
          ++stats_.harvest_rounds;
          stats_.pages_flushed += *flushed;
          if (*flushed == options_.batch_pages) saturated = true;
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
      }
    }
  }
}

}  // namespace sdb::svc

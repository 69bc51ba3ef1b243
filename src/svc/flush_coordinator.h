#ifndef SPATIALBUFFER_SVC_FLUSH_COORDINATOR_H_
#define SPATIALBUFFER_SVC_FLUSH_COORDINATOR_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace sdb::svc {

class BufferService;

/// Aggregate counters of one coordinator (sampled under its mutex).
struct FlushCoordinatorStats {
  uint64_t pages_flushed = 0;  ///< dirty pages written back in background
  uint64_t flush_errors = 0;   ///< rounds abandoned on a device error
  uint64_t backoff_skips = 0;  ///< rounds a backed-off shard sat out
};

/// Background write-back pump of a writable BufferService: N threads that
/// have each shard write its oldest logged dirty frames to the data device
/// off the foreground pin path. Pure scheduling — which pages go and when
/// (watermarks, steal avoidance, write-ahead) is decided by
/// core::BufferManager::FlushOldestDirty under BufferService::FlushShardBatch,
/// so a stopped coordinator degrades to the synchronous-eviction behaviour
/// rather than to anything unsafe. The service must outlive the
/// coordinator; the destructor stops and joins the workers.
class FlushCoordinator {
 public:
  /// Starts `threads` workers (at least one). Shards are assigned
  /// round-robin (worker w owns shards w, w + threads, ...), so two workers
  /// never contend for one shard's latch.
  FlushCoordinator(BufferService* service, size_t threads);
  ~FlushCoordinator();

  FlushCoordinator(const FlushCoordinator&) = delete;
  FlushCoordinator& operator=(const FlushCoordinator&) = delete;

  /// Wakes every worker: the dirty set may have grown (the service calls
  /// this after each commit group).
  void Nudge();

  /// Stops and joins the workers. Idempotent; the destructor calls it.
  void Stop();

  FlushCoordinatorStats stats() const;

 private:
  void WorkerLoop(size_t worker);

  BufferService* service_;
  const size_t threads_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t nudges_ = 0;  ///< monotone; workers wait on it changing
  FlushCoordinatorStats stats_;

  std::vector<std::thread> workers_;
};

}  // namespace sdb::svc

#endif  // SPATIALBUFFER_SVC_FLUSH_COORDINATOR_H_

#ifndef SPATIALBUFFER_SIM_EXPERIMENT_H_
#define SPATIALBUFFER_SIM_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/buffer_manager.h"
#include "obs/collector.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "workload/query_generator.h"

namespace sdb::sim {

/// Options of one measured run.
struct RunOptions {
  size_t buffer_frames = 64;
  /// Observability sink for the run's buffer and policy (nullptr = none).
  /// The collector must outlive the call. When one is attached the run
  /// exports RunResult::metrics.
  obs::Collector* collector = nullptr;
  /// When enabled(), the run reads through a FaultInjectingDevice wrapping
  /// its private view; the buffer retries/recovers per `resilience`. The
  /// device's clean-read accounting keeps `RunResult::io` (the paper's
  /// metric) bit-identical to a fault-free run whenever every injected
  /// fault is recovered.
  storage::FaultProfile fault_profile;
  /// Retry/checksum/quarantine knobs of the run's buffer.
  core::ResilienceOptions resilience;
};

/// Result of replaying one query set through one buffer configuration.
struct RunResult {
  std::string policy;
  std::string query_set;
  size_t buffer_frames = 0;
  uint64_t disk_reads = 0;      ///< the paper's metric
  uint64_t sequential_reads = 0;  ///< reads at previous-page + 1
  /// The run's buffer counters: requests, hits, evictions and — under a
  /// fault profile — the retry/recovery ledger.
  core::BufferStats buffer;
  uint64_t result_objects = 0;  ///< total query results (answer checksum)
  /// LRU-K only: history records retained for pages no longer buffered at
  /// the end of the run — the unbounded memory overhead the paper holds
  /// against LRU-K (0 for every other policy).
  uint64_t retained_history_records = 0;
  /// Complete per-view device counters (the fields above are the two the
  /// paper charts; the full struct keeps writes and the random/sequential
  /// split from being discarded when runs execute on private disk views).
  storage::IoStats io;
  /// End-of-run metrics view when a collector was attached (empty
  /// otherwise): the buffer's export (core::BufferManager::ExportMetrics)
  /// plus disk.reads, disk.sequential_reads and, for LRU-K, the
  /// lru_k.retained_history gauge.
  obs::MetricsSnapshot metrics;
  /// True when the run executed through a FaultInjectingDevice (even if it
  /// injected nothing). Reporting keys fault fields off this flag so
  /// fault-free output stays byte-identical.
  bool fault_injection = false;
  /// Faults the device injected (zero without a fault profile). The
  /// recovery ledger must balance: faults_injected ==
  /// buffer.io_read_retries + buffer.io_permanent_failures.
  uint64_t faults_injected = 0;
  /// Query fetches that failed terminally and were absorbed by traversal
  /// (subtree pruned); nonzero means result_objects is a lower bound.
  uint64_t io_errors = 0;

  double hit_rate() const { return buffer.HitRate(); }
};

/// Relative performance gain as reported throughout the paper:
/// |disk accesses of LRU| / |disk accesses of policy| - 1.
double GainVersus(const RunResult& baseline, const RunResult& result);

/// Reconstructs the Fig. 14 per-query candidate-set-size trace from an ASB
/// event stream: entry q-1 is c after query q (query ids are 1-based, as
/// issued by RunQuerySet). Requires the stream's kAsbInit event and every
/// kAsbAdapt event — i.e. an unbounded or sufficiently large ring with
/// dropped() == 0; aborts otherwise. Returns an empty vector if the stream
/// holds no kAsbInit (non-ASB run).
std::vector<size_t> AsbCandidateTrace(const obs::EventRing& events,
                                      size_t query_count);

/// Replays `queries` against the persisted tree on `disk` (meta page
/// `tree_meta`) through a *fresh* buffer of `options.buffer_frames` frames
/// managed by the policy created from `policy_spec` ("LRU", "LRU-2", "A",
/// "SLRU:A:0.25", "ASB", ...). The buffer starts cold (the paper clears the
/// buffer before each query set); every query gets its own query id so
/// LRU-K's correlation detection works as specified. Aborts on an unknown
/// policy spec.
///
/// The run performs its I/O through a private ReadOnlyDiskView, so the
/// shared disk image is never written and its device counters are never
/// touched: any number of RunQuerySet calls over the same disk may execute
/// concurrently (the sweep runner does exactly that), provided nothing
/// mutates the disk meanwhile.
RunResult RunQuerySet(const storage::DiskManager& disk,
                      storage::PageId tree_meta,
                      const std::string& policy_spec,
                      const workload::QuerySet& queries,
                      const RunOptions& options);

/// Pointer-taking convenience wrapper (the historical signature).
inline RunResult RunQuerySet(storage::DiskManager* disk,
                             storage::PageId tree_meta,
                             const std::string& policy_spec,
                             const workload::QuerySet& queries,
                             const RunOptions& options) {
  return RunQuerySet(*disk, tree_meta, policy_spec, queries, options);
}

}  // namespace sdb::sim

#endif  // SPATIALBUFFER_SIM_EXPERIMENT_H_

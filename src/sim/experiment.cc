#include "sim/experiment.h"

#include "common/macros.h"
#include "core/buffer_manager.h"
#include "core/policy_lru_k.h"
#include "core/policy_factory.h"
#include "rtree/rtree.h"
#include "storage/disk_view.h"

namespace sdb::sim {

double GainVersus(const RunResult& baseline, const RunResult& result) {
  SDB_CHECK(result.disk_reads > 0);
  return static_cast<double>(baseline.disk_reads) /
             static_cast<double>(result.disk_reads) -
         1.0;
}

std::vector<size_t> AsbCandidateTrace(const obs::EventRing& events,
                                      size_t query_count) {
  // (query, c-after-that-query) change points, in stream order.
  bool saw_init = false;
  size_t current = 0;
  std::vector<std::pair<uint64_t, size_t>> changes;
  events.ForEach([&](const obs::Event& event) {
    switch (event.kind) {
      case obs::EventKind::kAsbInit:
        saw_init = true;
        current = static_cast<size_t>(event.c);
        break;
      case obs::EventKind::kAsbAdapt:
        changes.emplace_back(event.query, static_cast<size_t>(event.c));
        break;
      default:
        break;
    }
  });
  if (!saw_init) return {};
  SDB_CHECK_MSG(events.dropped() == 0,
                "candidate trace needs the complete event stream");
  std::vector<size_t> trace;
  trace.reserve(query_count);
  size_t next = 0;
  for (uint64_t q = 1; q <= query_count; ++q) {
    while (next < changes.size() && changes[next].first <= q) {
      current = changes[next].second;
      ++next;
    }
    trace.push_back(current);
  }
  return trace;
}

RunResult RunQuerySet(const storage::DiskManager& disk,
                      storage::PageId tree_meta,
                      const std::string& policy_spec,
                      const workload::QuerySet& queries,
                      const RunOptions& options) {
  std::unique_ptr<core::ReplacementPolicy> policy =
      core::CreatePolicy(policy_spec);
  SDB_CHECK_MSG(policy != nullptr, "unknown policy spec");

  // Per-run read-only view: this run's I/O counters are private, so many
  // runs can share one disk image concurrently. The view aborts on writes —
  // replay is read-only by contract. With a fault profile the buffer reads
  // through an injecting wrapper instead; the wrapper's stats() still
  // report clean reads only, so `result.io` stays comparable.
  storage::ReadOnlyDiskView view(disk);
  std::unique_ptr<storage::FaultInjectingDevice> fault_device;
  storage::PageDevice* device = &view;
  if (options.fault_profile.enabled()) {
    fault_device = std::make_unique<storage::FaultInjectingDevice>(
        view, options.fault_profile);
    device = fault_device.get();
  }
  core::BufferManager buffer(device, options.buffer_frames,
                             std::move(policy), options.collector);

  const rtree::RTree tree = rtree::RTree::Open(&disk, &buffer, tree_meta);

  RunResult result;
  result.policy = std::string(buffer.policy().name());
  result.query_set = queries.name;
  result.buffer_frames = options.buffer_frames;

  uint64_t query_id = 0;
  for (const geom::Rect& window : queries.queries) {
    const core::AccessContext ctx{++query_id};
    tree.WindowQueryVisit(window, ctx,
                          [&result](const rtree::Entry&) {
                            ++result.result_objects;
                          });
  }

  const auto* lru_k = dynamic_cast<const core::LruKPolicy*>(&buffer.policy());
  if (lru_k != nullptr) {
    result.retained_history_records = lru_k->retained_history_size();
  }
  // Clean-read counters: with a fault device these exclude faulted
  // attempts, so a fully-recovered run matches the fault-free run exactly.
  result.io = device->stats();
  result.disk_reads = result.io.reads;
  result.sequential_reads = result.io.sequential_reads;
  result.buffer = buffer.stats();
  if (fault_device != nullptr) {
    result.fault_injection = true;
    result.faults_injected = fault_device->fault_stats().injected();
  }
  result.io_errors = tree.io_errors();
  SDB_CHECK_MSG(view.stats().writes == 0,
                "read-only replay must not write");
  if (buffer.collector() != nullptr) {
    obs::MetricsRegistry registry;
    buffer.ExportMetrics(&registry);
    registry.GetCounter("disk.reads")->Add(result.io.reads);
    registry.GetCounter("disk.sequential_reads")
        ->Add(result.io.sequential_reads);
    if (lru_k != nullptr) {
      registry.GetGauge("lru_k.retained_history")
          ->Set(static_cast<double>(result.retained_history_records));
    }
    result.metrics = registry.Snapshot();
  }
  return result;
}

}  // namespace sdb::sim

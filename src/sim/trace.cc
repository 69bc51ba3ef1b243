#include "sim/trace.h"

#include "common/macros.h"
#include "core/buffer_manager.h"
#include "core/policy_factory.h"
#include "obs/collector.h"
#include "rtree/rtree.h"

namespace sdb::sim {

AccessTrace RecordQueryTrace(storage::DiskManager* disk,
                             storage::PageId tree_meta,
                             const workload::QuerySet& queries,
                             size_t buffer_frames,
                             const std::string& policy_spec) {
  std::unique_ptr<core::ReplacementPolicy> policy =
      core::CreatePolicy(policy_spec);
  SDB_CHECK_MSG(policy != nullptr, "unknown policy spec");
  // Access-recording collector: every Fetch/New lands in the event ring as
  // one kPageAccess event, in request order. Unbounded ring — a trace is
  // only useful complete.
  obs::CollectorOptions options;
  options.record_accesses = true;
  options.event_capacity = obs::EventRing::kUnbounded;
  obs::Collector collector(options);
  core::BufferManager buffer(disk, buffer_frames, std::move(policy),
                             &collector);
  const rtree::RTree tree = rtree::RTree::Open(disk, &buffer, tree_meta);
  uint64_t query_id = 0;
  for (const geom::Rect& window : queries.queries) {
    const core::AccessContext ctx{++query_id};
    tree.WindowQueryVisit(window, ctx, [](const rtree::Entry&) {});
  }
  AccessTrace trace;
  trace.name = queries.name;
  trace.accesses.reserve(collector.events().size());
  collector.events().ForEach([&trace](const obs::Event& event) {
    if (event.kind != obs::EventKind::kPageAccess) return;
    trace.accesses.push_back(
        {static_cast<storage::PageId>(event.page), event.query});
  });
  return trace;
}

ReplayResult ReplayTrace(storage::DiskManager* disk, const AccessTrace& trace,
                         const std::string& policy_spec,
                         size_t buffer_frames) {
  std::unique_ptr<core::ReplacementPolicy> policy =
      core::CreatePolicy(policy_spec);
  SDB_CHECK_MSG(policy != nullptr, "unknown policy spec");
  core::BufferManager buffer(disk, buffer_frames, std::move(policy));
  ReplayResult result;
  result.policy = std::string(buffer.policy().name());
  disk->ResetStats();
  for (const PageAccess& access : trace.accesses) {
    const core::AccessContext ctx{access.query_id};
    core::PageHandle handle = buffer.FetchOrDie(access.page, ctx);
    handle.Release();
  }
  result.requests = buffer.stats().requests;
  result.disk_reads = disk->stats().reads;
  result.hits = buffer.stats().hits;
  return result;
}

}  // namespace sdb::sim

#include "svc/session_executor.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "core/access_context.h"
#include "rtree/rtree.h"

namespace sdb::svc {

void PinLatencyHistogram::Record(double ns) {
  size_t b = 0;
  while (b < std::size(kPinLatencyBoundsNs) && ns > kPinLatencyBoundsNs[b]) {
    ++b;
  }
  ++counts[b];
  sum_ns += ns;
  ++observations;
}

void PinLatencyHistogram::MergeFrom(const PinLatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) counts[b] += other.counts[b];
  sum_ns += other.sum_ns;
  observations += other.observations;
}

SessionExecutor::SessionExecutor(const storage::DiskManager* disk,
                                 core::PageSource* source,
                                 storage::PageId tree_meta,
                                 const SessionExecutorConfig& config)
    : disk_(disk), source_(source), tree_meta_(tree_meta), config_(config) {
  SDB_CHECK(config_.workers > 0);
  SDB_CHECK(config_.queue_capacity > 0);
  workers_.reserve(config_.workers);
  for (size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SessionExecutor::~SessionExecutor() { Finish(); }

void SessionExecutor::Submit(const workload::QuerySet& session) {
  SDB_CHECK_MSG(session.queries.size() < config_.query_id_stride,
                "session longer than the query-id stride");
  std::unique_lock<std::mutex> lock(mu_);
  SDB_CHECK_MSG(!closed_, "Submit after Finish");
  if (queue_.size() >= config_.queue_capacity) {
    ++backpressure_waits_;
    not_full_.wait(lock, [this] {
      return queue_.size() < config_.queue_capacity;
    });
  }
  const size_t index = submitted_++;
  results_.emplace_back();
  queue_.push_back(Pending{index, session});
  max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  lock.unlock();
  not_empty_.notify_one();
}

std::vector<SessionResult> SessionExecutor::Finish() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  if (!finished_) {
    for (std::thread& worker : workers_) worker.join();
    finished_ = true;
  }
  std::vector<SessionResult> results(results_.begin(), results_.end());
  return results;
}

SessionExecutorStats SessionExecutor::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  SessionExecutorStats stats;
  stats.sessions = submitted_;
  stats.backpressure_waits = backpressure_waits_;
  stats.max_queue_depth = max_queue_depth_;
  return stats;
}

PinLatencyHistogram SessionExecutor::pin_latency() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pin_latency_;
}

void SessionExecutor::WorkerLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    SessionResult result = RunSession(pending.index, pending.session);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      results_[pending.index] = std::move(result);
    }
  }
}

SessionResult SessionExecutor::RunSession(size_t index,
                                          const workload::QuerySet& session) {
  SessionResult result;
  result.index = index;
  result.name = session.name;
  result.queries = session.queries.size();

  // Per-session access counter over the shared source; the tree itself is
  // opened per session (traversal holds no shared state).
  CountingSource counting(source_, config_.record_pin_latency);
  const rtree::RTree tree = rtree::RTree::Open(disk_, &counting, tree_meta_);

  const uint64_t logical =
      static_cast<uint64_t>(index) + config_.session_index_offset;
  uint64_t query_id = logical * config_.query_id_stride;
  // The session span is its own trace (trace id = the query-id base, which
  // no query uses — ids start at base + 1) on the session's track; sampled
  // queries land on the same track, so the viewer nests them by time.
  obs::SpanContext session_span;
  if (config_.tracer != nullptr) {
    session_span.tracer = config_.tracer;
    session_span.trace_id = query_id;
    session_span.track = static_cast<uint32_t>(logical);
  }
  obs::ScopedSpan session_scope(
      config_.tracer != nullptr ? &session_span : nullptr,
      obs::SpanKind::kSession);
  session_scope.set_payload(session.queries.size());
  for (const geom::Rect& window : session.queries) {
    core::AccessContext ctx{++query_id};
    // Deterministic sampling decision (pure function of the query id), one
    // fresh per-query context so span ids restart at 1 in every trace.
    obs::SpanContext query_span;
    if (config_.tracer != nullptr && config_.tracer->ShouldSample(query_id)) {
      query_span.tracer = config_.tracer;
      query_span.trace_id = query_id;
      query_span.track = static_cast<uint32_t>(logical);
      ctx.span = &query_span;
    }
    obs::ScopedSpan query_scope(ctx.span, obs::SpanKind::kQuery);
    tree.WindowQueryVisit(window, ctx, [&result](const rtree::Entry&) {
      ++result.result_objects;
    });
  }
  result.page_accesses = counting.fetches();
  result.io_errors = tree.io_errors();
  if (config_.record_pin_latency) {
    const std::lock_guard<std::mutex> lock(mu_);
    pin_latency_.MergeFrom(counting.pin_latency());
  }
  return result;
}

}  // namespace sdb::svc

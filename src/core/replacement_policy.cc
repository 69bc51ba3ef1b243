#include "core/replacement_policy.h"

#include <algorithm>

#include "common/macros.h"

namespace sdb::core {

void PolicyBase::Bind(const FrameMetaSource* meta, size_t frame_count) {
  SDB_CHECK(meta != nullptr);
  SDB_CHECK(frame_count > 0);
  meta_ = meta;
  frames_.assign(frame_count, FrameState{});
  recency_links_.Reset(frame_count);
  recency_ = {};
  crit_cache_.assign(frame_count, CriterionCacheEntry{});
  clock_ = 0;
}

void PolicyBase::SetCollector(obs::Collector* collector) {
  obs_ = collector;
  if (obs_ == nullptr) return;
  // Buckets cover candidate counts / recency ranks up to any realistic
  // buffer size; the overflow bucket absorbs the rest.
  static constexpr double kCountBounds[] = {1,   2,   4,    8,    16,  32,
                                            64,  128, 256,  512,  1024,
                                            2048, 4096, 8192};
  obs_scan_len_ = obs_->metrics().GetHistogram("policy.scan_len",
                                               kCountBounds);
  obs_victim_rank_ =
      obs_->metrics().GetHistogram("policy.victim_recency_rank",
                                   kCountBounds);
  obs_crit_hits_ = obs_->metrics().GetCounter("policy.crit_cache_hits");
  obs_crit_misses_ = obs_->metrics().GetCounter("policy.crit_cache_misses");
}

void PolicyBase::OnPageLoaded(FrameId f, storage::PageId page,
                              const AccessContext& ctx) {
  SDB_DCHECK(f < frames_.size());
  FrameState& s = frames_[f];
  SDB_CHECK_MSG(!s.valid, "frame loaded twice without eviction");
  s.page = page;
  s.valid = true;
  s.evictable = false;  // loaded pages are pinned by the caller
  s.last_access = Tick();
  s.last_query = ctx.query_id;
  recency_links_.PushBack(recency_, f);
}

void PolicyBase::OnPageAccessed(FrameId f, const AccessContext& ctx) {
  SDB_DCHECK(f < frames_.size());
  FrameState& s = frames_[f];
  SDB_DCHECK(s.valid);
  s.last_access = Tick();
  s.last_query = ctx.query_id;
  recency_links_.MoveToBack(recency_, f);
}

void PolicyBase::SetEvictable(FrameId f, bool evictable) {
  SDB_DCHECK(f < frames_.size());
  SDB_DCHECK(frames_[f].valid);
  frames_[f].evictable = evictable;
}

void PolicyBase::OnPageEvicted(FrameId f, storage::PageId page) {
  SDB_DCHECK(f < frames_.size());
  FrameState& s = frames_[f];
  SDB_CHECK(s.valid);
  SDB_CHECK(s.page == page);
  if (obs_ != nullptr) {
    // Victim recency rank: how many currently evictable pages are colder
    // than the victim (0 = the LRU choice) — the evictable frames ahead of
    // it on the recency list. O(rank), only when a collector is attached.
    size_t rank = 0;
    for (FrameId g = recency_.head; g != f; g = recency_links_.next(g)) {
      if (frames_[g].evictable) ++rank;
    }
    obs_victim_rank_->Observe(static_cast<double>(rank));
  }
  recency_links_.Unlink(recency_, f);
  s = FrameState{};
}

std::optional<FrameId> PolicyBase::LruScan() const {
  size_t walked = 0;
  for (FrameId f = recency_.head; f != kInvalidFrameId;
       f = recency_links_.next(f)) {
    ++walked;
    if (frames_[f].evictable) {
      ObserveScanLength(walked);
      return f;
    }
  }
  ObserveScanLength(walked);
  return std::nullopt;
}

std::optional<FrameId> PolicyBase::SpatialLruVictim(
    SpatialCriterion crit, const FrameLinks& links,
    const FrameLinks::List& list, size_t candidate_count) const {
  const uint64_t* versions = meta_versions();  // one virtual call per walk
  const size_t c = std::max<size_t>(candidate_count, 1);
  std::optional<FrameId> best;
  double best_crit = 0.0;
  size_t candidates = 0;
  size_t walked = 0;
  // Oldest first, and only a strictly smaller criterion replaces the best,
  // so criterion ties go to the least recently used candidate.
  for (FrameId f = list.head; f != kInvalidFrameId && candidates < c;
       f = links.next(f)) {
    ++walked;
    if (!frames_[f].evictable) continue;
    ++candidates;
    const double value = CachedCriterionAt(crit, f, versions[f]);
    if (!best || value < best_crit) {
      best = f;
      best_crit = value;
    }
  }
  ObserveScanLength(walked);
  return best;
}

}  // namespace sdb::core

#include "core/replacement_policy.h"

#include "common/macros.h"

namespace sdb::core {

void PolicyBase::Bind(const FrameMetaSource* meta, size_t frame_count) {
  SDB_CHECK(meta != nullptr);
  SDB_CHECK(frame_count > 0);
  meta_ = meta;
  frames_.assign(frame_count, FrameState{});
  crit_cache_.assign(frame_count, CriterionCacheEntry{});
  clock_ = 0;
}

double PolicyBase::CachedCriterion(SpatialCriterion crit, FrameId f) const {
  return CachedCriterionAt(crit, f, meta_->MetaVersionArray()[f]);
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
  s.load_time = Tick();
  s.last_access = s.load_time;
  s.last_query = ctx.query_id;
}

void PolicyBase::OnPageAccessed(FrameId f, const AccessContext& ctx) {
  SDB_DCHECK(f < frames_.size());
  FrameState& s = frames_[f];
  SDB_DCHECK(s.valid);
  s.last_access = Tick();
  s.last_query = ctx.query_id;
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
    // than the victim (0 = the LRU choice). O(frames), only when a
    // collector is attached.
    size_t rank = 0;
    for (const FrameState& other : frames_) {
      if (other.valid && other.evictable &&
          other.last_access < s.last_access) {
        ++rank;
      }
    }
    obs_victim_rank_->Observe(static_cast<double>(rank));
  }
  s = FrameState{};
}

std::optional<FrameId> PolicyBase::LruScan() const {
  std::optional<FrameId> best;
  uint64_t best_time = 0;
  size_t examined = 0;
  for (FrameId f = 0; f < frames_.size(); ++f) {
    const FrameState& s = frames_[f];
    if (!s.valid || !s.evictable) continue;
    ++examined;
    if (!best || s.last_access < best_time) {
      best = f;
      best_time = s.last_access;
    }
  }
  ObserveScanLength(examined);
  return best;
}

}  // namespace sdb::core

#include "core/policy_slru.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace sdb::core {

FrameId SelectSpatialLruVictim(std::vector<SpatialLruCandidate>& all,
                               size_t candidate_count) {
  if (all.empty()) return kInvalidFrameId;
  const size_t c = std::min(std::max<size_t>(candidate_count, 1), all.size());
  // Step 1 (LRU): move the c least-recently-used entries to the front.
  std::nth_element(all.begin(), all.begin() + (c - 1), all.end(),
                   [](const SpatialLruCandidate& a,
                      const SpatialLruCandidate& b) {
                     return a.last_access < b.last_access;
                   });
  // Step 2 (spatial): smallest criterion among the candidates, LRU ties.
  const SpatialLruCandidate* best = &all[0];
  for (size_t i = 1; i < c; ++i) {
    const SpatialLruCandidate& cand = all[i];
    if (cand.crit < best->crit ||
        (cand.crit == best->crit && cand.last_access < best->last_access)) {
      best = &cand;
    }
  }
  return best->frame;
}

SlruPolicy::SlruPolicy(SpatialCriterion criterion, double candidate_fraction)
    : criterion_(criterion), candidate_fraction_(candidate_fraction) {
  SDB_CHECK(candidate_fraction > 0.0 && candidate_fraction <= 1.0);
  name_ = "SLRU(" + std::string(CriterionName(criterion)) + "," +
          std::to_string(static_cast<int>(std::lround(
              candidate_fraction * 100))) +
          "%)";
}

void SlruPolicy::Bind(const FrameMetaSource* meta, size_t frame_count) {
  PolicyBase::Bind(meta, frame_count);
  candidate_size_ = std::max<size_t>(
      1, static_cast<size_t>(std::lround(candidate_fraction_ *
                                         static_cast<double>(frame_count))));
}

std::optional<FrameId> SlruPolicy::ChooseVictim(const AccessContext&,
                                        storage::PageId) {
  recency_keys_.clear();
  recency_keys_.reserve(frame_count());
  const uint64_t* versions = meta_versions();  // one virtual call per scan
  for (FrameId f = 0; f < frame_count(); ++f) {
    const FrameState& s = frame(f);
    if (!s.valid || !s.evictable) continue;
    // Eager warm pass: refreshes the frame's cached criterion if stale, so
    // the candidate loop below reads plain cached values.
    CachedCriterionAt(criterion_, f, versions[f]);
    recency_keys_.push_back(PackRecencyKey(s.last_access, f));
  }
  ObserveScanLength(recency_keys_.size());
  const FrameId victim = SelectSpatialLruVictim(
      recency_keys_, candidate_size_,
      [this](FrameId f) { return CriterionCacheValue(f); });
  if (victim == kInvalidFrameId) return std::nullopt;
  return victim;
}

}  // namespace sdb::core

#include "core/policy_spatial.h"

namespace sdb::core {

SpatialPolicy::SpatialPolicy(SpatialCriterion criterion)
    : criterion_(criterion) {}

std::optional<FrameId> SpatialPolicy::ChooseVictim(const AccessContext&,
                                        storage::PageId) {
  std::optional<FrameId> best;
  double best_crit = 0.0;
  uint64_t best_time = 0;
  size_t examined = 0;
  const uint64_t* versions = meta_versions();  // one virtual call per scan
  for (FrameId f = 0; f < frame_count(); ++f) {
    const FrameState& s = frame(f);
    if (!s.valid || !s.evictable) continue;
    ++examined;
    const double crit = CachedCriterionAt(criterion_, f, versions[f]);
    if (!best || crit < best_crit ||
        (crit == best_crit && s.last_access < best_time)) {
      best = f;
      best_crit = crit;
      best_time = s.last_access;
    }
  }
  ObserveScanLength(examined);
  return best;
}

}  // namespace sdb::core

#include "core/policy_slru.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace sdb::core {

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
  return SpatialLruVictim(criterion_, candidate_size_);
}

}  // namespace sdb::core

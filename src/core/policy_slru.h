#ifndef SPATIALBUFFER_CORE_POLICY_SLRU_H_
#define SPATIALBUFFER_CORE_POLICY_SLRU_H_

#include <string>

#include "core/replacement_policy.h"
#include "core/spatial_criterion.h"

namespace sdb::core {

/// Static combination of LRU and a spatial criterion (paper Sec. 4.1,
/// evaluated in Fig. 12 as "SLRU 50%"/"SLRU 25%"):
///   1. LRU computes the candidate set — the `c` least-recently-used
///      evictable pages;
///   2. the spatial criterion picks the victim from the candidate set
///      (ties: least recently used).
/// The larger the candidate set, the stronger the spatial influence; c = 1
/// degenerates to plain LRU, c = buffer size to the pure spatial policy.
/// A victim choice walks the recency list through the first c evictable
/// frames (PolicyBase::SpatialLruVictim).
class SlruPolicy : public PolicyBase {
 public:
  /// `candidate_fraction` in (0, 1]: candidate-set size as a fraction of the
  /// buffer, evaluated against the frame count at Bind time (minimum 1).
  SlruPolicy(SpatialCriterion criterion, double candidate_fraction);

  std::string_view name() const override { return name_; }

  void Bind(const FrameMetaSource* meta, size_t frame_count) override;
  std::optional<FrameId> ChooseVictim(const AccessContext& ctx,
                                      storage::PageId incoming) override;

  size_t candidate_size() const { return candidate_size_; }
  SpatialCriterion criterion() const { return criterion_; }

 private:
  const SpatialCriterion criterion_;
  const double candidate_fraction_;
  std::string name_;
  size_t candidate_size_ = 1;
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_POLICY_SLRU_H_

#ifndef SPATIALBUFFER_CORE_POLICY_FIFO_H_
#define SPATIALBUFFER_CORE_POLICY_FIFO_H_

#include "core/replacement_policy.h"

namespace sdb::core {

/// First-in-first-out replacement: the victim is the evictable page that has
/// been resident longest, regardless of how often it was referenced. Not one
/// of the paper's contenders, but the strategy used inside the ASB overflow
/// buffer, and a useful lower-bound baseline. The resident frames sit on a
/// list in load order, so the victim is the first evictable one on it.
class FifoPolicy : public PolicyBase {
 public:
  std::string_view name() const override { return "FIFO"; }
  void Bind(const FrameMetaSource* meta, size_t frame_count) override;
  void OnPageLoaded(FrameId frame, storage::PageId page,
                    const AccessContext& ctx) override;
  void OnPageEvicted(FrameId frame, storage::PageId page) override;
  std::optional<FrameId> ChooseVictim(const AccessContext& ctx,
                                      storage::PageId incoming) override;

 private:
  FrameLinks load_links_;
  FrameLinks::List load_order_;  ///< resident frames, oldest load first
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_POLICY_FIFO_H_

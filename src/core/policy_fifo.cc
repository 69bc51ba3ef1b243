#include "core/policy_fifo.h"

namespace sdb::core {

void FifoPolicy::Bind(const FrameMetaSource* meta, size_t frame_count) {
  PolicyBase::Bind(meta, frame_count);
  load_links_.Reset(frame_count);
  load_order_ = {};
}

void FifoPolicy::OnPageLoaded(FrameId f, storage::PageId page,
                              const AccessContext& ctx) {
  PolicyBase::OnPageLoaded(f, page, ctx);
  load_links_.PushBack(load_order_, f);
}

void FifoPolicy::OnPageEvicted(FrameId f, storage::PageId page) {
  PolicyBase::OnPageEvicted(f, page);
  load_links_.Unlink(load_order_, f);
}

std::optional<FrameId> FifoPolicy::ChooseVictim(const AccessContext&,
                                                storage::PageId) {
  for (FrameId f = load_order_.head; f != kInvalidFrameId;
       f = load_links_.next(f)) {
    if (frame(f).evictable) return f;
  }
  return std::nullopt;
}

}  // namespace sdb::core

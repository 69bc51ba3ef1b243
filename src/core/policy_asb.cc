#include "core/policy_asb.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "core/asb_shared.h"
#include "core/policy_slru.h"

namespace sdb::core {

AsbPolicy::AsbPolicy(const AsbConfig& config) : config_(config) {
  SDB_CHECK(config.overflow_fraction > 0.0 && config.overflow_fraction < 1.0);
  SDB_CHECK(config.initial_candidate_fraction > 0.0 &&
            config.initial_candidate_fraction <= 1.0);
  SDB_CHECK(config.step_fraction > 0.0 && config.step_fraction <= 1.0);
}

void AsbPolicy::SetCollector(obs::Collector* collector) {
  PolicyBase::SetCollector(collector);
  if (collector == nullptr) return;
  obs_overflow_hits_ = collector->metrics().GetCounter("asb.overflow_hits");
  obs_increases_ =
      collector->metrics().GetCounter("asb.candidate_increases");
  obs_decreases_ =
      collector->metrics().GetCounter("asb.candidate_decreases");
  obs_candidate_ = collector->metrics().GetGauge("asb.candidate");
}

void AsbPolicy::Bind(const FrameMetaSource* meta, size_t frame_count) {
  PolicyBase::Bind(meta, frame_count);
  overflow_target_ = std::clamp<size_t>(
      static_cast<size_t>(std::lround(config_.overflow_fraction *
                                      static_cast<double>(frame_count))),
      1, frame_count > 1 ? frame_count - 1 : 1);
  main_target_ = frame_count - overflow_target_;
  step_ = std::max<int64_t>(
      1, std::llround(config_.step_fraction *
                      static_cast<double>(main_target_)));
  candidate_ = std::clamp<int64_t>(
      std::llround(config_.initial_candidate_fraction *
                   static_cast<double>(main_target_)),
      1, static_cast<int64_t>(main_target_));
  if (shared_ != nullptr) {
    shared_->BindShard(candidate_, static_cast<int64_t>(main_target_));
    ReloadSharedCandidate();
  }
  section_.assign(frame_count, Section::kNone);
  fifo_.clear();
  main_count_ = 0;
  overflow_hits_ = 0;
  increases_ = 0;
  decreases_ = 0;
  if (obs::Collector* c = collector()) {
    obs_candidate_->Set(static_cast<double>(candidate_));
    obs::Event event;
    event.kind = obs::EventKind::kAsbInit;
    event.a = main_target_;
    event.b = overflow_target_;
    event.c = static_cast<uint64_t>(candidate_);
    event.page = static_cast<uint64_t>(step_);
    c->events().Push(event);
  }
}

void AsbPolicy::OnPageLoaded(FrameId f, storage::PageId page,
                             const AccessContext& ctx) {
  PolicyBase::OnPageLoaded(f, page, ctx);
  SDB_DCHECK(section_[f] == Section::kNone);
  section_[f] = Section::kMain;
  ++main_count_;
  Rebalance();
}

void AsbPolicy::OnPageAccessed(FrameId f, const AccessContext& ctx) {
  if (section_[f] == Section::kOverflow) {
    // The page had been selected for eviction but is needed after all: learn
    // from the mistake (using the page's pre-access state), then move it
    // back to the main section.
    ++overflow_hits_;
    Adapt(f, ctx);
    Promote(f);
    PolicyBase::OnPageAccessed(f, ctx);
    Rebalance();
    return;
  }
  PolicyBase::OnPageAccessed(f, ctx);
}

std::optional<FrameId> AsbPolicy::ChooseVictim(const AccessContext&,
                                        storage::PageId) {
  // Normal case: the overflow FIFO decides. Skip (defensively) any entry
  // that is not evictable; such entries stay queued.
  size_t examined = 0;
  for (FrameId f : fifo_) {
    ++examined;
    const FrameState& s = frame(f);
    if (s.valid && s.evictable) {
      ObserveScanLength(examined);
      return f;
    }
  }
  // No usable overflow page (e.g. a buffer too small to sustain both
  // sections): fall back to the combined rule over the whole buffer.
  if (auto victim = SelectMainVictim()) return victim;
  return LruScan();
}

void AsbPolicy::OnPageEvicted(FrameId f, storage::PageId page) {
  switch (section_[f]) {
    case Section::kOverflow:
      std::erase(fifo_, f);
      break;
    case Section::kMain:
      SDB_DCHECK(main_count_ > 0);
      --main_count_;
      break;
    case Section::kNone:
      SDB_CHECK_MSG(false, "evicting an unlabelled frame");
  }
  section_[f] = Section::kNone;
  PolicyBase::OnPageEvicted(f, page);
}

void AsbPolicy::Adapt(FrameId p, const AccessContext& ctx) {
  const double p_crit = CritOf(p);
  const uint64_t p_last = frame(p).last_access;
  size_t better_spatial = 0;  // overflow pages the criterion keeps over p
  size_t better_lru = 0;      // overflow pages LRU keeps over p
  for (FrameId g : fifo_) {
    if (g == p) continue;
    if (CritOf(g) > p_crit) ++better_spatial;
    if (frame(g).last_access > p_last) ++better_lru;
  }
  int8_t direction = 0;
  if (better_spatial > better_lru) {
    // The spatial criterion ranks p low although p was needed — LRU judged
    // better; shrink its candidate set to strengthen LRU.
    ++decreases_;
    direction = -1;
  } else if (better_spatial < better_lru) {
    ++increases_;
    direction = 1;
  }
  if (direction != 0) {
    if (shared_ != nullptr) {
      // Sharded operation: the step lands on the globally-published c, and
      // this shard adopts the result (already within the global clamp,
      // which is at most this shard's main capacity).
      candidate_ = std::clamp<int64_t>(
          shared_->ApplyStep(direction, step_), 1,
          static_cast<int64_t>(main_target_));
    } else {
      candidate_ = std::clamp<int64_t>(candidate_ + direction * step_, 1,
                                       static_cast<int64_t>(main_target_));
    }
  }
  if (obs::Collector* c = collector()) {
    obs_overflow_hits_->Add();
    if (direction > 0) obs_increases_->Add();
    if (direction < 0) obs_decreases_->Add();
    obs_candidate_->Set(static_cast<double>(candidate_));
    obs::Event event;
    event.kind = obs::EventKind::kAsbAdapt;
    event.delta = direction;
    event.frame = p;
    event.query = ctx.query_id;
    event.page = frame(p).page;
    event.a = better_spatial;
    event.b = better_lru;
    event.c = static_cast<uint64_t>(candidate_);
    c->events().Push(event);
  }
}

void AsbPolicy::Promote(FrameId f) {
  SDB_DCHECK(section_[f] == Section::kOverflow);
  std::erase(fifo_, f);
  section_[f] = Section::kMain;
  ++main_count_;
}

void AsbPolicy::Rebalance() {
  while (main_count_ > main_target_) {
    const std::optional<FrameId> demote = SelectMainVictim();
    if (!demote) break;  // every main page pinned; retry on a later event
    section_[*demote] = Section::kOverflow;
    fifo_.push_back(*demote);
    --main_count_;
  }
}

void AsbPolicy::ReloadSharedCandidate() {
  if (shared_ == nullptr) return;
  candidate_ = std::clamp<int64_t>(shared_->Load(), 1,
                                   static_cast<int64_t>(main_target_));
}

std::optional<FrameId> AsbPolicy::SelectMainVictim() {
  // Sharded operation: adopt the candidate size other shards may have
  // adapted since this shard's last demotion scan.
  ReloadSharedCandidate();
  recency_keys_.clear();
  recency_keys_.reserve(main_count_);
  const uint64_t* versions = meta_versions();  // one virtual call per scan
  for (FrameId f = 0; f < frame_count(); ++f) {
    if (section_[f] != Section::kMain) continue;
    const FrameState& s = frame(f);
    if (!s.valid || !s.evictable) continue;
    // Eager warm pass: refreshes the frame's cached criterion if stale, so
    // the candidate loop below reads plain cached values.
    CachedCriterionAt(config_.criterion, f, versions[f]);
    recency_keys_.push_back(PackRecencyKey(s.last_access, f));
  }
  ObserveScanLength(recency_keys_.size());
  const FrameId victim = SelectSpatialLruVictim(
      recency_keys_, static_cast<size_t>(candidate_),
      [this](FrameId f) { return CriterionCacheValue(f); });
  if (victim == kInvalidFrameId) return std::nullopt;
  return victim;
}

}  // namespace sdb::core

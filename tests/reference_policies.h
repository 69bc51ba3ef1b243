#ifndef SPATIALBUFFER_TESTS_REFERENCE_POLICIES_H_
#define SPATIALBUFFER_TESTS_REFERENCE_POLICIES_H_

// Reference victim choice for LRU, FIFO, SLRU and ASB: full passes over the
// frame table, exactly as those policies chose victims before they kept
// intrusive recency lists. policy_oracle_test replays the same request
// streams through each list-based policy and its reference here and demands
// identical decisions, tie-breaks included.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "core/policy_asb.h"
#include "core/replacement_policy.h"
#include "core/spatial_criterion.h"

namespace sdb::core::reference {

/// One eviction candidate as seen by the combined LRU+spatial selection.
struct SpatialLruCandidate {
  FrameId frame = kInvalidFrameId;
  uint64_t last_access = 0;
  double crit = 0.0;
};

/// The combined victim rule of paper Sec. 4.1: restrict to the
/// `candidate_count` least-recently-used entries of `all`, then take the one
/// with the smallest spatial criterion value (ties: least recently used).
/// `all` is reordered in place. Returns kInvalidFrameId if `all` is empty.
inline FrameId SelectSpatialLruVictim(std::vector<SpatialLruCandidate>& all,
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

/// Recency keys: (last_access, frame) packed into one uint64 so candidate
/// selection partitions a flat array of 8-byte keys instead of structs.
/// Access clocks are unique per resident frame, so ordering by key equals
/// ordering by last_access; the frame bits only disambiguate (and make the
/// order total). Limits: frame < 2^24, last_access < 2^40.
inline constexpr unsigned kRecencyKeyFrameBits = 24;

inline uint64_t PackRecencyKey(uint64_t last_access, FrameId frame) {
  return (last_access << kRecencyKeyFrameBits) | frame;
}
inline FrameId UnpackRecencyFrame(uint64_t key) {
  return static_cast<FrameId>(key & ((uint64_t{1} << kRecencyKeyFrameBits) -
                                     1));
}

/// The combined victim rule over packed recency keys: partition the
/// `candidate_count` smallest (least recently used) keys to the front, then
/// take the candidate with the smallest criterion (`crit_of(frame)`; ties:
/// least recently used). `keys` is reordered in place. Returns
/// kInvalidFrameId if `keys` is empty.
template <typename CritFn>
FrameId SelectSpatialLruVictim(std::vector<uint64_t>& keys,
                               size_t candidate_count, CritFn&& crit_of) {
  if (keys.empty()) return kInvalidFrameId;
  const size_t c =
      std::min(std::max<size_t>(candidate_count, 1), keys.size());
  std::nth_element(keys.begin(), keys.begin() + (c - 1), keys.end());
  FrameId best = UnpackRecencyFrame(keys[0]);
  double best_crit = crit_of(best);
  uint64_t best_key = keys[0];
  for (size_t i = 1; i < c; ++i) {
    const FrameId frame = UnpackRecencyFrame(keys[i]);
    const double crit = crit_of(frame);
    if (crit < best_crit || (crit == best_crit && keys[i] < best_key)) {
      best = frame;
      best_crit = crit;
      best_key = keys[i];
    }
  }
  return best;
}

/// Shared scans of the reference policies: the LRU scan over every frame
/// and the O(frames) victim recency rank, recorded per eviction so a test
/// can compare it with the `policy.victim_recency_rank` histogram of a
/// list-based policy.
class ReferenceScanBase : public PolicyBase {
 public:
  void OnPageEvicted(FrameId f, storage::PageId page) override {
    const FrameState& s = frame(f);
    size_t rank = 0;
    for (FrameId g = 0; g < frame_count(); ++g) {
      const FrameState& other = frame(g);
      if (other.valid && other.evictable &&
          other.last_access < s.last_access) {
        ++rank;
      }
    }
    victim_ranks_.push_back(rank);
    PolicyBase::OnPageEvicted(f, page);
  }

  /// Recency rank of every victim so far, in eviction order.
  const std::vector<size_t>& victim_ranks() const { return victim_ranks_; }

 protected:
  /// The cached criterion of frame f, looked up on its own.
  double CritOf(SpatialCriterion crit, FrameId f) const {
    return CachedCriterionAt(crit, f, meta_versions()[f]);
  }

  std::optional<FrameId> ScanLru() const {
    std::optional<FrameId> best;
    uint64_t best_time = 0;
    size_t examined = 0;
    for (FrameId f = 0; f < frame_count(); ++f) {
      const FrameState& s = frame(f);
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

 private:
  std::vector<size_t> victim_ranks_;
};

class ReferenceLru : public ReferenceScanBase {
 public:
  std::string_view name() const override { return "LRU"; }
  std::optional<FrameId> ChooseVictim(const AccessContext&,
                                      storage::PageId) override {
    return ScanLru();
  }
};

/// FIFO by the clock value at which each page entered its frame.
class ReferenceFifo : public ReferenceScanBase {
 public:
  std::string_view name() const override { return "FIFO"; }

  void Bind(const FrameMetaSource* meta, size_t frame_count) override {
    PolicyBase::Bind(meta, frame_count);
    load_time_.assign(frame_count, 0);
  }

  void OnPageLoaded(FrameId f, storage::PageId page,
                    const AccessContext& ctx) override {
    PolicyBase::OnPageLoaded(f, page, ctx);
    load_time_[f] = frame(f).last_access;
  }

  std::optional<FrameId> ChooseVictim(const AccessContext&,
                                      storage::PageId) override {
    std::optional<FrameId> best;
    uint64_t best_time = 0;
    for (FrameId f = 0; f < frame_count(); ++f) {
      const FrameState& s = frame(f);
      if (!s.valid || !s.evictable) continue;
      if (!best || load_time_[f] < best_time) {
        best = f;
        best_time = load_time_[f];
      }
    }
    return best;
  }

 private:
  std::vector<uint64_t> load_time_;  ///< clock value when the page entered
};

class ReferenceSlru : public ReferenceScanBase {
 public:
  ReferenceSlru(SpatialCriterion criterion, double candidate_fraction)
      : criterion_(criterion), candidate_fraction_(candidate_fraction) {}

  std::string_view name() const override { return "SLRU"; }

  void Bind(const FrameMetaSource* meta, size_t frame_count) override {
    PolicyBase::Bind(meta, frame_count);
    candidate_size_ = std::max<size_t>(
        1, static_cast<size_t>(std::lround(
               candidate_fraction_ * static_cast<double>(frame_count))));
  }

  std::optional<FrameId> ChooseVictim(const AccessContext&,
                                      storage::PageId) override {
    recency_keys_.clear();
    recency_keys_.reserve(frame_count());
    const uint64_t* versions = meta_versions();
    for (FrameId f = 0; f < frame_count(); ++f) {
      const FrameState& s = frame(f);
      if (!s.valid || !s.evictable) continue;
      CachedCriterionAt(criterion_, f, versions[f]);
      recency_keys_.push_back(PackRecencyKey(s.last_access, f));
    }
    ObserveScanLength(recency_keys_.size());
    const FrameId victim = SelectSpatialLruVictim(
        recency_keys_, candidate_size_,
        [this](FrameId f) { return CritOf(criterion_, f); });
    if (victim == kInvalidFrameId) return std::nullopt;
    return victim;
  }

 private:
  const SpatialCriterion criterion_;
  const double candidate_fraction_;
  size_t candidate_size_ = 1;
  std::vector<uint64_t> recency_keys_;
};

/// ASB with the main-section scan and the overflow deque, as the policy was
/// before it kept section lists. Private candidate tuning only (no
/// AsbSharedTuning); it emits the same kAsbInit/kAsbAdapt events.
class ReferenceAsbPolicy : public ReferenceScanBase {
 public:
  explicit ReferenceAsbPolicy(const AsbConfig& config = AsbConfig{})
      : config_(config) {}

  std::string_view name() const override { return "ASB"; }

  void Bind(const FrameMetaSource* meta, size_t frame_count) override {
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
    section_.assign(frame_count, Section::kNone);
    fifo_.clear();
    main_count_ = 0;
    if (obs::Collector* c = collector()) {
      obs::Event event;
      event.kind = obs::EventKind::kAsbInit;
      event.a = main_target_;
      event.b = overflow_target_;
      event.c = static_cast<uint64_t>(candidate_);
      event.page = static_cast<uint64_t>(step_);
      c->events().Push(event);
    }
  }

  void OnPageLoaded(FrameId f, storage::PageId page,
                    const AccessContext& ctx) override {
    PolicyBase::OnPageLoaded(f, page, ctx);
    SDB_DCHECK(section_[f] == Section::kNone);
    section_[f] = Section::kMain;
    ++main_count_;
    Rebalance();
  }

  void OnPageAccessed(FrameId f, const AccessContext& ctx) override {
    if (section_[f] == Section::kOverflow) {
      Adapt(f, ctx);
      Promote(f);
      PolicyBase::OnPageAccessed(f, ctx);
      Rebalance();
      return;
    }
    PolicyBase::OnPageAccessed(f, ctx);
  }

  std::optional<FrameId> ChooseVictim(const AccessContext&,
                                      storage::PageId) override {
    size_t examined = 0;
    for (FrameId f : fifo_) {
      ++examined;
      const FrameState& s = frame(f);
      if (s.valid && s.evictable) {
        ObserveScanLength(examined);
        return f;
      }
    }
    if (auto victim = SelectMainVictim()) return victim;
    return ScanLru();
  }

  void OnPageEvicted(FrameId f, storage::PageId page) override {
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
    ReferenceScanBase::OnPageEvicted(f, page);
  }

  size_t candidate_size() const { return static_cast<size_t>(candidate_); }
  size_t overflow_size() const { return fifo_.size(); }

 private:
  enum class Section : uint8_t { kNone, kMain, kOverflow };

  double CritOf(FrameId f) const {
    return ReferenceScanBase::CritOf(config_.criterion, f);
  }

  void Adapt(FrameId p, const AccessContext& ctx) {
    const double p_crit = CritOf(p);
    const uint64_t p_last = frame(p).last_access;
    size_t better_spatial = 0;
    size_t better_lru = 0;
    for (FrameId g : fifo_) {
      if (g == p) continue;
      if (CritOf(g) > p_crit) ++better_spatial;
      if (frame(g).last_access > p_last) ++better_lru;
    }
    int8_t direction = 0;
    if (better_spatial > better_lru) {
      direction = -1;
    } else if (better_spatial < better_lru) {
      direction = 1;
    }
    if (direction != 0) {
      candidate_ = std::clamp<int64_t>(candidate_ + direction * step_, 1,
                                       static_cast<int64_t>(main_target_));
    }
    if (obs::Collector* c = collector()) {
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

  void Promote(FrameId f) {
    SDB_DCHECK(section_[f] == Section::kOverflow);
    std::erase(fifo_, f);
    section_[f] = Section::kMain;
    ++main_count_;
  }

  void Rebalance() {
    while (main_count_ > main_target_) {
      const std::optional<FrameId> demote = SelectMainVictim();
      if (!demote) break;
      section_[*demote] = Section::kOverflow;
      fifo_.push_back(*demote);
      --main_count_;
    }
  }

  std::optional<FrameId> SelectMainVictim() {
    recency_keys_.clear();
    recency_keys_.reserve(main_count_);
    const uint64_t* versions = meta_versions();
    for (FrameId f = 0; f < frame_count(); ++f) {
      if (section_[f] != Section::kMain) continue;
      const FrameState& s = frame(f);
      if (!s.valid || !s.evictable) continue;
      CachedCriterionAt(config_.criterion, f, versions[f]);
      recency_keys_.push_back(PackRecencyKey(s.last_access, f));
    }
    ObserveScanLength(recency_keys_.size());
    const FrameId victim = SelectSpatialLruVictim(
        recency_keys_, static_cast<size_t>(candidate_),
        [this](FrameId f) { return CritOf(f); });
    if (victim == kInvalidFrameId) return std::nullopt;
    return victim;
  }

  const AsbConfig config_;
  size_t main_target_ = 0;
  size_t overflow_target_ = 0;
  int64_t step_ = 1;
  int64_t candidate_ = 1;
  std::vector<Section> section_;
  std::deque<FrameId> fifo_;  // overflow pages, demotion order
  size_t main_count_ = 0;
  std::vector<uint64_t> recency_keys_;
};

}  // namespace sdb::core::reference

#endif  // SPATIALBUFFER_TESTS_REFERENCE_POLICIES_H_

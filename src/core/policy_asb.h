#ifndef SPATIALBUFFER_CORE_POLICY_ASB_H_
#define SPATIALBUFFER_CORE_POLICY_ASB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/replacement_policy.h"
#include "core/spatial_criterion.h"

namespace sdb::core {

class AsbSharedTuning;

/// Tuning knobs of the adaptable spatial buffer. Defaults match the paper's
/// experiments (Sec. 4.3): overflow buffer = 20% of the complete buffer,
/// initial candidate set = 25% of the remaining (main) buffer, adaptation
/// step = 1% of the main buffer.
struct AsbConfig {
  SpatialCriterion criterion = SpatialCriterion::kArea;
  double overflow_fraction = 0.20;
  double initial_candidate_fraction = 0.25;
  double step_fraction = 0.01;
};

/// ASB — the *adaptable spatial buffer* (paper Sec. 4), a robust and
/// self-tuning combination of LRU and a spatial replacement criterion.
///
/// The buffer is divided into a *main* section and a FIFO *overflow* section
/// (a labelling of frames; overflow pages are still resident, so a request
/// for one is a buffer hit). Eviction takes the head of the overflow FIFO;
/// the page demoted from the main section into the overflow FIFO is chosen
/// by the combined rule of Sec. 4.1: the spatially worst page among the `c`
/// least-recently-used main pages.
///
/// `c` — the candidate-set size — is the self-tuning knob. When a request
/// hits a page p in the overflow section, its eviction from the main section
/// was evidently premature, and p tells us which criterion misjudged it
/// (Sec. 4.2):
///  * more overflow pages beat p spatially than beat it temporally — the
///    spatial criterion would have sacrificed p even though it was needed,
///    so LRU is the better judge: c decreases;
///  * fewer — the spatial criterion ranks p above its peers, so it would
///    have kept p: c increases;
///  * equal — c is unchanged.
/// Unlike LRU-K, no information is kept about pages outside the buffer, so
/// the memory requirements never exceed the buffer itself.
///
/// The main section is a recency list (least recently used first) and the
/// overflow FIFO a second list in demotion order, so a demotion walks only
/// the c oldest evictable main frames and moving a page between the
/// sections is O(1).
class AsbPolicy : public PolicyBase {
 public:
  explicit AsbPolicy(const AsbConfig& config = AsbConfig{});

  std::string_view name() const override { return "ASB"; }
  const AsbConfig& config() const { return config_; }

  /// Attaches cross-shard candidate-set coordination (set by the sharded
  /// buffer service on every shard's policy; must be called before Bind).
  /// With a shared tuning attached, adaptation steps are applied to the
  /// shared value with a clamped CAS and the published value is re-read at
  /// the start of every demotion scan; without one (the default) the policy
  /// tunes its private `c` exactly as in the paper.
  void set_shared_tuning(AsbSharedTuning* shared) { shared_ = shared; }
  AsbSharedTuning* shared_tuning() const { return shared_; }

  void Bind(const FrameMetaSource* meta, size_t frame_count) override;
  void SetCollector(obs::Collector* collector) override;
  void OnPageLoaded(FrameId frame, storage::PageId page,
                    const AccessContext& ctx) override;
  void OnPageAccessed(FrameId frame, const AccessContext& ctx) override;
  std::optional<FrameId> ChooseVictim(const AccessContext& ctx,
                                      storage::PageId incoming) override;
  void OnPageEvicted(FrameId frame, storage::PageId page) override;

  /// Current candidate-set size c (the Fig. 14 trace variable).
  size_t candidate_size() const { return static_cast<size_t>(candidate_); }
  /// Capacity of the main section (frames − overflow section).
  size_t main_capacity() const { return main_target_; }
  /// Capacity of the overflow section.
  size_t overflow_capacity() const { return overflow_target_; }
  /// Pages currently labelled overflow.
  size_t overflow_size() const { return overflow_.size; }
  /// Adaptation step (in frames).
  size_t step() const { return static_cast<size_t>(step_); }

  /// Counters for analysis/testing.
  uint64_t overflow_hits() const { return overflow_hits_; }
  uint64_t candidate_increases() const { return increases_; }
  uint64_t candidate_decreases() const { return decreases_; }

 private:
  enum class Section : uint8_t { kNone, kMain, kOverflow };

  /// Adjusts c based on how page p (still labelled overflow, with its
  /// pre-access state) compares against the other overflow pages. Emits a
  /// kAsbAdapt event carrying the full decision (mistake attribution and the
  /// resulting c) when a collector is attached.
  void Adapt(FrameId p, const AccessContext& ctx);

  /// Adopts the globally-published candidate size, clamped to this shard's
  /// main capacity. No-op without a shared tuning.
  void ReloadSharedCandidate();

  /// Moves an overflow page back into the main section.
  void Promote(FrameId f);

  /// Demotes main pages into the overflow FIFO until the main section is
  /// within capacity.
  void Rebalance();

  /// The combined LRU+spatial demotion victim within the main section.
  std::optional<FrameId> SelectMainVictim();

  const AsbConfig config_;
  AsbSharedTuning* shared_ = nullptr;  ///< cross-shard c (nullptr = private)
  size_t main_target_ = 0;
  size_t overflow_target_ = 0;
  int64_t step_ = 1;
  int64_t candidate_ = 1;
  std::vector<Section> section_;
  FrameLinks section_links_;   ///< links of main_ and overflow_
  FrameLinks::List main_;      ///< main pages, least recently used first
  FrameLinks::List overflow_;  ///< overflow pages, demotion order
  uint64_t overflow_hits_ = 0;
  uint64_t increases_ = 0;
  uint64_t decreases_ = 0;
  // Cached metric handles; all nullptr without a collector.
  obs::Counter* obs_overflow_hits_ = nullptr;
  obs::Counter* obs_increases_ = nullptr;
  obs::Counter* obs_decreases_ = nullptr;
  obs::Gauge* obs_candidate_ = nullptr;
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_POLICY_ASB_H_

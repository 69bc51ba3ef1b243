#ifndef SPATIALBUFFER_CORE_REPLACEMENT_POLICY_H_
#define SPATIALBUFFER_CORE_REPLACEMENT_POLICY_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/access_context.h"
#include "core/spatial_criterion.h"
#include "obs/collector.h"
#include "storage/page.h"

namespace sdb::core {

/// Index of a buffer frame.
using FrameId = uint32_t;

inline constexpr FrameId kInvalidFrameId = 0xffffffffu;

/// Supplies the *current* metadata of the page resident in a frame. The
/// buffer manager implements this with a per-frame cache of the decoded
/// page header, refreshed on page load and invalidated when the page is
/// marked dirty — so spatial criteria see up-to-date values even when the
/// page is modified in place (callers must MarkDirty after such writes,
/// which they already do to get the page persisted).
class FrameMetaSource {
 public:
  virtual ~FrameMetaSource() = default;
  virtual storage::PageMeta GetMeta(FrameId frame) const = 0;

  /// Per-frame metadata versions (frame-count entries). Entry f is nonzero
  /// while a page is resident in f and strictly increases whenever
  /// GetMeta(f) may return a different value than before, so policies can
  /// cache values derived from GetMeta across victim scans. Victim scans
  /// hoist the pointer once per scan, keeping the per-frame cache check a
  /// plain array read instead of a virtual call.
  virtual const uint64_t* MetaVersionArray() const = 0;
};

/// Strategy deciding which resident page leaves the buffer on a miss.
///
/// Lifecycle as driven by BufferManager:
///  * Bind() once, with the frame count and metadata source;
///  * OnPageLoaded() when a page becomes resident in a frame (after a miss
///    or page creation) — the frame is pinned at that moment;
///  * OnPageAccessed() on every buffer hit;
///  * SetEvictable() whenever the frame's pin count transitions 0 <-> >0;
///  * ChooseVictim() on a miss with no free frame — must return an evictable
///    frame, or nullopt if every frame is pinned;
///  * OnPageEvicted() after the victim's page has left the buffer.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Short identifier used in reports ("LRU", "LRU-2", "A", "ASB", ...).
  virtual std::string_view name() const = 0;

  /// Called once before use.
  virtual void Bind(const FrameMetaSource* meta, size_t frame_count) = 0;

  /// Attaches an observability collector (nullptr detaches). Called by
  /// BufferManager before Bind, so policies can emit their configuration
  /// events at bind time. Policies that do not emit anything may ignore it.
  virtual void SetCollector(obs::Collector* collector) { (void)collector; }

  virtual void OnPageLoaded(FrameId frame, storage::PageId page,
                            const AccessContext& ctx) = 0;
  virtual void OnPageAccessed(FrameId frame, const AccessContext& ctx) = 0;
  virtual void SetEvictable(FrameId frame, bool evictable) = 0;
  virtual std::optional<FrameId> ChooseVictim(
      const AccessContext& ctx, storage::PageId incoming) = 0;
  virtual void OnPageEvicted(FrameId frame, storage::PageId page) = 0;
};

/// Shared bookkeeping for all concrete policies: a logical access clock plus
/// per-frame state (validity, evictability, last/load access times, the
/// query id of the most recent reference). Subclasses implement victim
/// selection on top; most do a linear scan over the frames, which is exact,
/// obviously faithful to the paper's definitions, and cheap at realistic
/// buffer sizes.
class PolicyBase : public ReplacementPolicy {
 public:
  void Bind(const FrameMetaSource* meta, size_t frame_count) override;
  void SetCollector(obs::Collector* collector) override;
  void OnPageLoaded(FrameId frame, storage::PageId page,
                    const AccessContext& ctx) override;
  void OnPageAccessed(FrameId frame, const AccessContext& ctx) override;
  void SetEvictable(FrameId frame, bool evictable) override;
  void OnPageEvicted(FrameId frame, storage::PageId page) override;

 protected:
  struct FrameState {
    storage::PageId page = storage::kInvalidPageId;
    bool valid = false;
    bool evictable = false;
    uint64_t load_time = 0;    ///< clock value when the page entered
    uint64_t last_access = 0;  ///< clock value of the latest reference
    uint64_t last_query = AccessContext::kNoQuery;
  };

  /// Monotone logical time; advanced on every load/access.
  uint64_t Tick() { return ++clock_; }
  uint64_t clock() const { return clock_; }

  const FrameMetaSource& meta_source() const { return *meta_; }
  storage::PageMeta MetaOf(FrameId frame) const {
    return meta_->GetMeta(frame);
  }

  /// spatialCrit(page in f), cached across victim scans: recomputed only
  /// when the source reports a new metadata version for the frame, so a
  /// steady-state scan is a flat array walk comparing doubles. A policy
  /// instance must evaluate a single fixed criterion through this helper
  /// (all spatial policies do); mixing criteria would thrash the cache.
  double CachedCriterion(SpatialCriterion crit, FrameId f) const;

  /// Scan-hoisted variant: `version` is meta_versions()[f], read by the
  /// caller from the array it hoisted once per scan.
  double CachedCriterionAt(SpatialCriterion crit, FrameId f,
                           uint64_t version) const {
    CriterionCacheEntry& entry = crit_cache_[f];
    if (entry.version != version) {
      entry.value = EvaluateCriterion(crit, meta_->GetMeta(f));
      entry.version = version;
      if (obs_ != nullptr) obs_crit_misses_->Add();
    } else if (obs_ != nullptr) {
      obs_crit_hits_->Add();
    }
    return entry.value;
  }

  /// The source's raw version array (one virtual call; hoist per scan).
  const uint64_t* meta_versions() const {
    return meta_->MetaVersionArray();
  }

  /// The value left in the criterion cache by the most recent
  /// CachedCriterionAt call for this frame — no freshness check. Only valid
  /// within one victim scan, after an eager CachedCriterionAt pass over the
  /// eligible frames.
  double CriterionCacheValue(FrameId f) const { return crit_cache_[f].value; }

  size_t frame_count() const { return frames_.size(); }
  FrameState& frame(FrameId f) { return frames_[f]; }
  const FrameState& frame(FrameId f) const { return frames_[f]; }

  /// Least-recently-used evictable frame, or nullopt if none: the universal
  /// fallback and tie-breaker.
  std::optional<FrameId> LruScan() const;

  /// The attached collector (nullptr = observability off).
  obs::Collector* collector() const { return obs_; }

  /// Records how many candidates one victim scan examined (histogram
  /// policy.scan_len). Scan policies call this once per ChooseVictim /
  /// demotion scan; a no-op without a collector.
  void ObserveScanLength(size_t examined) const {
    if (obs_ != nullptr) {
      obs_scan_len_->Observe(static_cast<double>(examined));
    }
  }

 private:
  struct CriterionCacheEntry {
    uint64_t version = 0;  ///< 0 = not cached (resident versions are >= 1)
    double value = 0.0;
  };

  const FrameMetaSource* meta_ = nullptr;
  std::vector<FrameState> frames_;
  mutable std::vector<CriterionCacheEntry> crit_cache_;
  uint64_t clock_ = 0;
  obs::Collector* obs_ = nullptr;
  obs::Histogram* obs_scan_len_ = nullptr;
  obs::Histogram* obs_victim_rank_ = nullptr;
  obs::Counter* obs_crit_hits_ = nullptr;
  obs::Counter* obs_crit_misses_ = nullptr;
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_REPLACEMENT_POLICY_H_

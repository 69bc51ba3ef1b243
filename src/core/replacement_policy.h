#ifndef SPATIALBUFFER_CORE_REPLACEMENT_POLICY_H_
#define SPATIALBUFFER_CORE_REPLACEMENT_POLICY_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/macros.h"
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

/// Intrusive doubly-linked lists of frames. One link array can carry several
/// lists as long as each frame sits on at most one of them at a time; every
/// operation is O(1).
class FrameLinks {
 public:
  struct List {
    FrameId head = kInvalidFrameId;  ///< oldest entry
    FrameId tail = kInvalidFrameId;  ///< newest entry
    size_t size = 0;
  };

  void Reset(size_t frame_count) { links_.assign(frame_count, Link{}); }

  /// The entry after `f` on its list (kInvalidFrameId after the tail).
  FrameId next(FrameId f) const { return links_[f].next; }

  void PushBack(List& list, FrameId f) {
    Link& link = links_[f];
    link.prev = list.tail;
    link.next = kInvalidFrameId;
    if (list.tail == kInvalidFrameId) {
      list.head = f;
    } else {
      links_[list.tail].next = f;
    }
    list.tail = f;
    ++list.size;
  }

  void Unlink(List& list, FrameId f) {
    SDB_DCHECK(list.size > 0);
    const Link link = links_[f];
    if (link.prev == kInvalidFrameId) {
      list.head = link.next;
    } else {
      links_[link.prev].next = link.next;
    }
    if (link.next == kInvalidFrameId) {
      list.tail = link.prev;
    } else {
      links_[link.next].prev = link.prev;
    }
    --list.size;
  }

  void MoveToBack(List& list, FrameId f) {
    if (list.tail == f) return;
    Unlink(list, f);
    PushBack(list, f);
  }

 private:
  struct Link {
    FrameId prev = kInvalidFrameId;
    FrameId next = kInvalidFrameId;
  };
  std::vector<Link> links_;
};

/// Shared bookkeeping for all concrete policies: a logical access clock,
/// per-frame state (validity, evictability, last access time, the
/// query id of the most recent reference) and an intrusive recency list of
/// the resident frames, least recently used first. Loads link a frame at the
/// tail, hits move it there and evictions unlink it, so the list order is
/// the order of `last_access`. LRU's victim is the first evictable frame on
/// the list, and the paper's "c least-recently-used pages" (Sec. 4.1) are
/// the first c evictable ones. Policies ordered by anything else (the pure
/// spatial criteria, LRU-K, the priority variants) still scan the frame
/// table.
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
  /// steady-state scan is a flat array walk comparing doubles. `version` is
  /// meta_versions()[f], read by the caller from the array it hoisted once
  /// per scan. A policy instance must evaluate a single fixed criterion
  /// through this helper (all spatial policies do); mixing criteria would
  /// thrash the cache.
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

  size_t frame_count() const { return frames_.size(); }
  FrameState& frame(FrameId f) { return frames_[f]; }
  const FrameState& frame(FrameId f) const { return frames_[f]; }

  /// Least-recently-used evictable frame, or nullopt if none: the universal
  /// fallback and tie-breaker. Walks the recency list to the first
  /// evictable frame.
  std::optional<FrameId> LruScan() const;

  /// The combined victim rule of paper Sec. 4.1 over a recency-ordered
  /// `list` (oldest first, linked through `links`): among its first
  /// `candidate_count` evictable frames (at least one), the one with the
  /// smallest `crit`, ties going to the least recently used. Walks O(c)
  /// frames plus the pinned ones it passes; nullopt if none is evictable.
  std::optional<FrameId> SpatialLruVictim(SpatialCriterion crit,
                                          const FrameLinks& links,
                                          const FrameLinks::List& list,
                                          size_t candidate_count) const;

  /// SpatialLruVictim over every resident frame.
  std::optional<FrameId> SpatialLruVictim(SpatialCriterion crit,
                                          size_t candidate_count) const {
    return SpatialLruVictim(crit, recency_links_, recency_, candidate_count);
  }

  /// The attached collector (nullptr = observability off).
  obs::Collector* collector() const { return obs_; }

  /// Records how many frames one victim choice examined (histogram
  /// policy.scan_len): list walks count every frame they pass, table scans
  /// every evictable frame. Called once per ChooseVictim / demotion; a
  /// no-op without a collector.
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
  FrameLinks recency_links_;
  FrameLinks::List recency_;  ///< resident frames, least recently used first
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

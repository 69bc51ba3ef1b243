#ifndef SPATIALBUFFER_CORE_PAGE_TABLE_H_
#define SPATIALBUFFER_CORE_PAGE_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "storage/page.h"

namespace sdb::core {

/// The buffer's page-id -> frame mapping: open addressing over packed 64-bit
/// atomic slots, `(page + 1) << 32 | frame`. One table serves both buffer
/// modes. Writers (the single thread, or the shard latch holder) insert,
/// erase (tombstone) and rebuild, bumping `version` on every mutation.
/// Optimistic readers probe without any lock and compare `version` before
/// and after, so a probe that raced a writer falls back to the latched
/// path. A stale positive is harmless either way — the frame's own version
/// stamp is re-validated before the pin counts — so the table only has to
/// be atomically *word*-consistent, never globally consistent.
class PageTable {
 public:
  /// A never-used slot; ends every probe chain.
  static constexpr uint64_t kEmpty = 0;
  /// A vacated slot that probes walk through. Its high half is 0, which no
  /// live key has (page kInvalidPageId is never inserted).
  static constexpr uint64_t kTombstone = 1;
  static constexpr uint32_t kInvalidFrame = 0xffffffffu;

  /// Sized at twice `frames` (at least 16 slots, a power of two), so the
  /// table never fills while it holds at most `frames` pages.
  explicit PageTable(size_t frames) {
    size_t capacity = 16;
    while (capacity < frames * 2) capacity <<= 1;
    slots_ = std::make_unique<std::atomic<uint64_t>[]>(capacity);
    for (size_t i = 0; i < capacity; ++i) {
      slots_[i].store(kEmpty, std::memory_order_relaxed);
    }
    mask_ = capacity - 1;
  }

  /// Lock-free probe. Returns the mapped frame or kInvalidFrame.
  uint32_t Lookup(storage::PageId page) const {
    const uint64_t key = Key(page);
    for (size_t i = Home(page);; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i].load(std::memory_order_acquire);
      if (slot == kEmpty) return kInvalidFrame;
      if ((slot >> 32) == (key >> 32)) {
        return static_cast<uint32_t>(slot & 0xffffffffu);
      }
      // Occupied by another page or a tombstone: keep probing.
    }
  }

  bool Contains(storage::PageId page) const {
    return Lookup(page) != kInvalidFrame;
  }

  /// Writer-side insert. The page must not be present.
  void Insert(storage::PageId page, uint32_t frame) {
    SDB_DCHECK(page != storage::kInvalidPageId);
    BumpVersion();
    for (size_t i = Home(page);; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i].load(std::memory_order_relaxed);
      if (slot == kEmpty || slot == kTombstone) {
        if (slot == kTombstone) --tombstones_;
        slots_[i].store(Key(page) | frame, std::memory_order_release);
        ++size_;
        SDB_DCHECK(size_ + tombstones_ <= mask_);  // never fills: cap >= 2x
        return;
      }
      SDB_DCHECK((slot >> 32) != (Key(page) >> 32));
    }
  }

  /// Writer-side erase; no-op if absent. Compacts the table once tombstones
  /// pass a quarter of the slots, so probe chains stay short on churny
  /// (eviction-heavy) buffers.
  void Erase(storage::PageId page) {
    BumpVersion();
    const uint64_t key = Key(page);
    for (size_t i = Home(page);; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i].load(std::memory_order_relaxed);
      if (slot == kEmpty) return;
      if ((slot >> 32) == (key >> 32)) {
        slots_[i].store(kTombstone, std::memory_order_release);
        --size_;
        ++tombstones_;
        if (tombstones_ > (mask_ + 1) / 4) Rebuild();
        return;
      }
    }
  }

  /// Mutation counter, bumped at the start of every writer mutation.
  /// Readers sample it before and after a probe: a change means the probe
  /// raced a writer and its negative result cannot be trusted. A probe that
  /// overlaps a rebuild can miss a resident page without seeing a change, so
  /// a lock-free negative only ever sends the caller to the latched path.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  size_t size() const { return size_; }
  size_t capacity() const { return mask_ + 1; }

  /// The slot a probe for `page` starts at.
  size_t Home(storage::PageId page) const {
    uint64_t x = static_cast<uint64_t>(page) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(x ^ (x >> 31)) & mask_;
  }

 private:
  static uint64_t Key(storage::PageId page) {
    return (static_cast<uint64_t>(page) + 1) << 32;
  }

  // Writers are serialized, so a load and a store suffice (no locked
  // read-modify-write): the release store of the slot that follows
  // publishes the new version to any reader that sees that slot.
  void BumpVersion() {
    version_.store(version_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  }

  void Rebuild() {
    std::vector<uint64_t> live;
    live.reserve(size_);
    for (size_t i = 0; i <= mask_; ++i) {
      const uint64_t slot = slots_[i].load(std::memory_order_relaxed);
      if (slot != kEmpty && slot != kTombstone) live.push_back(slot);
      slots_[i].store(kEmpty, std::memory_order_release);
    }
    tombstones_ = 0;
    size_ = 0;
    for (const uint64_t slot : live) {
      const storage::PageId page =
          static_cast<storage::PageId>((slot >> 32) - 1);
      Insert(page, static_cast<uint32_t>(slot & 0xffffffffu));
    }
  }

  std::unique_ptr<std::atomic<uint64_t>[]> slots_;
  size_t mask_ = 0;
  std::atomic<uint64_t> version_{0};
  // Writer-only bookkeeping.
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_PAGE_TABLE_H_

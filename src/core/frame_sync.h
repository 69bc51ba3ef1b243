#ifndef SPATIALBUFFER_CORE_FRAME_SYNC_H_
#define SPATIALBUFFER_CORE_FRAME_SYNC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/macros.h"
#include "storage/page.h"

namespace sdb::core {

/// Per-frame synchronization words of the optimistic latching protocol
/// (BufferManager concurrent mode). One cache line per frame, written only
/// by the shard latch's holder, so latch-free readers on every core keep it
/// shared:
///
///  - `version`: the frame's optimistic latch. Even = unlocked; bit 0 set =
///    a writer (eviction, load, quarantine) holds the
///    frame exclusively. Writers lock with a CAS to version|1 and unlock by
///    storing a larger even value, so every exclusive section bumps the
///    stamp and any reader whose before/after loads straddle it
///    re-validates.
///  - `page`: the resident page id, published only inside exclusive
///    sections (readers re-check it after validating the version).
///
/// The pin count is not here: every thread stripe keeps its own counter per
/// frame (PinBlock). An optimistic reader bumps its stripe's counter and
/// then re-validates `version`; the evictor locks `version` first and then
/// sums every stripe's counter, refusing the frame if the sum is nonzero.
/// Both sides use sequentially consistent operations, so one side always
/// sees the other.
struct alignas(64) FrameSync {
  std::atomic<uint64_t> version{0};
  std::atomic<uint32_t> page{storage::kInvalidPageId};

  bool TryLock() {
    uint64_t v = version.load(std::memory_order_acquire);
    if (v & 1) return false;
    return version.compare_exchange_strong(v, v | 1,
                                           std::memory_order_seq_cst);
  }

  void Lock() {
    while (!TryLock()) {
      // Writers only contend with each other under the shard latch, so this
      // spin resolves within one exclusive section.
    }
  }

  /// Ends the exclusive section, invalidating every optimistic read that
  /// started before it.
  void Unlock() {
    const uint64_t v = version.load(std::memory_order_relaxed);
    SDB_DCHECK((v & 1) != 0);
    version.store(v + 1, std::memory_order_release);
  }
};

/// One thread stripe's pin counters of sixteen consecutive frames: one cache
/// line, so no line holds two stripes' counters and a pin or release writes
/// only a line its own thread uses. A pin released on another thread than
/// the one that took it lands on the releasing thread's stripe and wraps
/// that counter below zero; a frame's live pin count is the wrapping sum
/// over all stripes.
struct alignas(64) PinBlock {
  static constexpr size_t kFrames = 64 / sizeof(std::atomic<uint32_t>);
  std::atomic<uint32_t> count[kFrames];
};
static_assert(sizeof(PinBlock) == 64);

/// One optimistic hit, deferred. The latch-free path cannot call into the
/// (single-threaded) replacement policy, so it records the hit here and the
/// next exclusive section replays it before reading or mutating policy
/// state. Each thread's hits replay in its own FIFO order — in serial
/// execution that makes the policy's view bit-identical to the eager mutex
/// path. A release queues nothing: a concurrent buffer's policy sees every
/// resident frame as evictable, and eviction checks the live pin count.
struct DeferredEvent {
  uint32_t frame = 0;
  storage::PageId page = storage::kInvalidPageId;
  uint64_t query = 0;
};

/// Bounded ring of DeferredEvents, one per thread stripe of a shard.
/// Producers are the latch-free hit paths of the threads mapped to the
/// stripe (normally one; threads beyond the stripe count share one), so
/// they claim cells with the Vyukov queue's CAS. The consumer is whichever
/// thread holds the shard latch, one at a time, so popping needs no CAS.
/// TryPush failing (ring full) is a signal to take the exclusive path
/// instead, so the ring bounds deferral lag by construction.
class AccessEventRing {
 public:
  /// Sizes the ring to `capacity` rounded up to a power of two, at least 2
  /// (the smallest size at which a full ring and a free slot differ). Call
  /// once, before the first push.
  void Allocate(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    mask_ = cap - 1;
  }

  bool TryPush(const DeferredEvent& event) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t diff =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.event = event;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side; the caller holds the shard latch.
  bool TryPop(DeferredEvent* event) {
    const uint64_t pos = head_.load(std::memory_order_acquire);
    Cell& cell = cells_[pos & mask_];
    if (cell.seq.load(std::memory_order_acquire) != pos + 1) {
      // Empty, or the next slot is claimed but not yet published; FIFO
      // draining stops here either way (never skip over a straggler).
      return false;
    }
    *event = cell.event;
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_release);
    return true;
  }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    DeferredEvent event;
  };

  std::unique_ptr<Cell[]> cells_;
  size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> tail_{0};
  alignas(64) std::atomic<uint64_t> head_{0};
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_FRAME_SYNC_H_

#ifndef SPATIALBUFFER_OBS_EVENTS_H_
#define SPATIALBUFFER_OBS_EVENTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdb::obs {

/// What happened. The stream generalizes the one-off Fig. 14 candidate
/// trace: anything that wants to watch the buffer adapt — benches, tests,
/// live dashboards — consumes these events instead of growing private hooks.
enum class EventKind : uint8_t {
  /// A page left the buffer. page = victim, frame = its frame,
  /// flag = it was dirty (written back).
  kEviction,
  /// ASB bound to a buffer. a = main capacity, b = overflow capacity,
  /// c = initial candidate-set size, page = adaptation step (in frames).
  kAsbInit,
  /// An overflow hit triggered the Sec. 4.2 adaptation rule.
  /// a = overflow pages the spatial criterion ranks above the hit page,
  /// b = overflow pages LRU ranks above it, delta = resulting change
  /// direction (-1 spatial misjudged / 0 tie / +1 LRU misjudged),
  /// c = the candidate-set size after the (clamped) adjustment,
  /// page = the overflow page that was hit, frame = its frame.
  kAsbAdapt,
  /// One buffer request (only recorded when Collector::record_accesses is
  /// set — this is the trace-recording mode). page = requested page,
  /// flag = it was a hit.
  kPageAccess,
  /// One failed read attempt during a fetch. page = the page, frame = the
  /// staging frame, flag = the failure is retryable, a = failures so far
  /// (before this one), b = core::StatusCode of the failure.
  kIoFault,
  /// A fetch succeeded after at least one failed attempt. page/frame as in
  /// kIoFault, a = how many attempts failed before the clean read.
  kIoRecovered,
  /// A frame was taken out of service after a terminal read failure.
  /// page = the page that poisoned it, frame = the quarantined frame,
  /// a = quarantined frames in this buffer after the event.
  kFrameQuarantined,
  /// One closed tracing span (see obs/trace.h). query = trace id,
  /// delta = SpanKind, frame = parent span id << 16 | span id,
  /// a = track << 32 | kind-specific payload, b = begin ns (tracer epoch),
  /// c = duration ns, page = page id when the span covers one page.
  kSpan,
  /// The service entered degraded read-only mode. a = the trigger
  /// (svc::DegradedState as an integer), b = core::StatusCode of the error
  /// that tripped it, frame = the shard that observed the trigger.
  kDegraded,
  /// The background flusher backed off a persistently failing shard instead
  /// of hot-spinning on it. frame = the shard, a = consecutive failed flush
  /// rounds, b = flush rounds the shard will now be skipped for.
  kFlushBackoff,
};

/// One structured event. Plain 48-byte POD; pushing is a copy into a
/// preallocated ring slot.
struct Event {
  EventKind kind = EventKind::kEviction;
  int8_t delta = 0;   ///< kAsbAdapt: -1 / 0 / +1
  bool flag = false;  ///< kEviction: dirty; kPageAccess: hit
  uint32_t frame = 0;
  uint64_t query = 0;  ///< query id of the access that caused the event
  uint64_t page = 0;
  uint64_t a = 0;  ///< kind-specific payload, see EventKind
  uint64_t b = 0;
  uint64_t c = 0;
};

/// Bounded ring buffer of events (capacity 0 = record nothing, kUnbounded =
/// grow without limit, else keep the most recent `capacity`). Push never
/// allocates once the ring is at capacity; `dropped()` says how many events
/// fell off the front, so consumers can tell a complete stream from a tail.
class EventRing {
 public:
  static constexpr size_t kUnbounded = static_cast<size_t>(-1);

  explicit EventRing(size_t capacity = 4096);

  void Push(const Event& event);

  size_t capacity() const { return capacity_; }
  size_t size() const { return events_.size(); }
  uint64_t total() const { return total_; }
  uint64_t dropped() const { return total_ - events_.size(); }
  void Clear();

  /// Visits the retained events in chronological order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t n = events_.size();
    for (size_t i = 0; i < n; ++i) {
      fn(events_[(head_ + i) % (n == 0 ? 1 : n)]);
    }
  }

  /// Retained events, oldest first.
  std::vector<Event> Snapshot() const;

 private:
  size_t capacity_;
  std::vector<Event> events_;
  size_t head_ = 0;  ///< index of the oldest event once the ring wrapped
  uint64_t total_ = 0;
};

}  // namespace sdb::obs

#endif  // SPATIALBUFFER_OBS_EVENTS_H_

// Shared pieces of the benchmark: command-line options, the seeded database
// set-up, latency statistics, the report printed at the end of a run, and
// the timing decorators the traced run wraps around each layer's public
// interface. Nothing here is part of the library: the decorators forward
// every call unchanged, so a traced run makes exactly the decisions an
// untraced one makes.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/buffer_manager.h"
#include "core/replacement_policy.h"
#include "sim/scenario.h"
#include "storage/disk_manager.h"
#include "svc/buffer_service.h"

namespace perfbench {

namespace sim = sdb::sim;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline uint64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Command line: --workload NAME --seed N --seconds S --trace 0|1 (S may
/// be fractional).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Parses argv; nullopt (after printing the reason to stderr) on bad input.
std::optional<Options> ParseOptions(int argc, char** argv);

/// Derives an independent 64-bit stream seed from the run seed and a salt.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Object-count scale of the benchmark database (1.0 = 200k objects).
inline constexpr double kDatabaseScale = 0.5;

/// The database every workload runs on: the canonical US-like map (the
/// stand-in for the paper's database 1), synthesized and insert-built into
/// an R*-tree on the in-memory device by sim::BuildScenario, never from the
/// image cache. The map is the same for every seed: the seed draws the
/// queries, sessions and operation streams, so runs with different seeds
/// measure the same system on different traffic.
sim::Scenario BuildScenario();

/// Copy of every page of `disk`, made without touching its I/O counters: a
/// writable working copy of the database, or the power-cut image of a
/// device (the bytes written so far, and nothing a buffer still holds).
std::unique_ptr<sdb::storage::DiskManager> CloneDisk(
    const sdb::storage::DiskManager& disk);

/// Host speed, measured by a fixed reference kernel.
///
/// A shared machine's speed drifts by up to half within seconds, as other
/// tenants load the caches and memory of the same cores, and no median over
/// rounds removes drift that lasts longer than a run. So every time the
/// benchmark bounds is taken at reference speed. A fixed kernel (a pointer
/// chase and page copies over 24 MiB, part of the benchmark, not of the
/// library) runs in short slices between units of a round's work, and the
/// round's times are multiplied by the scale those slices give. A change to
/// the library moves scaled times as it moves measured ones; host drift
/// moves the kernel too and cancels.
///
/// Driving thread only.
namespace host_speed {

/// Allocates and warms the kernel's memory; call before timing anything.
void Prepare();

/// Time one slice takes at reference speed (about its time between units
/// of work on a 4-vCPU Xeon VM).
inline constexpr double kSliceSeconds = 0.002;

/// Runs the next slice of the kernel and returns its wall time, which the
/// caller leaves out of the work it times.
double Sample();

/// kSliceSeconds divided by the mean slice time since the last call (after
/// `slices` more slices if none ran since): the factor that turns a time
/// measured over that stretch into the time at reference speed. Resets.
double TakeScale(int slices = 16);

}  // namespace host_speed

/// Latency histogram with 1% relative bucket width from 1 ns to about 1 s
/// (longer samples land in the last bucket): constant memory however many
/// samples a run records, so peak RSS does not depend on throughput.
class Latencies {
 public:
  void Add(double ns, uint64_t weight = 1);
  void Merge(const Latencies& other);
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Quantile estimate (bucket midpoint), q in [0, 1]; 0 without samples.
  double Quantile(double q) const;
  /// The highest of p99.9 / p99 / p90 that has at least ten samples beyond
  /// it, as {q, value}; {0.5, median} for tiny samples.
  std::pair<double, double> TopQuantile() const;

 private:
  static constexpr size_t kBuckets = 2100;
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  double sum_ = 0;
};

/// Median of a small vector (0 when empty).
double Median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// A metric the benchmark reports: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics every workload has: the ones the --trace 0 output
/// carries, each with a regression bound in BENCHMARK.json.
inline constexpr MetricSpec kCommonEndToEnd[] = {
    {"queries_per_s", "1/s"},          {"query_p50_us", "us"},
    {"query_p99_us", "us"},            {"disk_reads_per_query", "1/query"},
    {"setup_s", "s"},                  {"peak_rss_mb", "MiB"}};

/// End-to-end metrics only some workloads have (zero elsewhere, so they
/// cannot carry a relative bound); the --trace 1 output carries them with an
/// "e2e." prefix.
inline constexpr MetricSpec kOtherEndToEnd[] = {
    {"writes_per_s", "1/s"},  {"commit_p50_us", "us"},
    {"commit_p99_us", "us"},  {"recovery_s", "s"},
    {"error_rate", "ratio"}};

/// Per-layer metrics of the traced phase, in print order.
inline constexpr MetricSpec kPerLayer[] = {
    {"core.victim_ns", "ns"},
    {"core.evictions_per_query", "1/query"},
    {"core.hit_fetch_ns", "ns"},
    {"core.miss_fetch_self_ns", "ns"},
    {"core.hit_rate", "ratio"},
    {"core.asb_gain_vs_lru", "ratio"},
    {"core.dirty_writebacks", "1/write"},
    {"core.sync_writeback_fallbacks", "1/write"},
    {"svc.fetch_p50_ns", "ns"},
    {"svc.fetch_p99_ns", "ns"},
    {"svc.latch_wait_share", "ratio"},
    {"svc.optimistic_hit_share", "ratio"},
    {"svc.optimistic_retries", "1/fetch"},
    {"svc.pages_per_batch", "pages"},
    {"svc.flusher_pages", "1/write"},
    {"rtree.self_us_per_query", "us"},
    {"rtree.pages_per_query", "1/query"},
    {"rtree.pages_per_result", "ratio"},
    {"rtree.write_self_us_per_op", "us"},
    {"storage.read_ns", "ns"},
    {"storage.reads", "1/query"},
    {"storage.writes", "1/query"},
    {"storage.write_bytes_per_user_byte", "ratio"},
    {"wal.commits_per_fsync", "ratio"},
    {"wal.bytes_per_commit", "B"},
    {"wal.log_write_ns", "ns"},
    {"wal.sync_ns", "ns"},
    {"wal.forced_steals", "1/write"},
    {"wal.replayed_pages", "pages"},
    {"wal.recover_mb_per_s", "MB/s"},
    {"workload.build_s", "s"},
    {"workload.querygen_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unexplained_frac", "ratio"},
    {"trace.host_scale", "ratio"}};

/// One measured value.
struct Measured {
  double value = 0;
  /// Human-readable note printed next to the value (sample counts, bases).
  std::string note;
};

/// Everything one run prints. A metric a workload does not set is one it
/// does not exercise: printed as "n/a", and as 0 where the JSON output needs
/// every name.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Human-readable reasons for failed checks (the first few are kept).
  std::vector<std::string> failures;
  std::map<std::string, Measured> metrics;

  /// Counts one checked operation; a false `ok` counts it as failed.
  void Check(bool ok, const std::string& why);
  /// Records a metric; `name` must be in one of the tables above.
  void Set(const std::string& name, double value,
           const std::string& note = "");
};

/// Throughput and latency of every round of a phase, at reference speed
/// (see host_speed). Throughput is over the whole phase; latencies are
/// medians over rounds, so a stall of the machine moves one round, not the
/// result.
struct Rounds {
  std::vector<double> p50_ns;  ///< each round's, scaled
  std::vector<double> p99_ns;  ///< each round's, scaled
  std::vector<double> scales;  ///< each round's host_speed::TakeScale()
  /// Every round's latencies merged as measured, for sample counts, the
  /// highest percentile the whole sample supports and per-layer shares.
  Latencies all_ns;
  uint64_t queries = 0;
  double wall_s = 0;    ///< as measured
  double scaled_s = 0;  ///< at reference speed

  /// `round_wall_s` excludes the kernel slices; `scale` is the round's
  /// host_speed::TakeScale().
  void Add(uint64_t round_queries, double round_wall_s,
           const Latencies& round_ns, double scale);
  size_t count() const { return scales.size(); }
  double QueriesPerSecond() const { return queries / scaled_s; }
  double MeasuredQueriesPerSecond() const { return queries / wall_s; }
};

/// Sets queries_per_s, query_p50_us and query_p99_us from `rounds`.
void SetQueryMetrics(const Rounds& rounds, Report* report);

/// Adds the counters the benchmark reports from `in` into `sum`.
void AddShardStats(const sdb::svc::ShardStats& in, sdb::svc::ShardStats* sum);

/// Sets the core.* and svc.* metrics of a BufferService workload from its
/// summed stats, its per-page fetch latencies (`page_ns`, taken at the
/// PageSource boundary) and the total time spent fetching. The service's
/// policies cannot be wrapped (BufferService finds AsbPolicy by
/// dynamic_cast, and a wrapper would switch off shared tuning), so the miss
/// path is derived by subtraction: fetch time above the median page fetch.
void SetServiceMetrics(const sdb::svc::ShardStats& stats,
                       const Latencies& page_ns, double fetch_ns,
                       double queries, Report* report);

// ---------------------------------------------------------------------------
// Timing decorators.

/// Calls into a decorated interface and the time spent inside them.
struct LayerClock {
  uint64_t calls = 0;
  uint64_t nanos = 0;

  void Add(uint64_t ns) {
    ++calls;
    nanos += ns;
  }
  double MeanNs() const {
    return calls == 0 ? 0.0 : static_cast<double>(nanos) / calls;
  }
};

/// storage::PageDevice decorator: times and counts reads, writes and syncs.
/// Single-threaded use (one replay view, or the WAL's log device, whose
/// writes the WAL serializes under its file latch).
class TimedDevice final : public sdb::storage::PageDevice {
 public:
  explicit TimedDevice(sdb::storage::PageDevice* inner) : inner_(inner) {}

  size_t page_size() const override { return inner_->page_size(); }
  sdb::core::StatusOr<sdb::storage::PageId> Allocate() override {
    return inner_->Allocate();
  }
  sdb::core::Status Read(sdb::storage::PageId id,
                         std::span<std::byte> out) override;
  sdb::core::Status Write(sdb::storage::PageId id,
                          std::span<const std::byte> in) override;
  sdb::core::Status Sync() override;
  size_t page_count() const override { return inner_->page_count(); }
  std::optional<uint32_t> PageChecksum(sdb::storage::PageId id) const override {
    return inner_->PageChecksum(id);
  }
  const sdb::storage::IoStats& stats() const override {
    return inner_->stats();
  }
  void ResetStats() override { inner_->ResetStats(); }

  const LayerClock& reads() const { return reads_; }
  const LayerClock& writes() const { return writes_; }
  const LayerClock& syncs() const { return syncs_; }

 private:
  sdb::storage::PageDevice* inner_;
  LayerClock reads_;
  LayerClock writes_;
  LayerClock syncs_;
};

/// core::ReplacementPolicy decorator timing ChooseVictim. Only usable where
/// the benchmark constructs the policy itself (the single-threaded
/// BufferManager of `replay`): BufferService finds AsbPolicy by
/// dynamic_cast, so wrapping its policies would switch off shared tuning.
class TimedPolicy final : public sdb::core::ReplacementPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<sdb::core::ReplacementPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  void Bind(const sdb::core::FrameMetaSource* meta,
            size_t frame_count) override {
    inner_->Bind(meta, frame_count);
  }
  void SetCollector(sdb::obs::Collector* collector) override {
    inner_->SetCollector(collector);
  }
  void OnPageLoaded(sdb::core::FrameId frame, sdb::storage::PageId page,
                    const sdb::core::AccessContext& ctx) override {
    inner_->OnPageLoaded(frame, page, ctx);
  }
  void OnPageAccessed(sdb::core::FrameId frame,
                      const sdb::core::AccessContext& ctx) override {
    inner_->OnPageAccessed(frame, ctx);
  }
  void SetEvictable(sdb::core::FrameId frame, bool evictable) override {
    inner_->SetEvictable(frame, evictable);
  }
  std::optional<sdb::core::FrameId> ChooseVictim(
      const sdb::core::AccessContext& ctx,
      sdb::storage::PageId incoming) override;
  void OnPageEvicted(sdb::core::FrameId frame,
                     sdb::storage::PageId page) override {
    inner_->OnPageEvicted(frame, page);
  }

  const LayerClock& victims() const { return victims_; }

 private:
  std::unique_ptr<sdb::core::ReplacementPolicy> inner_;
  LayerClock victims_;
};

/// core::PageSource decorator between a tree and its page source.
///
/// With `timed`, every Fetch/FetchBatch is timed into the calling thread's
/// slot: the time rtree self time subtracts. With a miss probe attached
/// (single-threaded replay over a TimedDevice and TimedPolicy), each fetch is
/// also split into hit or miss by whether the device read, and a miss's own
/// time excludes the read and victim choice inside it.
///
/// With `query_latency`, it notes per thread the time of the first fetch of
/// every query id — how the service workloads time queries that
/// SessionExecutor drives. A query's latency runs from its first fetch to
/// the first fetch of the next query on the same thread; a session's last
/// query has no successor and is left out of the latency sample.
class TimedSource final : public sdb::core::PageSource {
 public:
  /// `threads` bounds the distinct threads that may call through.
  TimedSource(sdb::core::PageSource* inner, bool timed, bool query_latency,
              size_t threads = 1);

  sdb::core::StatusOr<sdb::core::PageHandle> Fetch(
      sdb::storage::PageId page, const sdb::core::AccessContext& ctx) override;
  void FetchBatch(
      std::span<const sdb::storage::PageId> pages,
      const sdb::core::AccessContext& ctx,
      std::vector<sdb::core::StatusOr<sdb::core::PageHandle>>* out) override;
  bool PrefersBatchedReads() const override {
    return inner_->PrefersBatchedReads();
  }
  size_t BatchPinBudget() const override { return inner_->BatchPinBudget(); }
  sdb::core::StatusOr<sdb::core::PageHandle> New(
      const sdb::core::AccessContext& ctx) override {
    return inner_->New(ctx);
  }
  std::span<const std::byte> Peek(sdb::storage::PageId page) const override {
    return inner_->Peek(page);
  }

  void set_miss_probe(const TimedDevice* device, const TimedPolicy* policy) {
    probe_device_ = device;
    probe_policy_ = policy;
  }
  /// Query-id stride that separates sessions: a successor id in another
  /// stride means the previous query was its session's last.
  void set_session_stride(uint64_t stride) { stride_ = stride; }

  /// Per-thread state; read only after every calling thread has finished.
  struct Slot {
    LayerClock fetch;  ///< calls = Fetch + FetchBatch calls
    uint64_t pages = 0;
    LayerClock hit;       ///< miss probe only
    LayerClock miss_self;  ///< miss probe only
    uint64_t query = 0;
    Clock::time_point query_start;
    Latencies latency_ns;
    /// Fetch latency per page (a batch counts each page at its mean).
    Latencies page_ns;
  };
  const std::vector<std::unique_ptr<Slot>>& slots() const { return slots_; }

  /// Sums over every thread's slot.
  LayerClock FetchTotal() const;
  Latencies QueryLatencies() const;
  Latencies PageLatencies() const;

 private:
  Slot& ThisThread();
  void NoteQuery(Slot& slot, uint64_t query);

  sdb::core::PageSource* inner_;
  const bool timed_;
  const bool query_latency_;
  const TimedDevice* probe_device_ = nullptr;
  const TimedPolicy* probe_policy_ = nullptr;
  uint64_t stride_ = 0;
  const uint64_t instance_;
  std::atomic<size_t> next_slot_{0};
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

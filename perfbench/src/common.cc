#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"

namespace perfbench {

namespace {

bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

bool ParseSeconds(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*end != '\0' || !(value > 0 && value <= 600)) return false;
  *out = value;
  return true;
}

// Bucket b covers [kGrowth^b, kGrowth^(b+1)) nanoseconds.
constexpr double kGrowth = 1.01;

/// The reference kernel: a walk along one random cycle through 8 MiB of
/// indices (Sattolo's shuffle, fixed seed), hashing each index, with a
/// 4 KiB page copy within 16 MiB every eighth step. Each slice continues
/// where the last one stopped, so no slice finds its data left in the
/// caches by the previous one.
class ReferenceKernel {
 public:
  ReferenceKernel() : next_(kIndices), pages_(kPages * kPageBytes) {
    for (size_t i = 0; i < kIndices; ++i) next_[i] = i;
    uint64_t x = 88172645463325252ULL;
    for (size_t i = kIndices - 1; i > 0; --i) {
      x = XorShift(x);
      std::swap(next_[i], next_[x % i]);
    }
    for (int warm = 0; warm < 16; ++warm) Slice();
  }

  /// 12,500 steps: about 2 ms between units of other work, 1.5 ms when
  /// slices run back to back.
  void Slice() {
    for (uint32_t step = 0; step < 12500; ++step) {
      at_ = next_[at_];
      hash_ = (hash_ ^ at_) * 0x9e3779b97f4a7c15ULL;
      if (step % 8 == 0) {
        copy_ = XorShift(copy_);
        const std::byte* from = pages_.data() + (copy_ % kPages) * kPageBytes;
        std::byte* to = pages_.data() + ((copy_ >> 32) % kPages) * kPageBytes;
        std::memmove(to, from, kPageBytes);
        to[0] = static_cast<std::byte>(hash_);
      }
    }
  }

 private:
  static constexpr size_t kIndices = (size_t{8} << 20) / sizeof(uint64_t);
  static constexpr size_t kPageBytes = 4096;
  static constexpr size_t kPages = (size_t{16} << 20) / kPageBytes;

  static uint64_t XorShift(uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  std::vector<uint64_t> next_;
  std::vector<std::byte> pages_;
  uint64_t at_ = 0;
  uint64_t hash_ = 0;
  uint64_t copy_ = 12345;
};

struct HostSpeedState {
  ReferenceKernel kernel;
  int slices = 0;
  double seconds = 0;
};

HostSpeedState& State() {
  static HostSpeedState* const state = new HostSpeedState();
  return *state;
}

}  // namespace

namespace host_speed {

void Prepare() { State(); }

double Sample() {
  HostSpeedState& state = State();
  const Clock::time_point start = Clock::now();
  state.kernel.Slice();
  const double seconds = SecondsSince(start);
  ++state.slices;
  state.seconds += seconds;
  return seconds;
}

double TakeScale(int slices) {
  HostSpeedState& state = State();
  if (state.slices == 0) {
    for (int i = 0; i < slices; ++i) Sample();
  }
  const double scale = kSliceSeconds * state.slices / state.seconds;
  state.slices = 0;
  state.seconds = 0;
  return scale;
}

}  // namespace host_speed

std::optional<Options> ParseOptions(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return std::nullopt;
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseU64(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && ParseSeconds(value, &options.seconds)) {
    } else if (flag == "--trace" && ParseU64(value, &number) && number <= 1) {
      options.trace = number == 1;
    } else {
      std::fprintf(stderr, "bad argument %s %s\n", flag.c_str(), value);
      return std::nullopt;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr, "--workload is required\n");
    return std::nullopt;
  }
  return options;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xd1b54a32d192ed03ULL +
               0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;  // 0 would select the canonical map seed
}

sim::Scenario BuildScenario() {
  sim::ScenarioOptions options;
  options.kind = sim::DatabaseKind::kUsLike;
  options.build = sim::BuildMode::kInsert;
  options.scale = kDatabaseScale;
  return sim::BuildScenario(options);
}

std::unique_ptr<sdb::storage::DiskManager> CloneDisk(
    const sdb::storage::DiskManager& disk) {
  auto copy = std::make_unique<sdb::storage::DiskManager>(disk.page_size());
  for (size_t id = 0; id < disk.page_count(); ++id) {
    const sdb::storage::PageId page = copy->AllocateOrDie();
    SDB_CHECK(copy->Write(page, disk.PeekPage(page)).ok());
  }
  copy->ResetStats();
  return copy;
}

void Latencies::Add(double ns, uint64_t weight) {
  const double clamped = std::max(ns, 1.0);
  const size_t bucket = std::min<size_t>(
      kBuckets - 1,
      static_cast<size_t>(std::log(clamped) / std::log(kGrowth)));
  counts_[bucket] += weight;
  count_ += weight;
  sum_ += ns * static_cast<double>(weight);
}

void Latencies::Merge(const Latencies& other) {
  for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
  sum_ += other.sum_;
}

double Latencies::Quantile(double q) const {
  if (count_ == 0) return 0;
  // Nearest rank: the smallest sample with at least q * n samples at or
  // below it.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) return std::pow(kGrowth, static_cast<double>(b) + 0.5);
  }
  return std::pow(kGrowth, static_cast<double>(kBuckets));
}

std::pair<double, double> Latencies::TopQuantile() const {
  for (const double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(count_) * (1.0 - q) >= 10.0) {
      return {q, Quantile(q)};
    }
  }
  return {0.5, Quantile(0.5)};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::Check(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

void Report::Set(const std::string& name, double value,
                 const std::string& note) {
  bool known = false;
  for (const MetricSpec& spec : kCommonEndToEnd) known |= name == spec.name;
  for (const MetricSpec& spec : kOtherEndToEnd) known |= name == spec.name;
  for (const MetricSpec& spec : kPerLayer) known |= name == spec.name;
  SDB_CHECK_MSG(known, name.c_str());
  metrics[name] = Measured{value, note};
}

void Rounds::Add(uint64_t round_queries, double round_wall_s,
                 const Latencies& round_ns, double scale) {
  p50_ns.push_back(round_ns.Quantile(0.5) * scale);
  p99_ns.push_back(round_ns.Quantile(0.99) * scale);
  scales.push_back(scale);
  all_ns.Merge(round_ns);
  queries += round_queries;
  wall_s += round_wall_s;
  scaled_s += round_wall_s * scale;
}

void SetQueryMetrics(const Rounds& rounds, Report* report) {
  const std::string n = std::to_string(rounds.count()) +
                        " rounds, n=" + std::to_string(rounds.all_ns.count());
  const auto [top_q, top_ns] = rounds.all_ns.TopQuantile();
  char top[96];
  std::snprintf(top, sizeof(top), "; measured over all rounds: p%g = %.3f us",
                100 * top_q, top_ns / 1e3);
  const auto [low, high] =
      std::minmax_element(rounds.scales.begin(), rounds.scales.end());
  char measured[128];
  std::snprintf(measured, sizeof(measured),
                "; measured %.0f/s, host scale %.2f..%.2f",
                rounds.MeasuredQueriesPerSecond(), *low, *high);
  report->Set("queries_per_s", rounds.QueriesPerSecond(),
              "at reference speed, " + std::to_string(rounds.queries) +
                  " queries in " + std::to_string(rounds.count()) + " rounds" +
                  measured);
  report->Set("query_p50_us", Median(rounds.p50_ns) / 1e3,
              "at reference speed, median over " + n);
  report->Set("query_p99_us", Median(rounds.p99_ns) / 1e3,
              "at reference speed, median over " + n + top);
  report->Set("trace.host_scale", Median(rounds.scales),
              "median over rounds; < 1 when the host runs slower than "
              "reference speed");
}

void AddShardStats(const sdb::svc::ShardStats& in, sdb::svc::ShardStats* sum) {
  sum->buffer.requests += in.buffer.requests;
  sum->buffer.hits += in.buffer.hits;
  sum->buffer.misses += in.buffer.misses;
  sum->buffer.evictions += in.buffer.evictions;
  sum->buffer.dirty_writebacks += in.buffer.dirty_writebacks;
  sum->buffer.sync_writeback_fallbacks += in.buffer.sync_writeback_fallbacks;
  sum->io.reads += in.io.reads;
  sum->io.writes += in.io.writes;
  sum->latch_waits += in.latch_waits;
  sum->latch_acquires += in.latch_acquires;
  sum->optimistic_hits += in.optimistic_hits;
  sum->optimistic_retries += in.optimistic_retries;
  sum->batch_submits += in.batch_submits;
  sum->async_reads += in.async_reads;
}

void SetServiceMetrics(const sdb::svc::ShardStats& stats,
                       const Latencies& page_ns, double fetch_ns,
                       double queries, Report* report) {
  const sdb::core::BufferStats& buffer = stats.buffer;
  const double pages = static_cast<double>(page_ns.count());
  const double hit_ns = page_ns.Quantile(0.5);
  const double excess_ns = std::max(0.0, fetch_ns - pages * hit_ns);
  report->Set("core.victim_ns",
              buffer.evictions == 0 ? 0.0 : excess_ns / buffer.evictions,
              "by subtraction: fetch time above the median, per eviction "
              "(an upper bound)");
  report->Set("core.evictions_per_query", buffer.evictions / queries);
  report->Set("core.hit_fetch_ns", hit_ns, "median page fetch");
  report->Set("core.miss_fetch_self_ns",
              buffer.misses == 0 ? 0.0 : excess_ns / buffer.misses,
              "by subtraction: fetch time above the median, per miss");
  report->Set("core.hit_rate", static_cast<double>(buffer.hits) /
                                   static_cast<double>(buffer.requests));
  report->Set("svc.fetch_p50_ns", hit_ns,
              "per page; a batch counts each page at its mean");
  report->Set("svc.fetch_p99_ns", page_ns.Quantile(0.99),
              "n=" + std::to_string(page_ns.count()));
  report->Set("svc.latch_wait_share",
              static_cast<double>(stats.latch_waits) /
                  static_cast<double>(stats.latch_acquires),
              std::to_string(stats.latch_acquires) + " latch acquisitions");
  report->Set("svc.optimistic_hit_share",
              static_cast<double>(stats.optimistic_hits) /
                  static_cast<double>(buffer.requests));
  report->Set("svc.optimistic_retries", stats.optimistic_retries / pages);
  report->Set("svc.pages_per_batch",
              stats.batch_submits == 0
                  ? 0.0
                  : static_cast<double>(stats.async_reads) /
                        static_cast<double>(stats.batch_submits));
  report->Set("storage.reads", stats.io.reads / queries);
  report->Set("storage.writes", stats.io.writes / queries);
}

// --- decorators -------------------------------------------------------------

sdb::core::Status TimedDevice::Read(sdb::storage::PageId id,
                                    std::span<std::byte> out) {
  const Clock::time_point start = Clock::now();
  sdb::core::Status status = inner_->Read(id, out);
  reads_.Add(NanosBetween(start, Clock::now()));
  return status;
}

sdb::core::Status TimedDevice::Write(sdb::storage::PageId id,
                                     std::span<const std::byte> in) {
  const Clock::time_point start = Clock::now();
  sdb::core::Status status = inner_->Write(id, in);
  writes_.Add(NanosBetween(start, Clock::now()));
  return status;
}

sdb::core::Status TimedDevice::Sync() {
  const Clock::time_point start = Clock::now();
  sdb::core::Status status = inner_->Sync();
  syncs_.Add(NanosBetween(start, Clock::now()));
  return status;
}

std::optional<sdb::core::FrameId> TimedPolicy::ChooseVictim(
    const sdb::core::AccessContext& ctx, sdb::storage::PageId incoming) {
  const Clock::time_point start = Clock::now();
  const std::optional<sdb::core::FrameId> victim =
      inner_->ChooseVictim(ctx, incoming);
  victims_.Add(NanosBetween(start, Clock::now()));
  return victim;
}

namespace {
std::atomic<uint64_t> next_source_instance{1};
}  // namespace

TimedSource::TimedSource(sdb::core::PageSource* inner, bool timed,
                         bool query_latency, size_t threads)
    : inner_(inner),
      timed_(timed),
      query_latency_(query_latency),
      instance_(next_source_instance.fetch_add(1)) {
  slots_.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

TimedSource::Slot& TimedSource::ThisThread() {
  // Instance ids are never reused, so a thread that outlives one source and
  // calls through another re-registers instead of reusing a stale slot.
  thread_local uint64_t owner = 0;
  thread_local Slot* slot = nullptr;
  if (owner != instance_) {
    const size_t index = next_slot_.fetch_add(1, std::memory_order_relaxed);
    SDB_CHECK_MSG(index < slots_.size(), "more threads than source slots");
    slot = slots_[index].get();
    owner = instance_;
  }
  return *slot;
}

void TimedSource::NoteQuery(Slot& slot, uint64_t query) {
  if (query == slot.query) return;
  const Clock::time_point now = Clock::now();
  const bool same_session =
      stride_ == 0 || query / stride_ == slot.query / stride_;
  if (slot.query != 0 && same_session) {
    slot.latency_ns.Add(
        static_cast<double>(NanosBetween(slot.query_start, now)));
  }
  slot.query = query;
  slot.query_start = now;
}

sdb::core::StatusOr<sdb::core::PageHandle> TimedSource::Fetch(
    sdb::storage::PageId page, const sdb::core::AccessContext& ctx) {
  if (!timed_ && !query_latency_) return inner_->Fetch(page, ctx);
  Slot& slot = ThisThread();
  if (query_latency_) NoteQuery(slot, ctx.query_id);
  if (!timed_) return inner_->Fetch(page, ctx);
  uint64_t reads_before = 0;
  uint64_t read_ns_before = 0;
  uint64_t victim_ns_before = 0;
  if (probe_device_ != nullptr) {
    reads_before = probe_device_->reads().calls;
    read_ns_before = probe_device_->reads().nanos;
    victim_ns_before = probe_policy_->victims().nanos;
  }
  const Clock::time_point start = Clock::now();
  sdb::core::StatusOr<sdb::core::PageHandle> fetched = inner_->Fetch(page, ctx);
  const uint64_t ns = NanosBetween(start, Clock::now());
  slot.fetch.Add(ns);
  ++slot.pages;
  slot.page_ns.Add(static_cast<double>(ns));
  if (probe_device_ != nullptr) {
    if (probe_device_->reads().calls == reads_before) {
      slot.hit.Add(ns);
    } else {
      const uint64_t inside =
          (probe_device_->reads().nanos - read_ns_before) +
          (probe_policy_->victims().nanos - victim_ns_before);
      slot.miss_self.Add(ns > inside ? ns - inside : 0);
    }
  }
  return fetched;
}

void TimedSource::FetchBatch(
    std::span<const sdb::storage::PageId> pages,
    const sdb::core::AccessContext& ctx,
    std::vector<sdb::core::StatusOr<sdb::core::PageHandle>>* out) {
  if (!timed_ && !query_latency_) return inner_->FetchBatch(pages, ctx, out);
  Slot& slot = ThisThread();
  if (query_latency_) NoteQuery(slot, ctx.query_id);
  if (!timed_) return inner_->FetchBatch(pages, ctx, out);
  const Clock::time_point start = Clock::now();
  inner_->FetchBatch(pages, ctx, out);
  const uint64_t ns = NanosBetween(start, Clock::now());
  slot.fetch.Add(ns);
  slot.pages += pages.size();
  if (!pages.empty()) {
    slot.page_ns.Add(static_cast<double>(ns) / pages.size(), pages.size());
  }
}

LayerClock TimedSource::FetchTotal() const {
  LayerClock total;
  for (const auto& slot : slots_) {
    total.calls += slot->fetch.calls;
    total.nanos += slot->fetch.nanos;
  }
  return total;
}

Latencies TimedSource::QueryLatencies() const {
  Latencies total;
  for (const auto& slot : slots_) total.Merge(slot->latency_ns);
  return total;
}

Latencies TimedSource::PageLatencies() const {
  Latencies total;
  for (const auto& slot : slots_) total.Merge(slot->page_ns);
  return total;
}

}  // namespace perfbench

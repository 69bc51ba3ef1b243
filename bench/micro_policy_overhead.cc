// Microbenchmark (google-benchmark): CPU overhead of the replacement
// policies themselves — buffer-hit cost and miss/eviction cost per request.
// The paper argues criterion A is essentially free to maintain; this bench
// quantifies the bookkeeping and victim-selection cost of every policy at
// realistic buffer sizes.
//
// In addition to the google-benchmark timings, the binary prints an
// eviction-cost table for the spatial policies: ns per eviction with and
// without a collector attached, and header decodes per eviction (0 in
// steady state, served by the frame-metadata cache). The table is also
// appended as JSON-Lines to BENCH_policy_overhead.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/buffer_manager.h"
#include "core/policy_factory.h"
#include "geom/kernels/kernels.h"
#include "obs/collector.h"
#include "obs/export.h"
#include "rtree/node_view.h"
#include "sim/report.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "svc/buffer_service.h"

namespace {

using namespace sdb;

/// Disk with `n` staged data pages of varying MBR area.
std::unique_ptr<storage::DiskManager> StageDisk(size_t n) {
  auto disk = std::make_unique<storage::DiskManager>();
  std::vector<std::byte> image(disk->page_size(), std::byte{0});
  for (size_t i = 0; i < n; ++i) {
    storage::PageHeaderView header(image.data());
    header.set_type(storage::PageType::kData);
    header.set_level(0);
    geom::EntryAggregates agg;
    const double side = 0.001 * static_cast<double>(i % 97 + 1);
    agg.mbr = geom::Rect(0, 0, side, side);
    agg.sum_entry_area = side * side;
    agg.sum_entry_margin = 2 * side;
    header.set_aggregates(agg);
    const storage::PageId id = disk->AllocateOrDie();
    SDB_CHECK(disk->Write(id, image).ok());
  }
  return disk;
}

void RunAccessLoop(benchmark::State& state, const std::string& policy,
                   bool force_misses) {
  const size_t frames = static_cast<size_t>(state.range(0));
  // Working set: half the buffer for pure hits, 4x the buffer for misses.
  const size_t pages = force_misses ? 4 * frames : frames / 2;
  auto disk = StageDisk(pages);
  core::BufferManager buffer(disk.get(), frames,
                             core::CreatePolicy(policy));
  uint64_t query = 0;
  storage::PageId next = 0;
  for (auto _ : state) {
    const core::AccessContext ctx{++query};
    core::PageHandle handle =
        buffer.FetchOrDie(next, ctx);
    benchmark::DoNotOptimize(handle.bytes().data());
    handle.Release();
    next = static_cast<storage::PageId>((next + 1) % pages);
  }
  state.counters["hit_rate"] = buffer.stats().HitRate();
}

void RegisterAll() {
  for (const char* policy :
       {"LRU", "FIFO", "CLOCK", "GCLOCK", "2Q", "PIN-1", "LRU-T", "LRU-P",
        "LRU-2", "A", "EO", "SLRU:A:0.25", "ASB"}) {
    benchmark::RegisterBenchmark(
        (std::string("hit/") + policy).c_str(),
        [policy](benchmark::State& state) {
          RunAccessLoop(state, policy, /*force_misses=*/false);
        })
        ->Arg(256)
        ->Arg(2048);
    benchmark::RegisterBenchmark(
        (std::string("evict/") + policy).c_str(),
        [policy](benchmark::State& state) {
          RunAccessLoop(state, policy, /*force_misses=*/true);
        })
        ->Arg(256)
        ->Arg(2048);
  }
}

/// One steady-state eviction measurement: cost and header-decode count per
/// eviction over a sequential scan 4x the buffer size (every access misses
/// once the buffer is warm).
struct EvictionCost {
  double ns_per_eviction = 0.0;
  double decodes_per_eviction = 0.0;
  uint64_t evictions = 0;
};

EvictionCost MeasureEvictionCost(const std::string& policy, size_t frames,
                                 obs::Collector* collector = nullptr) {
  const size_t pages = 4 * frames;
  auto disk = StageDisk(pages);
  core::BufferManager buffer(disk.get(), frames, core::CreatePolicy(policy),
                             collector);
  uint64_t query = 0;
  storage::PageId next = 0;
  const auto touch = [&] {
    const core::AccessContext ctx{++query};
    core::PageHandle handle = buffer.FetchOrDie(next, ctx);
    benchmark::DoNotOptimize(handle.bytes().data());
    handle.Release();
    next = static_cast<storage::PageId>((next + 1) % pages);
  };
  // Warm-up: fill every frame and reach the policy's steady state.
  for (size_t i = 0; i < 2 * pages; ++i) touch();

  const uint64_t evictions_before = buffer.stats().evictions;
  const uint64_t decodes_before = buffer.header_decodes();
  const size_t accesses = 4 * pages;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < accesses; ++i) touch();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EvictionCost cost;
  cost.evictions = buffer.stats().evictions - evictions_before;
  if (cost.evictions == 0) return cost;
  const double evictions = static_cast<double>(cost.evictions);
  cost.ns_per_eviction =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      evictions;
  cost.decodes_per_eviction =
      static_cast<double>(buffer.header_decodes() - decodes_before) /
      evictions;
  return cost;
}

/// Prints (and JSON-logs) the eviction-cost table: the steady-state
/// eviction loop per policy and buffer size, plus an observability A/B
/// column (collector attached, ring at its default capacity) quantifying
/// the instrumentation cost the obs subsystem promises to keep near zero
/// when detached.
void RunEvictionCostTable() {
  const std::vector<std::string> policies = {"LRU", "A", "EO", "SLRU:A:0.25",
                                             "ASB"};
  const std::vector<size_t> frame_counts = {256, 1024};
  const std::string json_path = "BENCH_policy_overhead.json";
  bool json_ok = true;
  for (const size_t frames : frame_counts) {
    sim::Table table(
        {"policy", "ns/evict", "ns/evict (obs)", "decodes/evict"});
    for (const std::string& policy : policies) {
      const EvictionCost plain = MeasureEvictionCost(policy, frames);
      obs::Collector collector;
      const EvictionCost observed =
          MeasureEvictionCost(policy, frames, &collector);
      table.AddRow({policy, sim::FormatDouble(plain.ns_per_eviction, 1),
                    sim::FormatDouble(observed.ns_per_eviction, 1),
                    sim::FormatDouble(plain.decodes_per_eviction, 2)});
      char line[512];
      std::snprintf(
          line, sizeof(line),
          "{\"schema_version\":%d,"
          "\"bench\":\"policy_overhead\",\"policy\":\"%s\","
          "\"frames\":%zu,\"ns_per_eviction\":%.1f,"
          "\"ns_per_eviction_obs\":%.1f,\"decodes_per_eviction\":%.3f,"
          "\"evictions\":%llu}",
          obs::kBenchJsonSchemaVersion,
          sim::JsonEscape(policy).c_str(), frames, plain.ns_per_eviction,
          observed.ns_per_eviction, plain.decodes_per_eviction,
          static_cast<unsigned long long>(plain.evictions));
      json_ok = sim::AppendJsonLine(json_path, line) && json_ok;
    }
    char title[128];
    std::snprintf(title, sizeof(title), "eviction cost — %zu frames", frames);
    table.Print(title);
  }
  if (!json_ok) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  }
}

/// Same steady-state eviction loop as MeasureEvictionCost, but reading
/// through a FaultInjectingDevice with a *disabled* profile and checksum
/// verification on — the exact configuration every production run pays now
/// that the fault layer is always compiled in. The delta against the plain
/// device is the zero-fault overhead of the resilience machinery on the
/// eviction hot path (accepted budget: < 3%).
EvictionCost MeasureEvictionCostFaultLayer(const std::string& policy,
                                           size_t frames) {
  const size_t pages = 4 * frames;
  auto disk = StageDisk(pages);
  storage::FaultInjectingDevice device(*disk, storage::FaultProfile{});
  core::BufferManager buffer(&device, frames, core::CreatePolicy(policy));
  uint64_t query = 0;
  storage::PageId next = 0;
  const auto touch = [&] {
    const core::AccessContext ctx{++query};
    core::PageHandle handle = buffer.FetchOrDie(next, ctx);
    benchmark::DoNotOptimize(handle.bytes().data());
    handle.Release();
    next = static_cast<storage::PageId>((next + 1) % pages);
  };
  for (size_t i = 0; i < 2 * pages; ++i) touch();

  const uint64_t evictions_before = buffer.stats().evictions;
  const size_t accesses = 4 * pages;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < accesses; ++i) touch();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EvictionCost cost;
  cost.evictions = buffer.stats().evictions - evictions_before;
  if (cost.evictions == 0) return cost;
  cost.ns_per_eviction =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      static_cast<double>(cost.evictions);
  return cost;
}

/// Fault-layer A/B: plain device versus disabled-profile fault device with
/// checksum verification, on the miss/eviction hot path where every access
/// pays a device Read plus a checksum verify. Appended to
/// BENCH_policy_overhead.json as bench:"fault_overhead".
void RunFaultOverheadTable() {
  const std::vector<std::string> policies = {"LRU", "ASB"};
  const std::vector<size_t> frame_counts = {256, 1024};
  const std::string json_path = "BENCH_policy_overhead.json";
  bool json_ok = true;
  sim::Table table({"policy", "frames", "ns/evict (plain)",
                    "ns/evict (fault layer)", "overhead"});
  for (const size_t frames : frame_counts) {
    for (const std::string& policy : policies) {
      // Best-of-3 per side: the A/B difference is a few ns on a ~µs path,
      // so take minima to shave scheduler noise off both sides.
      EvictionCost plain, fault;
      for (int rep = 0; rep < 3; ++rep) {
        const EvictionCost p = MeasureEvictionCost(policy, frames);
        const EvictionCost f = MeasureEvictionCostFaultLayer(policy, frames);
        if (rep == 0 || p.ns_per_eviction < plain.ns_per_eviction) plain = p;
        if (rep == 0 || f.ns_per_eviction < fault.ns_per_eviction) fault = f;
      }
      const double overhead =
          plain.ns_per_eviction > 0.0
              ? (fault.ns_per_eviction - plain.ns_per_eviction) /
                    plain.ns_per_eviction
              : 0.0;
      table.AddRow({policy, std::to_string(frames),
                    sim::FormatDouble(plain.ns_per_eviction, 1),
                    sim::FormatDouble(fault.ns_per_eviction, 1),
                    sim::FormatDouble(100.0 * overhead, 2) + "%"});
      char line[384];
      std::snprintf(line, sizeof(line),
                    "{\"schema_version\":%d,\"bench\":\"fault_overhead\","
                    "\"policy\":\"%s\",\"frames\":%zu,"
                    "\"ns_per_eviction_plain\":%.1f,"
                    "\"ns_per_eviction_fault_layer\":%.1f,"
                    "\"overhead_frac\":%.4f,\"evictions\":%llu}",
                    obs::kBenchJsonSchemaVersion,
                    sim::JsonEscape(policy).c_str(), frames,
                    plain.ns_per_eviction, fault.ns_per_eviction, overhead,
                    static_cast<unsigned long long>(fault.evictions));
      json_ok = sim::AppendJsonLine(json_path, line) && json_ok;
    }
  }
  table.Print(
      "zero-fault overhead of the fault layer (disabled profile, checksum "
      "verify on) on the eviction hot path");
  if (!json_ok) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  }
}

/// ns per fetch through a 1-shard BufferService driven single-threaded
/// with a hit-dominated loop (working set = half the buffer). The
/// mutex-vs-optimistic delta measured this way is the raw per-pin protocol
/// cost: one uncontended mutex round-trip versus a version-stamp probe,
/// pin-validate, and deferred policy event — with zero contention on either
/// side.
double MeasureServiceFetchNs(const storage::DiskManager& disk,
                             svc::LatchMode mode, size_t frames,
                             size_t pages) {
  svc::BufferServiceConfig config;
  config.total_frames = frames;
  config.shard_count = 1;
  config.policy_spec = "ASB";
  config.latch_mode = mode;
  svc::BufferService service(disk, config);
  uint64_t query = 0;
  storage::PageId next = 0;
  const auto touch = [&] {
    const core::AccessContext ctx{++query};
    core::PageHandle handle = service.FetchOrDie(next, ctx);
    benchmark::DoNotOptimize(handle.bytes().data());
    handle.Release();
    next = static_cast<storage::PageId>((next + 1) % pages);
  };
  for (size_t i = 0; i < 2 * pages; ++i) touch();  // warm: all-hit steady state
  size_t reps = 1024;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < reps; ++r) touch();
    const auto total_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (total_ns >= 20'000'000 || reps >= (1ULL << 30)) {
      return static_cast<double>(total_ns) / static_cast<double>(reps);
    }
    reps = total_ns <= 0 ? reps * 16 : reps * 4;
  }
}

/// Latch-protocol A/B on the service's pin hot path (see
/// MeasureServiceFetchNs). Appended to BENCH_policy_overhead.json as
/// bench:"latch_overhead".
void RunLatchOverheadTable() {
  const std::vector<size_t> frame_counts = {256, 1024};
  const std::string json_path = "BENCH_policy_overhead.json";
  bool json_ok = true;
  sim::Table table({"frames", "ns/fetch (mutex)", "ns/fetch (optimistic)",
                    "overhead"});
  for (const size_t frames : frame_counts) {
    const size_t pages = frames / 2;
    auto disk = StageDisk(pages);
    // Best-of-3 per side: single-digit-ns deltas drown in scheduler noise
    // otherwise.
    double mutex_ns = 0.0, optimistic_ns = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const double m =
          MeasureServiceFetchNs(*disk, svc::LatchMode::kMutex, frames, pages);
      const double o = MeasureServiceFetchNs(
          *disk, svc::LatchMode::kOptimistic, frames, pages);
      if (rep == 0 || m < mutex_ns) mutex_ns = m;
      if (rep == 0 || o < optimistic_ns) optimistic_ns = o;
    }
    const double overhead =
        mutex_ns > 0.0 ? (optimistic_ns - mutex_ns) / mutex_ns : 0.0;
    table.AddRow({std::to_string(frames), sim::FormatDouble(mutex_ns, 1),
                  sim::FormatDouble(optimistic_ns, 1),
                  sim::FormatDouble(100.0 * overhead, 2) + "%"});
    char line[384];
    std::snprintf(line, sizeof(line),
                  "{\"schema_version\":%d,\"bench\":\"latch_overhead\","
                  "\"policy\":\"ASB\",\"frames\":%zu,"
                  "\"ns_per_fetch_mutex\":%.1f,"
                  "\"ns_per_fetch_optimistic\":%.1f,\"overhead_frac\":%.4f}",
                  obs::kBenchJsonSchemaVersion, frames, mutex_ns,
                  optimistic_ns, overhead);
    json_ok = sim::AppendJsonLine(json_path, line) && json_ok;
  }
  table.Print(
      "single-threaded latch-protocol cost on the service pin path, "
      "mutex vs optimistic (1 shard, all hits)");
  if (!json_ok) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  }
}

/// ns per fetch on a hit-dominated BufferManager loop (working set = half
/// the buffer, every access a hit after warm-up) with or without a
/// metrics-only collector attached. This is the CI-guarded overhead: the
/// detached side is one pointer compare per request, the attached side a
/// handful of counter increments — unlike the eviction path there is no
/// O(frames) scan to hide behind, so the A/B isolates the per-request
/// instrumentation cost itself.
double MeasureHitFetchNs(size_t frames, bool attach_collector) {
  const size_t pages = frames / 2;
  auto disk = StageDisk(pages);
  obs::CollectorOptions options;
  options.event_capacity = 0;  // metrics only, like the service shards
  obs::Collector collector(options);
  core::BufferManager buffer(
      disk.get(), frames, core::CreatePolicy("LRU"),
      attach_collector ? &collector : nullptr);
  uint64_t query = 0;
  storage::PageId next = 0;
  const auto touch = [&] {
    const core::AccessContext ctx{++query};
    core::PageHandle handle = buffer.FetchOrDie(next, ctx);
    benchmark::DoNotOptimize(handle.bytes().data());
    handle.Release();
    next = static_cast<storage::PageId>((next + 1) % pages);
  };
  for (size_t i = 0; i < 2 * pages; ++i) touch();  // warm: all-hit
  size_t reps = 1024;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < reps; ++r) touch();
    const auto total_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (total_ns >= 20'000'000 || reps >= (1ULL << 30)) {
      return static_cast<double>(total_ns) / static_cast<double>(reps);
    }
    reps = total_ns <= 0 ? reps * 16 : reps * 4;
  }
}

/// Collector-attachment A/B on the buffer-hit path (see MeasureHitFetchNs).
/// Appended to BENCH_policy_overhead.json as bench:"obs_overhead"; CI's
/// obs-guard job asserts overhead_frac against its threshold via
/// check_bench_regression.py.
void RunObsOverheadTable() {
  const std::vector<size_t> frame_counts = {256, 1024};
  const std::string json_path = "BENCH_policy_overhead.json";
  bool json_ok = true;
  sim::Table table({"frames", "ns/fetch (detached)", "ns/fetch (attached)",
                    "overhead"});
  for (const size_t frames : frame_counts) {
    // Best-of-3 per side: the attached delta is a few ns of counter
    // increments, easily drowned by scheduler noise otherwise.
    double detached_ns = 0.0, attached_ns = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const double d = MeasureHitFetchNs(frames, /*attach_collector=*/false);
      const double a = MeasureHitFetchNs(frames, /*attach_collector=*/true);
      if (rep == 0 || d < detached_ns) detached_ns = d;
      if (rep == 0 || a < attached_ns) attached_ns = a;
    }
    const double overhead =
        detached_ns > 0.0 ? (attached_ns - detached_ns) / detached_ns : 0.0;
    table.AddRow({std::to_string(frames), sim::FormatDouble(detached_ns, 1),
                  sim::FormatDouble(attached_ns, 1),
                  sim::FormatDouble(100.0 * overhead, 2) + "%"});
    char line[384];
    std::snprintf(line, sizeof(line),
                  "{\"schema_version\":%d,\"bench\":\"obs_overhead\","
                  "\"policy\":\"LRU\",\"frames\":%zu,"
                  "\"ns_per_fetch_detached\":%.1f,"
                  "\"ns_per_fetch_attached\":%.1f,\"overhead_frac\":%.4f}",
                  obs::kBenchJsonSchemaVersion, frames, detached_ns,
                  attached_ns, overhead);
    json_ok = sim::AppendJsonLine(json_path, line) && json_ok;
  }
  table.Print(
      "observability cost on the buffer-hit path, no collector vs "
      "metrics-only collector (LRU, all hits)");
  if (!json_ok) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  }
}

/// EO-criterion maintenance cost at increasing fanout: ns per
/// NodeView::RefreshAggregates — whose pairwise-overlap term is O(n²) in the
/// entry count — with the geometry kernels forced to scalar versus the
/// dispatched tier. High fanout (entries near NodeView::Capacity) is where
/// the quadratic term dominates and the SIMD speedup shows. Rows are
/// appended to BENCH_policy_overhead.json as bench:"eo_refresh".
void RunEoRefreshCostTable() {
  using geom::kernels::Level;
  const size_t capacity =
      rtree::NodeView::Capacity(storage::kDefaultPageSize);  // 84 for 4 KiB
  const std::vector<size_t> fanouts = {16, 42, capacity};
  const Level original = geom::kernels::ActiveLevel();
  const std::string dispatched_name(geom::kernels::LevelName(original));
  const std::string json_path = "BENCH_policy_overhead.json";
  bool json_ok = true;
  sim::Table table({"fanout", "ns/refresh (scalar)",
                    "ns/refresh (" + dispatched_name + ")", "speedup"});
  for (const size_t fanout : fanouts) {
    // Pool of distinct nodes, cycled per refresh, so the scalar tier's
    // data-dependent branches see traversal-like (unpredictable) input.
    constexpr size_t kPool = 32;
    std::vector<std::vector<std::byte>> pages;
    Rng rng(71);
    for (size_t p = 0; p < kPool; ++p) {
      pages.emplace_back(storage::kDefaultPageSize);
      rtree::NodeView node(pages.back());
      node.Init(/*level=*/0);
      for (size_t i = 0; i < fanout; ++i) {
        rtree::Entry e;
        e.id = i + 1;
        const double x = rng.NextDouble(), y = rng.NextDouble();
        e.rect = geom::Rect(x, y, x + rng.NextDouble() * 0.3,
                            y + rng.NextDouble() * 0.3);
        node.Append(e);
      }
    }
    double ns[2] = {0.0, 0.0};
    const Level levels[2] = {Level::kScalar, original};
    for (int li = 0; li < 2; ++li) {
      geom::kernels::ForceLevel(levels[li]);
      size_t reps = 1;
      for (;;) {
        const auto start = std::chrono::steady_clock::now();
        for (size_t r = 0; r < reps; ++r) {
          rtree::NodeView node(pages[r % kPool]);
          node.RefreshAggregates();
          benchmark::DoNotOptimize(pages[r % kPool].data());
        }
        const auto elapsed = std::chrono::steady_clock::now() - start;
        const auto total_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count();
        if (total_ns >= 20'000'000 || reps >= (1ULL << 30)) {
          ns[li] = static_cast<double>(total_ns) / static_cast<double>(reps);
          break;
        }
        reps = total_ns <= 0 ? reps * 16 : reps * 4;
      }
    }
    geom::kernels::ForceLevel(original);
    const double speedup = ns[1] > 0.0 ? ns[0] / ns[1] : 0.0;
    table.AddRow({std::to_string(fanout), sim::FormatDouble(ns[0], 1),
                  sim::FormatDouble(ns[1], 1),
                  sim::FormatDouble(speedup, 2) + "x"});
    char line[384];
    std::snprintf(line, sizeof(line),
                  "{\"schema_version\":%d,\"bench\":\"eo_refresh\","
                  "\"fanout\":%zu,\"ns_refresh_scalar\":%.1f,"
                  "\"ns_refresh_dispatched\":%.1f,"
                  "\"dispatched_level\":\"%s\",\"speedup\":%.3f}",
                  obs::kBenchJsonSchemaVersion, fanout, ns[0], ns[1],
                  dispatched_name.c_str(), speedup);
    json_ok = sim::AppendJsonLine(json_path, line) && json_ok;
  }
  table.Print("EO aggregate refresh (O(n²) overlap term), "
              "scalar vs dispatched kernels");
  if (!json_ok) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RunEvictionCostTable();
  RunFaultOverheadTable();
  RunLatchOverheadTable();
  RunObsOverheadTable();
  RunEoRefreshCostTable();
  return 0;
}

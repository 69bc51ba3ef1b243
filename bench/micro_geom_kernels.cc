// Microbenchmark (google-benchmark): throughput of the batch geometry
// kernels (geom/kernels) per dispatch tier — IntersectMask, SumAreas,
// SumMargins and the O(n²) PairwiseOverlapSum — on SoA coordinate arrays at
// R*-tree node fanouts.
//
// Besides the google-benchmark timings, the binary runs a deterministic
// scalar-vs-tier A/B table over the kernel × fanout grid, verifies the
// tiers' results are bit-identical to the scalar reference while timing
// them, and appends one JSON-Lines row per (kernel, level, fanout) cell to
// BENCH_kernels.json (schema_version stamped, obs metrics snapshot
// embedded). The acceptance gate of the SIMD work reads this file: the
// dispatched tier must reach >= 2x scalar throughput on intersect_mask and
// pairwise_overlap_sum at fanout >= 64 on AVX2 hardware.

#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "geom/kernels/kernels.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/report.h"

namespace {

using namespace sdb;
using geom::kernels::Level;
using geom::kernels::Ops;

/// SoA coordinate set of `n` random boxes in the unit square, with extents
/// like the entry MBRs of one R*-tree directory node: sibling regions
/// overlap each other and a window query intersects a mixed fraction of
/// them (what the EO criterion and node scans actually see — and the
/// data-dependent branches of the scalar reference can't predict).
struct CoordSet {
  explicit CoordSet(size_t n, uint64_t seed = 29) {
    buf.Reserve(n);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      const double x = rng.NextDouble(), y = rng.NextDouble();
      buf.xmin()[i] = x;
      buf.ymin()[i] = y;
      buf.xmax()[i] = x + rng.NextDouble() * 0.3;
      buf.ymax()[i] = y + rng.NextDouble() * 0.3;
    }
  }
  geom::kernels::SoaBuffer buf;
  geom::Rect query = geom::Rect(0.3, 0.3, 0.7, 0.7);
};

/// Pool of distinct coordinate sets, cycled per kernel call. Repeating one
/// set lets the branch predictor memorize the scalar reference's
/// data-dependent branches (its pair count fits predictor capacity up to
/// n ~ 100), which no real traversal — visiting a different node every call
/// — gets to do.
std::vector<CoordSet> MakeSets(size_t n, size_t k) {
  std::vector<CoordSet> sets;
  sets.reserve(k);
  for (size_t i = 0; i < k; ++i) sets.emplace_back(n, 29 + 101 * i);
  return sets;
}

std::vector<Level> AvailableLevels() {
  std::vector<Level> levels{Level::kScalar};
  if (geom::kernels::LevelAvailable(Level::kAvx2)) {
    levels.push_back(Level::kAvx2);
  }
  return levels;
}

// --- google-benchmark timings --------------------------------------------

void BM_IntersectMask(benchmark::State& state, Level level) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<CoordSet> sets = MakeSets(n, 8);
  std::vector<uint8_t> mask(n);
  const Ops& ops = geom::kernels::OpsFor(level);
  size_t idx = 0;
  for (auto _ : state) {
    const CoordSet& set = sets[idx];
    idx = (idx + 1) % sets.size();
    const size_t hits = ops.intersect_mask(
        set.query, set.buf.xmin(), set.buf.ymin(), set.buf.xmax(),
        set.buf.ymax(), n, mask.data());
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_Sum(benchmark::State& state,
            double (*Ops::*kernel)(const double*, const double*,
                                   const double*, const double*, size_t),
            Level level) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<CoordSet> sets = MakeSets(n, 8);
  const Ops& ops = geom::kernels::OpsFor(level);
  size_t idx = 0;
  for (auto _ : state) {
    const CoordSet& set = sets[idx];
    idx = (idx + 1) % sets.size();
    const double sum = (ops.*kernel)(set.buf.xmin(), set.buf.ymin(),
                                     set.buf.xmax(), set.buf.ymax(), n);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void RegisterAll() {
  for (const Level level : AvailableLevels()) {
    const std::string suffix(geom::kernels::LevelName(level));
    benchmark::RegisterBenchmark(
        ("intersect_mask/" + suffix).c_str(),
        [level](benchmark::State& state) { BM_IntersectMask(state, level); })
        ->Arg(16)
        ->Arg(64)
        ->Arg(84)
        ->Arg(256);
    benchmark::RegisterBenchmark(
        ("sum_areas/" + suffix).c_str(),
        [level](benchmark::State& state) {
          BM_Sum(state, &Ops::sum_areas, level);
        })
        ->Arg(64)
        ->Arg(256);
    benchmark::RegisterBenchmark(
        ("sum_margins/" + suffix).c_str(),
        [level](benchmark::State& state) {
          BM_Sum(state, &Ops::sum_margins, level);
        })
        ->Arg(64)
        ->Arg(256);
    benchmark::RegisterBenchmark(
        ("pairwise_overlap_sum/" + suffix).c_str(),
        [level](benchmark::State& state) {
          BM_Sum(state, &Ops::pairwise_overlap_sum, level);
        })
        ->Arg(16)
        ->Arg(64)
        ->Arg(84);
  }
}

// --- deterministic A/B table + BENCH_kernels.json ------------------------

/// One timed cell: ns per kernel call and a result checksum for the
/// bit-identity cross-check against the scalar reference.
struct Cell {
  double ns_per_call = 0.0;
  uint64_t checksum = 0;
};

uint64_t FoldChecksum(uint64_t acc, double value) {
  return acc * 1099511628211ULL + std::bit_cast<uint64_t>(value);
}

Cell TimeKernel(const std::string& kernel, Level level,
                const std::vector<CoordSet>& sets, size_t n,
                std::vector<uint8_t>& mask) {
  const Ops& ops = geom::kernels::OpsFor(level);
  size_t idx = 0;
  const auto call = [&]() -> double {
    const CoordSet& set = sets[idx];
    idx = (idx + 1) % sets.size();
    if (kernel == "intersect_mask") {
      return static_cast<double>(ops.intersect_mask(
          set.query, set.buf.xmin(), set.buf.ymin(), set.buf.xmax(),
          set.buf.ymax(), n, mask.data()));
    }
    const auto sum = kernel == "sum_areas"        ? ops.sum_areas
                     : kernel == "sum_margins"    ? ops.sum_margins
                                                  : ops.pairwise_overlap_sum;
    return sum(set.buf.xmin(), set.buf.ymin(), set.buf.xmax(), set.buf.ymax(),
               n);
  };
  // Result checksum from one rotation over the set pool, outside the timing
  // loop — the timed repetition count is calibrated per level, so folding
  // every repetition in would make equal results hash differently.
  Cell cell;
  for (size_t i = 0; i < sets.size(); ++i) {
    cell.checksum = FoldChecksum(cell.checksum, call());
  }
  idx = 0;
  // Calibrate the repetition count so each measurement spans >= ~10 ms.
  size_t reps = 1;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < reps; ++r) {
      benchmark::DoNotOptimize(call());
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    if (ns >= 10'000'000 || reps >= (1ULL << 30)) break;
    reps = ns <= 0 ? reps * 16 : reps * 4;
  }
  // Best of 3 measurements: the minimum is the usual robust estimator
  // against scheduling/frequency noise on shared machines.
  double best_ns = 0.0;
  for (int round = 0; round < 3; ++round) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < reps; ++r) {
      benchmark::DoNotOptimize(call());
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    if (round == 0 || ns < best_ns) best_ns = ns;
  }
  cell.ns_per_call = best_ns / static_cast<double>(reps);
  return cell;
}

void RunKernelTable() {
  const std::vector<Level> levels = AvailableLevels();
  const std::vector<std::string> kernels = {
      "intersect_mask", "sum_areas", "sum_margins", "pairwise_overlap_sum"};
  // 42 / 84: the data-page fanout of the paper's trees and the 4 KiB page
  // capacity; 256: a large directory sweep.
  const std::vector<size_t> fanouts = {16, 42, 64, 84, 256};
  const std::string json_path = "BENCH_kernels.json";
  bool json_ok = true;
  bool identical = true;

  obs::MetricsRegistry registry;
  obs::Counter* calls = registry.GetCounter("kernels.bench.calls");
  obs::Counter* entries = registry.GetCounter("kernels.bench.entries");
  registry.GetGauge("kernels.bench.active_level")
      ->Set(static_cast<double>(geom::kernels::ActiveLevel()));

  sim::Table table({"kernel", "n", "ns scalar", "ns " +
                    std::string(geom::kernels::LevelName(levels.back())),
                    "speedup"});
  for (const std::string& kernel : kernels) {
    for (const size_t n : fanouts) {
      const std::vector<CoordSet> sets = MakeSets(n, 16);
      std::vector<uint8_t> mask(n);
      std::vector<Cell> cells;
      for (const Level level : levels) {
        cells.push_back(TimeKernel(kernel, level, sets, n, mask));
        calls->Add();
        entries->Add(n);
        if (cells.back().checksum != cells.front().checksum) {
          identical = false;
          std::fprintf(stderr,
                       "ERROR: %s diverges from scalar at level %s, n=%zu\n",
                       kernel.c_str(),
                       std::string(geom::kernels::LevelName(level)).c_str(),
                       n);
        }
      }
      const double scalar_ns = cells.front().ns_per_call;
      for (size_t li = 0; li < levels.size(); ++li) {
        const double speedup =
            cells[li].ns_per_call > 0.0 ? scalar_ns / cells[li].ns_per_call
                                        : 0.0;
        char line[512];
        std::snprintf(
            line, sizeof(line),
            "{\"schema_version\":%d,\"bench\":\"geom_kernels\","
            "\"kernel\":\"%s\",\"level\":\"%s\",\"n\":%zu,"
            "\"ns_per_call\":%.2f,\"entries_per_us\":%.2f,"
            "\"speedup_vs_scalar\":%.3f,\"bit_identical\":%s,"
            "\"active_level\":\"%s\"",
            obs::kBenchJsonSchemaVersion, kernel.c_str(),
            std::string(geom::kernels::LevelName(levels[li])).c_str(), n,
            cells[li].ns_per_call,
            1000.0 * static_cast<double>(n) / cells[li].ns_per_call, speedup,
            cells[li].checksum == cells.front().checksum ? "true" : "false",
            std::string(geom::kernels::LevelName(geom::kernels::ActiveLevel()))
                .c_str());
        std::string row(line);
        row += ",\"metrics\":";
        row += obs::MetricsJson(registry.Snapshot());
        row += "}";
        json_ok = sim::AppendJsonLine(json_path, row) && json_ok;
      }
      table.AddRow({kernel, std::to_string(n),
                    sim::FormatDouble(scalar_ns, 1),
                    sim::FormatDouble(cells.back().ns_per_call, 1),
                    sim::FormatDouble(scalar_ns /
                                          cells.back().ns_per_call, 2) + "x"});
    }
  }
  table.Print("geom kernels: scalar vs " +
              std::string(geom::kernels::LevelName(levels.back())) +
              " (dispatched: " +
              std::string(
                  geom::kernels::LevelName(geom::kernels::ActiveLevel())) +
              ")");
  std::printf("bit-identical across tiers: %s\n", identical ? "yes" : "NO");
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
  RunKernelTable();
  return 0;
}

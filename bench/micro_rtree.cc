// Microbenchmark (google-benchmark): R*-tree operation throughput on the
// paged tree — insertion (and the pre-kernel ChooseSubtree step it is gated
// against), deletion (gated against insertion), point/window queries (and
// the type-erased visit they are gated against), STR bulk loading, and the
// synchronized-traversal join — all through a large (all-resident) buffer,
// i.e. measuring CPU cost rather than I/O.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/buffer_manager.h"
#include "core/policy_lru.h"
#include "geom/kernels/kernels.h"
#include "rtree/bulk_load.h"
#include "rtree/node_view.h"
#include "rtree/rtree.h"
#include "rtree/rtree_config.h"
#include "rtree/spatial_join.h"
#include "storage/page.h"

namespace {

using namespace sdb;

std::vector<rtree::Entry> RandomEntries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<rtree::Entry> entries(n);
  for (size_t i = 0; i < n; ++i) {
    entries[i].id = i + 1;
    const double x = rng.NextDouble(), y = rng.NextDouble();
    const double w = rng.NextDouble() * 0.005;
    const double h = rng.NextDouble() * 0.005;
    entries[i].rect = geom::Rect(x, y, x + w, y + h);
  }
  return entries;
}

struct TreeFixture {
  explicit TreeFixture(size_t n, bool bulk = true)
      : buffer(&disk, n / 8 + 1024, std::make_unique<core::LruPolicy>()),
        tree(&disk, &buffer) {
    auto entries = RandomEntries(n, 7);
    if (bulk) {
      rtree::BulkLoad(&tree, std::move(entries), core::AccessContext{});
    } else {
      for (const rtree::Entry& e : entries) {
        tree.Insert(e, core::AccessContext{});
      }
    }
  }
  storage::DiskManager disk;
  core::BufferManager buffer;
  rtree::RTree tree;
};

void BM_Insert(benchmark::State& state) {
  storage::DiskManager disk;
  core::BufferManager buffer(&disk, 1u << 16,
                             std::make_unique<core::LruPolicy>());
  rtree::RTree tree(&disk, &buffer);
  Rng rng(3);
  uint64_t id = 0;
  for (auto _ : state) {
    rtree::Entry e;
    e.id = ++id;
    const double x = rng.NextDouble(), y = rng.NextDouble();
    e.rect = geom::Rect(x, y, x + 0.001, y + 0.001);
    tree.Insert(e, core::AccessContext{});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Insert);

// The R* ChooseSubtree step on one full level-1 node (51 entries, the
// paper's directory fanout) as ChoosePath ran it before the
// overlap_enlargement kernel: decode the node with LoadEntries, then an
// O(n²) loop of out-of-line geom::IntersectionArea calls, then the choice by
// overlap, enlargement and area. One such step was most of an insert; CI
// gates BM_Insert against this row (check_bench_regression.py
// choose-subtree).
void BM_ChooseSubtreeReference(benchmark::State& state) {
  std::vector<std::byte> page(storage::kDefaultPageSize);
  rtree::NodeView node(page);
  node.Init(/*level=*/1);
  Rng rng(43);
  // Data-page MBRs of one region, overlapping their neighbours a little.
  for (uint32_t i = 0; i < rtree::RTreeConfig{}.max_dir_entries; ++i) {
    rtree::Entry e;
    e.id = i + 1;
    const double x = rng.NextDouble() * 0.2, y = rng.NextDouble() * 0.2;
    e.rect = geom::Rect(x, y, x + 0.01 + rng.NextDouble() * 0.03,
                        y + 0.01 + rng.NextDouble() * 0.03);
    node.Append(e);
  }
  node.RefreshAggregates();
  size_t chosen = 0;
  for (auto _ : state) {
    const double x = rng.NextDouble() * 0.2, y = rng.NextDouble() * 0.2;
    const geom::Rect rect(x, y, x + 0.001, y + 0.001);
    const std::vector<rtree::Entry> entries = node.LoadEntries();
    size_t best = 0;
    double best_overlap = 0.0, best_enlarge = 0.0, best_area = 0.0;
    for (size_t i = 0; i < entries.size(); ++i) {
      const geom::Rect united = geom::Union(entries[i].rect, rect);
      double overlap_delta = 0.0;
      for (size_t j = 0; j < entries.size(); ++j) {
        if (j == i) continue;
        overlap_delta +=
            geom::IntersectionArea(united, entries[j].rect) -
            geom::IntersectionArea(entries[i].rect, entries[j].rect);
      }
      const double enlarge = geom::AreaEnlargement(entries[i].rect, rect);
      const double area = entries[i].rect.Area();
      if (i == 0 || overlap_delta < best_overlap ||
          (overlap_delta == best_overlap &&
           (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)))) {
        best = i;
        best_overlap = overlap_delta;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
    chosen += best;
    benchmark::DoNotOptimize(chosen);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChooseSubtreeReference);

void BM_PointQuery(benchmark::State& state) {
  TreeFixture fixture(static_cast<size_t>(state.range(0)));
  Rng rng(9);
  uint64_t query = 0;
  for (auto _ : state) {
    const geom::Point p{rng.NextDouble(), rng.NextDouble()};
    const auto hits =
        fixture.tree.PointQuery(p, core::AccessContext{++query});
    benchmark::DoNotOptimize(hits.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointQuery)->Arg(10'000)->Arg(100'000);

void BM_WindowQuery(benchmark::State& state) {
  TreeFixture fixture(static_cast<size_t>(state.range(0)));
  Rng rng(11);
  uint64_t query = 0;
  size_t results = 0;
  for (auto _ : state) {
    const geom::Rect window = geom::Rect::Centered(
        {rng.NextDouble(), rng.NextDouble()}, 1.0 / 33, 1.0 / 33);
    fixture.tree.WindowQueryVisit(window, core::AccessContext{++query},
                                  [&results](const rtree::Entry&) {
                                    ++results;
                                  });
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowQuery)->Arg(10'000)->Arg(100'000);

// BM_WindowQuery's workload (W-33, about 106 results per query at 100,000
// entries) with its counting visitor stored in a std::function: an
// indirect call per hit, and a full Entry decode because the traversal
// cannot see which fields the callee reads. Every caller paid this while
// WindowQueryVisit took a std::function; CI gates BM_WindowQuery/100000
// against this row (check_bench_regression.py visit).
void BM_WindowQueryTypeErased(benchmark::State& state) {
  TreeFixture fixture(static_cast<size_t>(state.range(0)));
  Rng rng(11);
  uint64_t query = 0;
  size_t results = 0;
  const std::function<void(const rtree::Entry&)> visit =
      [&results](const rtree::Entry&) { ++results; };
  for (auto _ : state) {
    const geom::Rect window = geom::Rect::Centered(
        {rng.NextDouble(), rng.NextDouble()}, 1.0 / 33, 1.0 / 33);
    fixture.tree.WindowQueryVisit(window, core::AccessContext{++query},
                                  visit);
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowQueryTypeErased)->Arg(100'000);

// Same window-query workload with the geometry kernels pinned to one
// dispatch tier — the scalar/dispatched pair isolates how much of the query
// CPU cost the SIMD entry scans remove end to end.
void BM_WindowQueryKernelLevel(benchmark::State& state,
                               bool use_dispatched) {
  const geom::kernels::Level original = geom::kernels::ActiveLevel();
  geom::kernels::ForceLevel(use_dispatched ? original
                                           : geom::kernels::Level::kScalar);
  TreeFixture fixture(static_cast<size_t>(state.range(0)));
  Rng rng(11);
  uint64_t query = 0;
  size_t results = 0;
  for (auto _ : state) {
    const geom::Rect window = geom::Rect::Centered(
        {rng.NextDouble(), rng.NextDouble()}, 1.0 / 33, 1.0 / 33);
    fixture.tree.WindowQueryVisit(window, core::AccessContext{++query},
                                  [&results](const rtree::Entry&) {
                                    ++results;
                                  });
  }
  geom::kernels::ForceLevel(original);
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_WindowQueryKernelLevel, scalar, false)->Arg(100'000);
BENCHMARK_CAPTURE(BM_WindowQueryKernelLevel, dispatched, true)->Arg(100'000);

// One full node (fanout = NodeView::Capacity) scanned against a window. The
// pre-kernels hot path copied every entry into a fresh std::vector via
// LoadEntries() before testing intersections; ScanEntries hands the page's
// coordinate columns to the dispatched kernel in place. BM_NodeScanBareKernel
// runs the same kernel over the same coordinates copied once into plain
// arrays, so BM_NodeScanKernels / BM_NodeScanBareKernel is what scanning a
// page costs over the kernel itself (CI gates it: check_bench_regression.py
// node-scan).
struct FullNodeFixture {
  FullNodeFixture() : page(storage::kDefaultPageSize) {
    rtree::NodeView node(page);
    node.Init(/*level=*/0);
    Rng rng(37);
    const uint32_t fanout = rtree::NodeView::Capacity(page.size());
    for (uint32_t i = 0; i < fanout; ++i) {
      rtree::Entry e;
      e.id = i + 1;
      const double x = rng.NextDouble(), y = rng.NextDouble();
      e.rect = geom::Rect(x, y, x + rng.NextDouble() * 0.1,
                          y + rng.NextDouble() * 0.1);
      node.Append(e);
    }
    node.RefreshAggregates();
  }
  std::vector<std::byte> page;
};

void BM_NodeScanLoadEntries(benchmark::State& state) {
  FullNodeFixture fixture;
  rtree::NodeView node(fixture.page);
  Rng rng(41);
  size_t hits = 0;
  for (auto _ : state) {
    const geom::Rect window = geom::Rect::Centered(
        {rng.NextDouble(), rng.NextDouble()}, 0.2, 0.2);
    const std::vector<rtree::Entry> entries = node.LoadEntries();
    for (const rtree::Entry& e : entries) {
      if (window.Intersects(e.rect)) ++hits;
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * node.count());
}
BENCHMARK(BM_NodeScanLoadEntries);

void BM_NodeScanKernels(benchmark::State& state) {
  FullNodeFixture fixture;
  rtree::NodeView node(fixture.page);
  Rng rng(41);
  std::vector<uint8_t> mask;
  size_t hits = 0;
  for (auto _ : state) {
    const geom::Rect window = geom::Rect::Centered(
        {rng.NextDouble(), rng.NextDouble()}, 0.2, 0.2);
    hits += node.ScanEntries(window, &mask);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * node.count());
}
BENCHMARK(BM_NodeScanKernels);

void BM_NodeScanBareKernel(benchmark::State& state) {
  FullNodeFixture fixture;
  const rtree::NodeView node(fixture.page);
  const uint16_t n = node.count();
  std::vector<double> xmin, ymin, xmax, ymax;
  for (uint16_t i = 0; i < n; ++i) {
    const geom::Rect r = node.GetEntry(i).rect;
    xmin.push_back(r.xmin);
    ymin.push_back(r.ymin);
    xmax.push_back(r.xmax);
    ymax.push_back(r.ymax);
  }
  const geom::kernels::Columns columns{
      reinterpret_cast<const std::byte*>(xmin.data()),
      reinterpret_cast<const std::byte*>(ymin.data()),
      reinterpret_cast<const std::byte*>(xmax.data()),
      reinterpret_cast<const std::byte*>(ymax.data())};
  Rng rng(41);
  std::vector<uint8_t> mask(n);
  size_t hits = 0;
  for (auto _ : state) {
    const geom::Rect window = geom::Rect::Centered(
        {rng.NextDouble(), rng.NextDouble()}, 0.2, 0.2);
    hits += geom::kernels::IntersectMask(window, columns, n, mask.data());
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NodeScanBareKernel);

void BM_BulkLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto entries = RandomEntries(n, 13);
  for (auto _ : state) {
    storage::DiskManager disk;
    core::BufferManager buffer(&disk, n / 8 + 1024,
                               std::make_unique<core::LruPolicy>());
    rtree::RTree tree(&disk, &buffer);
    auto copy = entries;
    rtree::BulkLoad(&tree, std::move(copy), core::AccessContext{});
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BulkLoad)->Arg(100'000);

void BM_SpatialJoin(benchmark::State& state) {
  TreeFixture left(static_cast<size_t>(state.range(0)));
  TreeFixture right(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const rtree::JoinStats stats = rtree::SpatialJoinCount(
        left.tree, right.tree, core::AccessContext{1});
    benchmark::DoNotOptimize(stats.result_pairs);
  }
}
BENCHMARK(BM_SpatialJoin)->Arg(20'000);

void BM_Delete(benchmark::State& state) {
  // Deletes `entries` in turn from a tree that also holds the fixture's
  // 20,000, reinserting them (untimed) once all are gone, so the tree holds
  // 20,000 to 40,000 entries. They are inserted before the timed loop:
  // absent entries would time searches that find nothing.
  const size_t n = 20'000;
  auto entries = RandomEntries(n, 21);
  TreeFixture fixture(n);
  for (const rtree::Entry& e : entries) {
    fixture.tree.Insert(e, core::AccessContext{});
  }
  size_t next = 0;
  for (auto _ : state) {
    if (next >= entries.size()) {
      state.PauseTiming();
      for (const auto& e :
           std::vector<rtree::Entry>(entries.begin(),
                                     entries.begin() + next)) {
        fixture.tree.Insert(e, core::AccessContext{});
      }
      next = 0;
      state.ResumeTiming();
    }
    fixture.tree.Delete(entries[next].id, entries[next].rect,
                        core::AccessContext{});
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Delete);

}  // namespace

BENCHMARK_MAIN();

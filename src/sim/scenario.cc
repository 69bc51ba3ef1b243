#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/macros.h"
#include "core/buffer_manager.h"
#include "core/policy_lru.h"
#include "rtree/bulk_load.h"

namespace sdb::sim {

size_t Scenario::BufferFrames(double fraction) const {
  return std::max<size_t>(
      8, static_cast<size_t>(std::lround(
             fraction * static_cast<double>(tree_stats.total_pages()))));
}

double DefaultScale() {
  const char* env = std::getenv("SDB_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::strtod(env, nullptr);
  return scale > 0.0 ? scale : 1.0;
}

Scenario BuildScenario(const ScenarioOptions& options) {
  workload::MapParams params =
      options.kind == DatabaseKind::kUsLike
          ? workload::UsLikeParams(options.scale)
          : workload::WorldLikeParams(options.scale);
  if (options.seed != 0) params.seed = options.seed;

  workload::GeneratedMap map = workload::GenerateMap(params);

  Scenario scenario;
  scenario.name = params.name;
  scenario.disk = std::make_unique<storage::DiskManager>();

  // A build buffer comfortably larger than the final tree keeps
  // construction fast; experiments later use their own fresh buffers.
  const size_t build_frames = map.dataset.objects.size() / 16 + 2048;
  {
    core::BufferManager build_buffer(scenario.disk.get(), build_frames,
                                     std::make_unique<core::LruPolicy>());
    rtree::RTreeConfig tree_config;
    tree_config.variant = options.variant;
    rtree::RTree tree(scenario.disk.get(), &build_buffer, tree_config);
    const core::AccessContext ctx;  // outside any query

    if (options.build == BuildMode::kBulkLoad) {
      std::vector<rtree::Entry> entries;
      entries.reserve(map.dataset.objects.size());
      for (const workload::SpatialObject& object : map.dataset.objects) {
        rtree::Entry entry;
        entry.rect = object.rect;
        entry.id = object.id;
        entries.push_back(entry);
      }
      rtree::BulkLoad(&tree, std::move(entries), ctx);
    } else {
      for (const workload::SpatialObject& object : map.dataset.objects) {
        rtree::Entry entry;
        entry.rect = object.rect;
        entry.id = object.id;
        tree.Insert(entry, ctx);
      }
      tree.PersistMeta();
    }
    build_buffer.FlushAll();

    const std::string error = tree.Validate();
    SDB_CHECK_MSG(error.empty(), error.c_str());
    scenario.tree_meta = tree.meta_page();
    scenario.tree_stats = tree.ComputeStats();
  }
  scenario.disk->ResetStats();

  scenario.dataset = std::move(map.dataset);
  scenario.places = std::move(map.places);
  return scenario;
}

Scenario BuildCachedScenario(const ScenarioOptions& options) {
  const char* cache_dir = std::getenv("SDB_CACHE_DIR");
  if (cache_dir == nullptr || cache_dir[0] == '\0') {
    return BuildScenario(options);
  }
  // The node-layout version in the name keeps builds of different layouts
  // off each other's images; the meta-page check below also rebuilds (and
  // overwrites) an image that carries the name but not the layout.
  char path[512];
  std::snprintf(path, sizeof(path), "%s/sdb_%s_%g_v%u_s%llu_n%u.img",
                cache_dir,
                options.kind == DatabaseKind::kUsLike ? "us" : "world",
                options.scale, static_cast<unsigned>(options.variant),
                static_cast<unsigned long long>(options.seed),
                static_cast<unsigned>(rtree::NodeView::kLayoutVersion));

  if (auto disk = storage::DiskManager::LoadImage(path)) {
    // The meta page is always the first page the tree allocates.
    const storage::PageId meta_page = 0;
    if (disk->page_count() > 0 &&
        rtree::RTree::HasCurrentLayout(*disk, meta_page)) {
      Scenario scenario;
      scenario.disk =
          std::make_unique<storage::DiskManager>(std::move(*disk));
      scenario.tree_meta = meta_page;
      {
        core::BufferManager stats_buffer(
            scenario.disk.get(), 64, std::make_unique<core::LruPolicy>());
        const rtree::RTree tree = rtree::RTree::Open(
            scenario.disk.get(), &stats_buffer, meta_page);
        scenario.tree_stats = tree.ComputeStats();
      }
      scenario.disk->ResetStats();
      // The map generators are fast and deterministic; re-run them for the
      // dataset/places the query generators need.
      workload::MapParams params =
          options.kind == DatabaseKind::kUsLike
              ? workload::UsLikeParams(options.scale)
              : workload::WorldLikeParams(options.scale);
      if (options.seed != 0) params.seed = options.seed;
      workload::GeneratedMap map = workload::GenerateMap(params);
      scenario.name = params.name;
      scenario.dataset = std::move(map.dataset);
      scenario.places = std::move(map.places);
      return scenario;
    }
  }
  Scenario scenario = BuildScenario(options);
  // Best effort: the scenario is valid either way, but an unwritable cache
  // means every later run rebuilds it too, so say why.
  if (!scenario.disk->SaveImage(path)) {
    std::fprintf(stderr,
                 "warning: could not write scenario cache %s "
                 "(SDB_CACHE_DIR=%s); every run will rebuild it\n",
                 path, cache_dir);
  }
  return scenario;
}

size_t DefaultQueryCount(const Scenario& scenario, int ex) {
  // Baseline counts calibrated for a ~6800-page tree so that a query set
  // produces disk accesses roughly 10-20x the largest (4.7%) buffer; scaled
  // with the tree and clamped to sane bounds (Sec. 3.1: for smaller buffers
  // the factor increases automatically).
  double base = 0.0;
  switch (ex) {
    case 0:
      base = 1600;
      break;
    case 1000:
      base = 1200;
      break;
    case 333:
      base = 1000;
      break;
    case 100:
      base = 700;
      break;
    case 33:
      base = 400;
      break;
    default:
      base = 800;
      break;
  }
  const double scale =
      static_cast<double>(scenario.tree_stats.total_pages()) / 6800.0;
  return static_cast<size_t>(
      std::clamp(base * std::max(scale, 0.05), 100.0, 50'000.0));
}

workload::QuerySet StandardQuerySet(const Scenario& scenario,
                                    workload::QueryFamily family, int ex) {
  workload::QuerySpec spec;
  spec.family = family;
  spec.ex = ex;
  spec.count = DefaultQueryCount(scenario, ex);
  // Deterministic but distinct per family/extent.
  spec.seed = 0xC0FFEEull * (static_cast<uint64_t>(family) + 3) +
              static_cast<uint64_t>(ex) * 7919 + 1;
  return workload::MakeQuerySet(spec, scenario.dataset, scenario.places);
}

}  // namespace sdb::sim

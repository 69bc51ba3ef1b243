#ifndef SPATIALBUFFER_SIM_SCENARIO_H_
#define SPATIALBUFFER_SIM_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "rtree/rtree.h"
#include "storage/disk_manager.h"
#include "workload/data_generator.h"
#include "workload/query_generator.h"

namespace sdb::sim {

/// Which of the paper's two databases to synthesize.
enum class DatabaseKind {
  kUsLike,     ///< database 1: US-mainland-like clustered map
  kWorldLike,  ///< database 2: world-atlas-like sparse continents
};

/// How to construct the R*-tree.
enum class BuildMode {
  kInsert,    ///< one-by-one R* insertion (the paper's trees; slower)
  kBulkLoad,  ///< STR packing (fast; used by tests and quick runs)
};

/// A fully built experiment database: the synthetic map, its R*-tree
/// persisted on a simulated disk, and the derived places table for the
/// query generators.
struct Scenario {
  std::string name;
  std::unique_ptr<storage::DiskManager> disk;
  storage::PageId tree_meta = storage::kInvalidPageId;
  rtree::TreeStats tree_stats;
  workload::Dataset dataset;
  workload::PlacesTable places;

  /// Buffer size in frames for a relative size (fraction of tree pages),
  /// as the paper specifies buffers in percent of the data set.
  size_t BufferFrames(double fraction) const;
};

/// Options of BuildScenario. `scale` multiplies the default object counts
/// (honored from the SDB_SCALE environment variable by DefaultScale()).
struct ScenarioOptions {
  DatabaseKind kind = DatabaseKind::kUsLike;
  BuildMode build = BuildMode::kInsert;
  /// Tree construction algorithm (only meaningful with kInsert).
  rtree::TreeVariant variant = rtree::TreeVariant::kRStar;
  double scale = 1.0;
  uint64_t seed = 0;  ///< 0 = the kind's canonical seed
};

/// Scale factor from the SDB_SCALE environment variable (default 1.0).
double DefaultScale();

/// Synthesizes the map, builds and validates the R*-tree, flushes it to the
/// simulated disk and returns the ready-to-replay scenario.
Scenario BuildScenario(const ScenarioOptions& options);

/// Like BuildScenario, but caches the built disk image in the directory
/// named by the SDB_CACHE_DIR environment variable and reuses it on
/// subsequent calls with the same options and node layout, skipping the
/// (multi-second) tree construction. An image of another layout is rebuilt
/// and overwritten. Without SDB_CACHE_DIR this is plain BuildScenario.
Scenario BuildCachedScenario(const ScenarioOptions& options);

/// The paper's buffer-size ladder: 0.3%, 0.6%, 1.2%, 2.4%, 4.7% of the tree.
inline constexpr double kBufferFractions[] = {0.003, 0.006, 0.012, 0.024,
                                              0.047};

/// The paper's window extents (reciprocal): W-1000 .. W-33.
inline constexpr int kWindowExtents[] = {1000, 333, 100, 33};

/// Number of queries for a query set so that the produced disk accesses are
/// roughly 10-20x the largest investigated buffer, as in Sec. 3.1. Derived
/// empirically from the access cost per query type.
size_t DefaultQueryCount(const Scenario& scenario, int ex);

/// Builds the standard query set of a family/extent with DefaultQueryCount
/// queries and a deterministic per-set seed.
workload::QuerySet StandardQuerySet(const Scenario& scenario,
                                    workload::QueryFamily family, int ex);

}  // namespace sdb::sim

#endif  // SPATIALBUFFER_SIM_SCENARIO_H_

#ifndef SPATIALBUFFER_GEOM_KERNELS_KERNELS_H_
#define SPATIALBUFFER_GEOM_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

#include "geom/rect.h"

namespace sdb::geom::kernels {

/// Instruction-set tiers of the batch geometry kernels, ordered by
/// preference. One tier is selected at startup (cpuid probe, overridable via
/// SDB_KERNELS=scalar|avx2) and used for every kernel call thereafter.
///
/// Every tier produces BIT-IDENTICAL results: the scalar reference
/// implementation is the single source of truth, and it is defined in the
/// same canonical accumulation order the vector units use (for the sums, 8
/// strided partial sums s0..s7, combined as u_k = s_k + s_{k+4} then
/// (u0+u2)+(u1+u3), sequential tail; overlap_enlargement has its own order,
/// below) — so query hit counts, ChooseSubtree decisions, page aggregates
/// and every BENCH_*.json row are independent of the dispatch level.
enum class Level : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

/// Base addresses of the xmin[], ymin[], xmax[] and ymax[] columns of n entry
/// MBRs, each n native f64 values with no alignment assumed: an R-tree page's
/// own columns or a SoaBuffer's arrays. Kernels load values with std::memcpy
/// or unaligned vector loads, never through a cast double*.
struct Columns {
  const std::byte* xmin;
  const std::byte* ymin;
  const std::byte* xmax;
  const std::byte* ymax;
};

/// Value i of the f64 column starting at `column`.
inline double ColumnValue(const std::byte* column, size_t i) {
  double v;
  std::memcpy(&v, column + i * sizeof(double), sizeof(v));
  return v;
}

/// Function table of one dispatch tier. Every kernel reads the n entry MBRs
/// in place from their coordinate columns, taken by value so that stores to
/// a byte mask cannot alias the column bases.
struct Ops {
  /// Writes out[i] = 1 if `query` intersects entry i (closed-set semantics,
  /// exactly geom::Rect::Intersects), else 0. Returns the hit count.
  size_t (*intersect_mask)(const Rect& query, Columns c, size_t n,
                           uint8_t* out);
  /// Σ area of the entry MBRs (empty/inverted rects count as 0, exactly
  /// geom::Rect::Area) in the canonical accumulation order.
  double (*sum_areas)(Columns c, size_t n);
  /// Σ margin (width + height) of the entry MBRs, canonical order.
  double (*sum_margins)(Columns c, size_t n);
  /// Σ over unordered pairs {i, j} of area(entry_i ∩ entry_j) — the O(n²)
  /// EO criterion term. Canonical order: for each i ascending, the inner
  /// j-sum (j > i) is a canonical strided sum added to the running total.
  double (*pairwise_overlap_sum)(Columns c, size_t n);
  /// out[i] = Σ_{j≠i} (area(Union(e_i, add) ∩ e_j) − area(e_i ∩ e_j)): how
  /// much entry i's overlap with its siblings grows if it is enlarged to
  /// cover `add`, the R* ChooseSubtree criterion of a level-1 node. Each
  /// term is rounded as geom::IntersectionArea(u, e_j) −
  /// geom::IntersectionArea(e_i, e_j). Canonical order, NOT the strided one:
  /// per i, the terms for j = 0…n−1, j ≠ i, are added one at a time to a sum
  /// that starts at 0.0. The AVX2 tier runs four values of i per register
  /// with j sequential in every lane and adds +0.0 for j = i, which is exact
  /// because every term is ≥ +0 (Union(e_i, add) contains e_i, and min,
  /// max, subtraction and multiplication are monotone) or NaN.
  void (*overlap_enlargement)(const Rect& add, Columns c, size_t n,
                              double* out);
};

/// Reusable SoA scratch for entry coordinates held as Rects elsewhere (the
/// span form of ComputeEntryAggregates, the kernel microbench). Reserve()
/// grows but never shrinks, so a warm buffer allocates nothing.
class SoaBuffer {
 public:
  /// Ensures capacity for `n` entries; invalidates previous pointers when it
  /// grows.
  void Reserve(size_t n) {
    if (n <= cap_) return;
    // Round up generously so a caller settles after one growth.
    size_t cap = cap_ == 0 ? 128 : cap_;
    while (cap < n) cap *= 2;
    storage_.assign(4 * cap, 0.0);
    cap_ = cap;
  }

  size_t capacity() const { return cap_; }

  double* xmin() { return storage_.data(); }
  double* ymin() { return storage_.data() + cap_; }
  double* xmax() { return storage_.data() + 2 * cap_; }
  double* ymax() { return storage_.data() + 3 * cap_; }
  const double* xmin() const { return storage_.data(); }
  const double* ymin() const { return storage_.data() + cap_; }
  const double* xmax() const { return storage_.data() + 2 * cap_; }
  const double* ymax() const { return storage_.data() + 3 * cap_; }

  /// The four arrays as kernel columns.
  Columns columns() const {
    return {reinterpret_cast<const std::byte*>(xmin()),
            reinterpret_cast<const std::byte*>(ymin()),
            reinterpret_cast<const std::byte*>(xmax()),
            reinterpret_cast<const std::byte*>(ymax())};
  }

 private:
  std::vector<double> storage_;
  size_t cap_ = 0;
};

/// The tier selected for this process: the best level the CPU supports,
/// clamped by the SDB_KERNELS environment override (read once, at the first
/// call). Thread-safe.
Level ActiveLevel();

/// Function table of the active tier.
const Ops& ActiveOps();

/// Function table of an explicit tier (for A/B benches and the property
/// tests). Asking for an unavailable tier returns the scalar table.
const Ops& OpsFor(Level level);

/// True if `level` is compiled in and supported by this CPU. kScalar is
/// always available.
bool LevelAvailable(Level level);

/// "scalar", "avx2".
std::string_view LevelName(Level level);

/// Parses an SDB_KERNELS-style name (exact, lower-case); nullopt for any
/// other name.
std::optional<Level> ParseLevelName(std::string_view name);

/// Overrides the active tier for the rest of the process (bench/test A/B
/// only — not thread-safe against concurrent kernel calls).
void ForceLevel(Level level);

/// intersect_mask of the active tier.
inline size_t IntersectMask(const Rect& query, Columns c, size_t n,
                            uint8_t* out) {
  return ActiveOps().intersect_mask(query, c, n, out);
}

}  // namespace sdb::geom::kernels

#endif  // SPATIALBUFFER_GEOM_KERNELS_KERNELS_H_

#ifndef SPATIALBUFFER_GEOM_KERNELS_KERNELS_INTERNAL_H_
#define SPATIALBUFFER_GEOM_KERNELS_KERNELS_INTERNAL_H_

#include <algorithm>
#include <cstddef>

#include "geom/kernels/kernels.h"

// Shared between the per-tier translation units. The scalar element
// semantics below are the reference every vector tier must reproduce
// bit-for-bit, including the NaN/±0 behavior of geom::Rect (empty rects use
// ±inf coordinates, so inf−inf NaNs are reachable inputs).

namespace sdb::geom::kernels::internal {

/// Per-tier implementation tables (kScalarOps always real; the AVX2 table
/// aliases the scalar one when the tier is not compiled in).
extern const Ops kScalarOps;
extern const Ops kAvx2Ops;

/// Entry i's MBR, loaded from its columns.
inline Rect EntryAt(const Columns& c, size_t i) {
  return Rect(ColumnValue(c.xmin, i), ColumnValue(c.ymin, i),
              ColumnValue(c.xmax, i), ColumnValue(c.ymax, i));
}

/// Element semantics of geom::Rect::Area(): empty (inverted on either axis)
/// rects have zero width AND height; NaN coordinates propagate.
inline double EntryArea(const Rect& e) {
  const bool empty = e.xmin > e.xmax || e.ymin > e.ymax;
  const double w = empty ? 0.0 : e.xmax - e.xmin;
  const double h = empty ? 0.0 : e.ymax - e.ymin;
  return w * h;
}

/// Element semantics of geom::Rect::Margin().
inline double EntryMargin(const Rect& e) {
  const bool empty = e.xmin > e.xmax || e.ymin > e.ymax;
  const double w = empty ? 0.0 : e.xmax - e.xmin;
  const double h = empty ? 0.0 : e.ymax - e.ymin;
  return w + h;
}

/// Element semantics of geom::IntersectionArea(a, b): exact 0.0 when either
/// extent is non-positive, w·h otherwise (NaN extents fall through to the
/// product, matching the Rect code path).
inline double OverlapArea(const Rect& a, const Rect& b) {
  const double w = std::min(a.xmax, b.xmax) - std::max(a.xmin, b.xmin);
  const double h = std::min(a.ymax, b.ymax) - std::max(a.ymin, b.ymin);
  if (w <= 0.0 || h <= 0.0) return 0.0;
  return w * h;
}

/// overlap_enlargement's out[i] in its canonical order (see kernels.h).
inline double OverlapEnlargementAt(const Rect& add, const Columns& c,
                                   size_t n, size_t i) {
  const Rect e = EntryAt(c, i);
  Rect u = e;
  u.Extend(add);  // geom::Union(e, add)
  double sum = 0.0;
  for (size_t j = 0; j < n; ++j) {
    if (j == i) continue;
    const Rect f = EntryAt(c, j);
    sum += OverlapArea(u, f) - OverlapArea(e, f);
  }
  return sum;
}

/// Element semantics of query.Intersects(entry) (closed-set: touching edges
/// intersect; any NaN coordinate compares false, i.e. no intersection).
inline bool Intersects(const Rect& q, const Rect& e) {
  return q.xmin <= e.xmax && e.xmin <= q.xmax && q.ymin <= e.ymax &&
         e.ymin <= q.ymax;
}

/// THE canonical accumulation order, shared by every tier:
///   - partial sum s_k (k = 0..7) accumulates elements i with i % 8 == k
///     over the largest multiple-of-8 prefix,
///   - partials combine as u_k = s_k + s_{k+4} (a 4×f64 vector add of two
///     interleaved accumulators), then (u0 + u2) + (u1 + u3) — exactly the
///     two-step 128-bit reduction of one 4×f64 register,
///   - tail elements are then added sequentially.
/// Eight strides instead of four so the AVX2 tier can run two independent
/// accumulators (hiding the 4-cycle add latency) and still match this order
/// bit-for-bit. `element(i)` must be pure.
template <typename F>
inline double StridedSum(size_t n, F&& element) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    s0 += element(i);
    s1 += element(i + 1);
    s2 += element(i + 2);
    s3 += element(i + 3);
    s4 += element(i + 4);
    s5 += element(i + 5);
    s6 += element(i + 6);
    s7 += element(i + 7);
  }
  const double u0 = s0 + s4, u1 = s1 + s5, u2 = s2 + s6, u3 = s3 + s7;
  double total = (u0 + u2) + (u1 + u3);
  for (size_t i = n8; i < n; ++i) total += element(i);
  return total;
}

}  // namespace sdb::geom::kernels::internal

#endif  // SPATIALBUFFER_GEOM_KERNELS_KERNELS_INTERNAL_H_

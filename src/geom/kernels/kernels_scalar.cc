// Scalar reference implementation — the single source of truth for all
// kernel semantics. The vector tier (kernels_avx2.cc) must reproduce
// these results bit-for-bit; the property suite
// (tests/geom_kernels_test.cc) enforces it over adversarial rect sets.

#include "geom/kernels/kernels_internal.h"

namespace sdb::geom::kernels::internal {

namespace {

size_t IntersectMaskScalar(const Rect& query, Columns c, size_t n,
                           uint8_t* out) {
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t hit = Intersects(query, EntryAt(c, i)) ? 1 : 0;
    out[i] = hit;
    hits += hit;
  }
  return hits;
}

double SumAreasScalar(Columns c, size_t n) {
  return StridedSum(n, [&](size_t i) { return EntryArea(EntryAt(c, i)); });
}

double SumMarginsScalar(Columns c, size_t n) {
  return StridedSum(n, [&](size_t i) { return EntryMargin(EntryAt(c, i)); });
}

double PairwiseOverlapSumScalar(Columns c, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const Rect a = EntryAt(c, i);
    const size_t base = i + 1;
    total += StridedSum(n - base, [&](size_t t) {
      return OverlapArea(a, EntryAt(c, base + t));
    });
  }
  return total;
}

void OverlapEnlargementScalar(const Rect& add, Columns c, size_t n,
                              double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = OverlapEnlargementAt(add, c, n, i);
}

}  // namespace

const Ops kScalarOps = {
    IntersectMaskScalar,
    SumAreasScalar,
    SumMarginsScalar,
    PairwiseOverlapSumScalar,
    OverlapEnlargementScalar,
};

}  // namespace sdb::geom::kernels::internal

// Scalar reference implementation — the single source of truth for all
// kernel semantics. The vector tier (kernels_avx2.cc) must reproduce
// these results bit-for-bit; the property suite
// (tests/geom_kernels_test.cc) enforces it over adversarial rect sets.

#include "geom/kernels/kernels_internal.h"

namespace sdb::geom::kernels::internal {

namespace {

size_t IntersectMaskScalar(const Rect& query, const double* xmin,
                           const double* ymin, const double* xmax,
                           const double* ymax, size_t n, uint8_t* out) {
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t hit =
        Intersects(query, xmin[i], ymin[i], xmax[i], ymax[i]) ? 1 : 0;
    out[i] = hit;
    hits += hit;
  }
  return hits;
}

double SumAreasScalar(const double* xmin, const double* ymin,
                      const double* xmax, const double* ymax, size_t n) {
  return StridedSum(
      n, [&](size_t i) { return EntryArea(xmin[i], ymin[i], xmax[i], ymax[i]); });
}

double SumMarginsScalar(const double* xmin, const double* ymin,
                        const double* xmax, const double* ymax, size_t n) {
  return StridedSum(n, [&](size_t i) {
    return EntryMargin(xmin[i], ymin[i], xmax[i], ymax[i]);
  });
}

double PairwiseOverlapSumScalar(const double* xmin, const double* ymin,
                                const double* xmax, const double* ymax,
                                size_t n) {
  double total = 0.0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const size_t base = i + 1;
    total += StridedSum(n - base, [&](size_t t) {
      const size_t j = base + t;
      return OverlapArea(xmin[i], ymin[i], xmax[i], ymax[i], xmin[j],
                         ymin[j], xmax[j], ymax[j]);
    });
  }
  return total;
}

}  // namespace

const Ops kScalarOps = {
    IntersectMaskScalar,
    SumAreasScalar,
    SumMarginsScalar,
    PairwiseOverlapSumScalar,
};

}  // namespace sdb::geom::kernels::internal

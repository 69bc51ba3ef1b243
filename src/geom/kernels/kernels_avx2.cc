// AVX2 tier: 4×f64 registers, one entry per lane, two independent
// accumulators per sum (elements i..i+3 and i+4..i+7) so the add-latency
// chain is split in half. Lane k of acc_a holds the scalar reference's
// strided partial s_k and lane k of acc_b holds s_{k+4}; acc_a + acc_b
// yields u_k = s_k + s_{k+4} and the 128-bit reduction reproduces the
// (u0+u2) + (u1+u3) combine — so results are bit-identical to the scalar
// tier's canonical 8-stride order. overlap_enlargement is not a strided
// sum: its lanes are four entries i, each summing over j in sequence.
//
// Deliberately no FMA: a fused multiply-add rounds once where the scalar
// reference rounds twice, which would break the bit-identity contract (the
// whole library is also built with -ffp-contract=off for the same reason).
//
// Operand-order discipline for min/max: std::min(x, y) keeps x when the
// comparison is false (including NaN), while VMINPD keeps the SECOND
// operand; so std::min(x, y) compiles to _mm256_min_pd(y, x), and likewise
// for max.

#include "geom/kernels/kernels_internal.h"

#if defined(SDB_KERNELS_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace sdb::geom::kernels::internal {

namespace {

/// (u0+u2) + (u1+u3) for acc = (u0, u1, u2, u3) — identical to the scalar
/// reference's final combine.
inline double Reduce(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);      // (u0, u1)
  const __m128d hi = _mm256_extractf128_pd(acc, 1);    // (u2, u3)
  const __m128d s = _mm_add_pd(lo, hi);                // (u0+u2, u1+u3)
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// Address of value i of a column, only ever the operand of an unaligned or
/// masked vector load: those access memory through the intrinsics' may-alias
/// vector types, so page bytes are never read as a typed double.
inline const double* LaneAddress(const std::byte* column, size_t i) {
  return reinterpret_cast<const double*>(column + i * sizeof(double));
}

/// Values i..i+3 of a column.
inline __m256d Load4(const std::byte* column, size_t i) {
  return _mm256_loadu_pd(LaneAddress(column, i));
}

/// Width/height of 4 entries with Rect::width()/height() semantics.
inline void LoadExtents(const Columns& c, size_t i, __m256d* w, __m256d* h) {
  const __m256d x0 = Load4(c.xmin, i);
  const __m256d y0 = Load4(c.ymin, i);
  const __m256d x1 = Load4(c.xmax, i);
  const __m256d y1 = Load4(c.ymax, i);
  const __m256d empty = _mm256_or_pd(_mm256_cmp_pd(x0, x1, _CMP_GT_OQ),
                                     _mm256_cmp_pd(y0, y1, _CMP_GT_OQ));
  *w = _mm256_andnot_pd(empty, _mm256_sub_pd(x1, x0));
  *h = _mm256_andnot_pd(empty, _mm256_sub_pd(y1, y0));
}

double SumAreasAvx2(Columns c, size_t n) {
  __m256d acc_a = _mm256_setzero_pd();  // partials s0..s3
  __m256d acc_b = _mm256_setzero_pd();  // partials s4..s7
  const size_t n8 = n & ~static_cast<size_t>(7);
  __m256d w, h;
  for (size_t i = 0; i < n8; i += 8) {
    LoadExtents(c, i, &w, &h);
    acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(w, h));
    LoadExtents(c, i + 4, &w, &h);
    acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(w, h));
  }
  double total = Reduce(_mm256_add_pd(acc_a, acc_b));
  for (size_t i = n8; i < n; ++i) total += EntryArea(EntryAt(c, i));
  return total;
}

double SumMarginsAvx2(Columns c, size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  __m256d w, h;
  for (size_t i = 0; i < n8; i += 8) {
    LoadExtents(c, i, &w, &h);
    acc_a = _mm256_add_pd(acc_a, _mm256_add_pd(w, h));
    LoadExtents(c, i + 4, &w, &h);
    acc_b = _mm256_add_pd(acc_b, _mm256_add_pd(w, h));
  }
  double total = Reduce(_mm256_add_pd(acc_a, acc_b));
  for (size_t i = n8; i < n; ++i) total += EntryMargin(EntryAt(c, i));
  return total;
}

/// Intersection bits of the broadcast query against entries (i .. i+3).
inline int MaskBits4(__m256d qx0, __m256d qy0, __m256d qx1, __m256d qy1,
                     const Columns& c, size_t i) {
  const __m256d m = _mm256_and_pd(
      _mm256_and_pd(_mm256_cmp_pd(qx0, Load4(c.xmax, i), _CMP_LE_OQ),
                    _mm256_cmp_pd(Load4(c.xmin, i), qx1, _CMP_LE_OQ)),
      _mm256_and_pd(_mm256_cmp_pd(qy0, Load4(c.ymax, i), _CMP_LE_OQ),
                    _mm256_cmp_pd(Load4(c.ymin, i), qy1, _CMP_LE_OQ)));
  return _mm256_movemask_pd(m);
}

/// Spreads the low 8 bits into 8 bytes of 0/1: byte k = (bits >> k) & 1.
/// Replicate the bits into every byte, select bit k in byte k, then turn
/// "nonzero byte" into 0x01 via the +0x7f carry into bit 7 (no cross-byte
/// carries: every per-byte value stays <= 0xff).
inline uint64_t SpreadMaskBytes(int bits) {
  const uint64_t rep =
      static_cast<uint64_t>(bits & 0xff) * 0x0101010101010101ULL;
  const uint64_t sel = rep & 0x8040201008040201ULL;
  return ((sel + 0x7f7f7f7f7f7f7f7fULL) >> 7) & 0x0101010101010101ULL;
}

size_t IntersectMaskAvx2(const Rect& query, Columns c, size_t n,
                         uint8_t* out) {
  const __m256d qx0 = _mm256_set1_pd(query.xmin);
  const __m256d qy0 = _mm256_set1_pd(query.ymin);
  const __m256d qx1 = _mm256_set1_pd(query.xmax);
  const __m256d qy1 = _mm256_set1_pd(query.ymax);
  size_t hits = 0;
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    const int bits = MaskBits4(qx0, qy0, qx1, qy1, c, i) |
                     (MaskBits4(qx0, qy0, qx1, qy1, c, i + 4) << 4);
    const uint64_t bytes = SpreadMaskBytes(bits);
    std::memcpy(out + i, &bytes, sizeof(bytes));
    hits += static_cast<size_t>(__builtin_popcount(bits));
  }
  size_t i = n8;
  if (i + 4 <= n) {
    const int bits = MaskBits4(qx0, qy0, qx1, qy1, c, i);
    out[i] = static_cast<uint8_t>(bits & 1);
    out[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);
    out[i + 2] = static_cast<uint8_t>((bits >> 2) & 1);
    out[i + 3] = static_cast<uint8_t>((bits >> 3) & 1);
    hits += static_cast<size_t>(__builtin_popcount(bits));
    i += 4;
  }
  for (; i < n; ++i) {
    const uint8_t hit = Intersects(query, EntryAt(c, i)) ? 1 : 0;
    out[i] = hit;
    hits += hit;
  }
  return hits;
}

/// Four rects, one per lane.
struct Rects4 {
  __m256d x0, y0, x1, y1;
};

/// `r` in every lane.
inline Rects4 Broadcast(const Rect& r) {
  return {_mm256_set1_pd(r.xmin), _mm256_set1_pd(r.ymin),
          _mm256_set1_pd(r.xmax), _mm256_set1_pd(r.ymax)};
}

/// Entries i .. i+3.
inline Rects4 LoadRects(const Columns& c, size_t i) {
  return {Load4(c.xmin, i), Load4(c.ymin, i), Load4(c.xmax, i),
          Load4(c.ymax, i)};
}

/// OverlapArea(a, b) lane by lane.
inline __m256d OverlapAreas(const Rects4& a, const Rects4& b) {
  const __m256d w = _mm256_sub_pd(_mm256_min_pd(b.x1, a.x1),
                                  _mm256_max_pd(b.x0, a.x0));
  const __m256d h = _mm256_sub_pd(_mm256_min_pd(b.y1, a.y1),
                                  _mm256_max_pd(b.y0, a.y0));
  const __m256d zero = _mm256_setzero_pd();
  const __m256d none = _mm256_or_pd(_mm256_cmp_pd(w, zero, _CMP_LE_OQ),
                                    _mm256_cmp_pd(h, zero, _CMP_LE_OQ));
  return _mm256_andnot_pd(none, _mm256_mul_pd(w, h));
}

double PairwiseOverlapSumAvx2(Columns c, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const Rects4 a = Broadcast(EntryAt(c, i));
    const size_t base = i + 1;
    const size_t m = n - base;
    const size_t m8 = m & ~static_cast<size_t>(7);
    __m256d acc_a = _mm256_setzero_pd();
    __m256d acc_b = _mm256_setzero_pd();
    for (size_t t = 0; t < m8; t += 8) {
      acc_a = _mm256_add_pd(acc_a, OverlapAreas(a, LoadRects(c, base + t)));
      acc_b =
          _mm256_add_pd(acc_b, OverlapAreas(a, LoadRects(c, base + t + 4)));
    }
    double inner = Reduce(_mm256_add_pd(acc_a, acc_b));
    size_t t = m8;
    if (t + 4 <= m) {
      // Tail block of 4: each lane's product rounds exactly as the scalar
      // OverlapArea, and adding the lanes in order reproduces the scalar
      // reference's sequential tail.
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, OverlapAreas(a, LoadRects(c, base + t)));
      inner += lanes[0];
      inner += lanes[1];
      inner += lanes[2];
      inner += lanes[3];
      t += 4;
    }
    if (t < m) {
      // Last 1..3 pairs: masked loads keep out-of-range lanes unread, and
      // only the active lanes' products — each rounded exactly as the
      // scalar OverlapArea — are added, in lane order.
      const size_t rem = m - t;
      const size_t j = base + t;
      const __m256i sel = _mm256_set_epi64x(0, rem > 2 ? -1LL : 0,
                                            rem > 1 ? -1LL : 0, -1LL);
      const Rects4 b{_mm256_maskload_pd(LaneAddress(c.xmin, j), sel),
                     _mm256_maskload_pd(LaneAddress(c.ymin, j), sel),
                     _mm256_maskload_pd(LaneAddress(c.xmax, j), sel),
                     _mm256_maskload_pd(LaneAddress(c.ymax, j), sel)};
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, OverlapAreas(a, b));
      for (size_t k = 0; k < rem; ++k) inner += lanes[k];
    }
    total += inner;
  }
  return total;
}

/// Four entries i .. i+3 per register, j sequential in every lane: lane k
/// holds the scalar reference's sum for entry i + k, term for term.
void OverlapEnlargementAvx2(const Rect& add, Columns c, size_t n,
                            double* out) {
  const Rects4 a = Broadcast(add);
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Rects4 e = LoadRects(c, i);
    // Union(e, add): std::min(e, add) is _mm256_min_pd(add, e).
    const Rects4 u{_mm256_min_pd(a.x0, e.x0), _mm256_min_pd(a.y0, e.y0),
                   _mm256_max_pd(a.x1, e.x1), _mm256_max_pd(a.y1, e.y1)};
    __m256d sum = _mm256_setzero_pd();
    for (size_t j = 0; j < n; ++j) {
      const Rects4 f = Broadcast(EntryAt(c, j));
      // Lane j − i (none when j < i wraps) adds +0.0 where the reference
      // skips the term; its sum is never −0, so that leaves it unchanged.
      const __m256d self = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
          lane, _mm256_set1_epi64x(static_cast<long long>(j - i))));
      sum = _mm256_add_pd(
          sum, _mm256_andnot_pd(self, _mm256_sub_pd(OverlapAreas(u, f),
                                                    OverlapAreas(e, f))));
    }
    _mm256_storeu_pd(out + i, sum);
  }
  for (; i < n; ++i) out[i] = OverlapEnlargementAt(add, c, n, i);
}

}  // namespace

const Ops kAvx2Ops = {
    IntersectMaskAvx2,
    SumAreasAvx2,
    SumMarginsAvx2,
    PairwiseOverlapSumAvx2,
    OverlapEnlargementAvx2,
};

}  // namespace sdb::geom::kernels::internal

#else  // AVX2 not compiled in

namespace sdb::geom::kernels::internal {
// Compiler/arch without AVX2 support: the tier aliases the scalar reference
// and LevelAvailable(kAvx2) reports false.
const Ops kAvx2Ops = kScalarOps;
}  // namespace sdb::geom::kernels::internal

#endif

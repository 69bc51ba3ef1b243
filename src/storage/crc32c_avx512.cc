// VPCLMULQDQ kernel of the page-checksum CRC-32C. This translation unit is
// the only one compiled with -mavx512f -mavx512vl -mavx512dq -mvpclmulqdq
// (see src/CMakeLists.txt) and gives external linkage to nothing but
// ExtendFold; the probe in crc32c.cc calls it only on a CPU with all four.
//
// Folding (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ", Intel 2009): sixteen 128-bit lanes in four zmm registers, one
// per 16-byte slot of a 256-byte block, each congruent mod P to the bytes
// seen in its slot as if the message ended there. A reflected lane is
// lo·x^64 + hi, and a reflected carry-less product of a 64-bit half with a
// 32-bit constant reads as the lane times x^33, so moving a lane F bytes
// forward is clmul(lo, x^(8F+31) mod P) ^ clmul(hi, x^(8F-33) mod P) (the
// derivation of Shift in crc32c_sse42.cc). At the end the lanes fold into
// one, and crc32q(crc32q(0, lo), hi) = (lo·x^64 + hi)·x^32 mod P is the CRC
// register of the bytes folded so far (DESIGN.md §9).
#include "storage/crc32c_internal.h"

#if defined(SDB_CRC_FOLD)
#include <immintrin.h>
#endif

namespace sdb::storage::crc32c::detail {

#if defined(SDB_CRC_FOLD)

namespace {

constexpr size_t kStep = 256;

/// Multipliers that move a lane's low and high halves `kBytes` forward.
template <size_t kBytes>
constexpr long long kLow = XPowMod(8 * kBytes + 31);
template <size_t kBytes>
constexpr long long kHigh = XPowMod(8 * kBytes - 33);

/// Every lane moved `kBytes` forward.
template <size_t kBytes>
__m512i Distance() {
  return _mm512_set4_epi64(kHigh<kBytes>, kLow<kBytes>, kHigh<kBytes>,
                           kLow<kBytes>);
}

/// Each lane of `x` moved by its lane of `k`, XORed with `data`.
__m512i Fold(__m512i x, __m512i k, __m512i data) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), data,
                                   0x96);
}

}  // namespace

uint32_t ExtendFold(uint32_t state, const std::byte* data, size_t size) {
  if (size < kStep) return ExtendHardware(state, data, size);
  const std::byte* p = data;
  // The register enters as an XOR into the message's first four bytes.
  __m512i x0 = _mm512_xor_si512(
      _mm512_loadu_si512(p),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(state))));
  __m512i x1 = _mm512_loadu_si512(p + 64);
  __m512i x2 = _mm512_loadu_si512(p + 128);
  __m512i x3 = _mm512_loadu_si512(p + 192);
  const __m512i step = Distance<kStep>();
  for (p += kStep, size -= kStep; size >= kStep; p += kStep, size -= kStep) {
    x0 = Fold(x0, step, _mm512_loadu_si512(p));
    x1 = Fold(x1, step, _mm512_loadu_si512(p + 64));
    x2 = Fold(x2, step, _mm512_loadu_si512(p + 128));
    x3 = Fold(x3, step, _mm512_loadu_si512(p + 192));
  }
  // Registers onto the last one, then its first three lanes onto its last
  // (lane 3 has no multiplier; the zero constant drops its product).
  x3 = Fold(x0, Distance<192>(),
            Fold(x1, Distance<128>(), Fold(x2, Distance<64>(), x3)));
  const __m512i lanes =
      _mm512_set_epi64(0, 0, kHigh<16>, kLow<16>, kHigh<32>, kLow<32>,
                       kHigh<48>, kLow<48>);
  alignas(64) uint64_t q[8];
  _mm512_store_si512(q, Fold(x3, lanes, _mm512_maskz_mov_epi64(0xC0, x3)));
  const uint64_t lo = q[0] ^ q[2] ^ q[4] ^ q[6];
  const uint64_t hi = q[1] ^ q[3] ^ q[5] ^ q[7];
  const uint64_t crc = _mm_crc32_u64(_mm_crc32_u64(0, lo), hi);
  return ExtendHardware(static_cast<uint32_t>(crc), p, size);
}

#else

uint32_t ExtendFold(uint32_t state, const std::byte* data, size_t size) {
  return ExtendHardware(state, data, size);
}

#endif

}  // namespace sdb::storage::crc32c::detail

// SSE4.2 + PCLMUL kernel of the page-checksum CRC-32C. This translation unit
// is the only one compiled with -msse4.2 -mpclmul (see src/CMakeLists.txt);
// it must not be reached unless the runtime cpuid probe confirmed both
// instruction sets, same contract as geom/kernels/kernels_avx2.cc.
//
// crc32q has a latency of three cycles and a throughput of one, so a single
// dependency chain runs the unit at a third of its speed. An input of at
// least three blocks runs three chains over adjacent blocks and joins them.
// Running n zero bytes through the CRC register multiplies it by x^(8n) mod
// P; one carry-less multiply by a constant and one crc32q reduction compute
// that product. crc32q of a 64-bit value v yields v·x^32 mod P, and the
// bit-reflected product of two 32-bit values carries one extra factor x, so
// the constant for n bytes is x^(8n-33) mod P.
#include "storage/crc32c_internal.h"

#if defined(SDB_CRC_HARDWARE)
#include <nmmintrin.h>
#include <wmmintrin.h>
#endif

namespace sdb::storage::crc32c::detail {

#if defined(SDB_CRC_HARDWARE)

namespace {

/// Bytes per chain. A 4 KiB page is three blocks plus a 16-byte tail; a WAL
/// page record (32-byte header + 4 KiB) is three blocks plus 48 bytes.
constexpr size_t kBlock = 1360;
static_assert(kBlock % 8 == 0);

constexpr uint32_t kShiftOneBlock = XPowMod(8 * kBlock - 33);
constexpr uint32_t kShiftTwoBlocks = XPowMod(8 * 2 * kBlock - 33);

/// The CRC register `crc` advanced over the zero bytes `shift` stands for.
uint32_t Shift(uint32_t crc, uint32_t shift) {
  const __m128i product =
      _mm_clmulepi64_si128(_mm_cvtsi32_si128(static_cast<int>(crc)),
                           _mm_cvtsi32_si128(static_cast<int>(shift)), 0x00);
  return static_cast<uint32_t>(
      _mm_crc32_u64(0, static_cast<uint64_t>(_mm_cvtsi128_si64(product))));
}

uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  __builtin_memcpy(&v, p, 8);
  return v;
}

}  // namespace

uint32_t ExtendHardware(uint32_t state, const std::byte* data, size_t size) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = state;
  for (; size >= 3 * kBlock; p += 3 * kBlock, size -= 3 * kBlock) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      crc = _mm_crc32_u64(crc, Load64(p + i));
      crc1 = _mm_crc32_u64(crc1, Load64(p + kBlock + i));
      crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * kBlock + i));
    }
    crc = Shift(static_cast<uint32_t>(crc), kShiftTwoBlocks) ^
          Shift(static_cast<uint32_t>(crc1), kShiftOneBlock) ^ crc2;
  }
  for (; size >= 8; p += 8, size -= 8) crc = _mm_crc32_u64(crc, Load64(p));
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; size > 0; ++p, --size) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32;
}

#else

uint32_t ExtendHardware(uint32_t state, const std::byte* data, size_t size) {
  return ExtendTable(state, data, size);
}

#endif

}  // namespace sdb::storage::crc32c::detail

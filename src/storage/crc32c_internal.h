#ifndef SPATIALBUFFER_STORAGE_CRC32C_INTERNAL_H_
#define SPATIALBUFFER_STORAGE_CRC32C_INTERNAL_H_

#include <cstddef>
#include <cstdint>

// The CRC-32C kernels, shared with the kernel tests. Each works on the raw,
// uninverted register and matches the table bit for bit; a kernel whose
// flags the compiler refused forwards to the tier below.
namespace sdb::storage::crc32c::detail {

/// Table-driven reference (crc32c.cc).
uint32_t ExtendTable(uint32_t state, const std::byte* data, size_t size);

/// Three interleaved crc32q chains (crc32c_sse42.cc; SSE4.2 and PCLMUL).
uint32_t ExtendHardware(uint32_t state, const std::byte* data, size_t size);

/// 256-byte VPCLMULQDQ folds (crc32c_avx512.cc; AVX-512 F, VL and DQ and
/// VPCLMULQDQ), the last bytes through ExtendHardware.
uint32_t ExtendFold(uint32_t state, const std::byte* data, size_t size);

/// x^n mod P, bit-reflected like the crc32 instructions' operands (bit 31
/// holds x^0). Internal linkage: no file can link to a copy compiled for a
/// wider instruction set.
static constexpr uint32_t XPowMod(uint64_t n) {
  uint32_t r = 0x80000000u;
  for (; n > 0; --n) r = (r & 1u) ? (r >> 1) ^ 0x82F63B78u : r >> 1;
  return r;
}

}  // namespace sdb::storage::crc32c::detail

#endif  // SPATIALBUFFER_STORAGE_CRC32C_INTERNAL_H_

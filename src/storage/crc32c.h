#ifndef SPATIALBUFFER_STORAGE_CRC32C_H_
#define SPATIALBUFFER_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace sdb::storage::crc32c {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) of `data`. A cpuid
/// probe at startup picks the best kernel the CPU and build have: 256-byte
/// VPCLMULQDQ folds (AVX-512), three interleaved crc32q chains (SSE4.2 +
/// PCLMUL), or the table. All three agree on every input.
uint32_t Checksum(std::span<const std::byte> data);

/// Continues a checksum: Extend(Checksum(a), b) == Checksum(a‖b), and
/// Extend(0, data) == Checksum(data). Lets a caller checksum bytes that are
/// not contiguous without copying them together.
uint32_t Extend(uint32_t crc, std::span<const std::byte> data);

/// Reference implementation (table-driven); always available. The hardware
/// kernel must match it bit-for-bit on every input.
uint32_t ChecksumScalar(std::span<const std::byte> data);

/// The kernel the probe picked: "vpclmulqdq", "crc32q" or "table".
const char* KernelName();

}  // namespace sdb::storage::crc32c

#endif  // SPATIALBUFFER_STORAGE_CRC32C_H_

#include "storage/crc32c.h"

#include <array>

namespace sdb::storage::crc32c {

namespace detail {
// Defined in crc32c_sse42.cc (compiled with -msse4.2 -mpclmul when the
// compiler takes both). Works on the raw, uninverted CRC register.
uint32_t ExtendHardware(uint32_t state, const std::byte* data, size_t size);
}  // namespace detail

namespace {

/// Reflected CRC-32C lookup table (polynomial 0x82F63B78), built at compile
/// time so the scalar path has no startup cost.
constexpr std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = BuildTable();

uint32_t ExtendTable(uint32_t state, std::span<const std::byte> data) {
  for (std::byte b : data) {
    state = kTable[(state ^ static_cast<uint32_t>(b)) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

bool HardwareAvailable() {
#if defined(SDB_CRC_HARDWARE) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

// Probed once at startup. A checksum taken during another translation
// unit's static initialization may still see false and use the table, which
// gives the same value.
const bool g_hardware = HardwareAvailable();

}  // namespace

uint32_t Extend(uint32_t crc, std::span<const std::byte> data) {
  const uint32_t state =
      g_hardware ? detail::ExtendHardware(~crc, data.data(), data.size())
                 : ExtendTable(~crc, data);
  return ~state;
}

uint32_t Checksum(std::span<const std::byte> data) { return Extend(0, data); }

uint32_t ChecksumScalar(std::span<const std::byte> data) {
  return ~ExtendTable(0xFFFFFFFFu, data);
}

}  // namespace sdb::storage::crc32c

#include "storage/crc32c.h"

#include <array>

#include "storage/crc32c_internal.h"

namespace sdb::storage::crc32c {

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

/// The kernels, worst first; the probe picks the last one the CPU runs.
struct Tier {
  const char* name;
  uint32_t (*extend)(uint32_t state, const std::byte* data, size_t size);
};
constexpr Tier kTiers[] = {{"table", detail::ExtendTable},
                           {"crc32q", detail::ExtendHardware},
                           {"vpclmulqdq", detail::ExtendFold}};

size_t Probe() {
  size_t tier = 0;
#if defined(SDB_CRC_HARDWARE) && (defined(__x86_64__) || defined(__i386__))
  if (__builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul")) {
    tier = 1;
  }
#if defined(SDB_CRC_FOLD)
  if (tier == 1 && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("vpclmulqdq")) {
    tier = 2;
  }
#endif
#endif
  return tier;
}

// Probed once at startup. A checksum taken during another translation
// unit's static initialization may still see tier 0 and use the table,
// which gives the same value.
const size_t g_tier = Probe();

}  // namespace

uint32_t detail::ExtendTable(uint32_t state, const std::byte* data,
                             size_t size) {
  for (const std::byte* end = data + size; data != end; ++data) {
    state = kTable[(state ^ static_cast<uint32_t>(*data)) & 0xFFu] ^
            (state >> 8);
  }
  return state;
}

uint32_t Extend(uint32_t crc, std::span<const std::byte> data) {
  return ~kTiers[g_tier].extend(~crc, data.data(), data.size());
}

uint32_t Checksum(std::span<const std::byte> data) { return Extend(0, data); }

uint32_t ChecksumScalar(std::span<const std::byte> data) {
  return ~detail::ExtendTable(0xFFFFFFFFu, data.data(), data.size());
}

const char* KernelName() { return kTiers[g_tier].name; }

}  // namespace sdb::storage::crc32c

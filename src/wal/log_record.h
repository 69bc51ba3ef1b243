#ifndef SPATIALBUFFER_WAL_LOG_RECORD_H_
#define SPATIALBUFFER_WAL_LOG_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "storage/crc32c.h"
#include "storage/page.h"

namespace sdb::wal {

/// Log sequence number: the byte offset of a record's first header byte in
/// the log stream. Monotone by construction, and self-checking — recovery
/// rejects any record whose stored LSN disagrees with the offset it was
/// scanned at, which catches stale bytes left from a recycled tail page.
using Lsn = uint64_t;

inline constexpr Lsn kNullLsn = 0;

/// Record types of the redo-only log. There is no undo: recovery replays
/// committed physical page images and discards everything after the last
/// valid commit, so these three kinds are the whole vocabulary.
enum class RecordType : uint8_t {
  /// Full physical after-image of one page; payload is page_size bytes.
  kPageImage = 1,
  /// Makes every record appended before it durable-and-committed. The
  /// `page` header field carries the data device's page count at commit so
  /// recovery can bound its byte-exactness check to committed pages.
  kCommit = 2,
  /// All committed images up to here are on the data device; redo starts
  /// after the last one of these. `page` carries the device page count;
  /// the payload is empty.
  kCheckpoint = 3,
};

std::string_view RecordTypeName(RecordType type);

/// Fixed 32-byte header preceding every record payload.
///
/// wire layout (little-endian):
///   [0]   u32  magic
///   [4]   u8   type
///   [5]   u8x3 zero padding
///   [8]   u32  payload length
///   [12]  u32  CRC-32C over (header with crc field zeroed) + payload
///   [16]  u64  lsn (offset of this header in the log stream)
///   [24]  u64  page (page id for images; device page count for
///              commit/checkpoint)
struct RecordHeader {
  static constexpr uint32_t kMagic = 0x57414C52u;  // "WALR"
  static constexpr size_t kSize = 32;
  /// Defensive bound on payload length during recovery scans: no record
  /// payload is larger than a page, but a torn header could claim anything.
  static constexpr uint32_t kMaxPayload = 1u << 24;

  uint32_t magic = kMagic;
  RecordType type = RecordType::kPageImage;
  uint32_t length = 0;
  uint32_t crc = 0;
  Lsn lsn = kNullLsn;
  uint64_t page = 0;
};

namespace detail {

inline void PutU32(std::byte* at, uint32_t v) { std::memcpy(at, &v, 4); }
inline void PutU64(std::byte* at, uint64_t v) { std::memcpy(at, &v, 8); }
inline uint32_t GetU32(const std::byte* at) {
  uint32_t v;
  std::memcpy(&v, at, 4);
  return v;
}
inline uint64_t GetU64(const std::byte* at) {
  uint64_t v;
  std::memcpy(&v, at, 8);
  return v;
}

}  // namespace detail

/// Serializes the header (crc field as given) into `out[0..kSize)`.
inline void EncodeHeader(const RecordHeader& header, std::byte* out) {
  std::memset(out, 0, RecordHeader::kSize);
  detail::PutU32(out + 0, header.magic);
  out[4] = static_cast<std::byte>(header.type);
  detail::PutU32(out + 8, header.length);
  detail::PutU32(out + 12, header.crc);
  detail::PutU64(out + 16, header.lsn);
  detail::PutU64(out + 24, header.page);
}

/// Appends one whole record (header + payload) to `out`, computing the CRC
/// over the zero-crc header and the payload. Returns the record's total
/// encoded size.
inline size_t AppendRecord(RecordType type, Lsn lsn, uint64_t page,
                           std::span<const std::byte> payload,
                           std::vector<std::byte>* out) {
  RecordHeader header;
  header.type = type;
  header.length = static_cast<uint32_t>(payload.size());
  header.lsn = lsn;
  header.page = page;

  const size_t start = out->size();
  out->resize(start + RecordHeader::kSize + payload.size());
  std::byte* base = out->data() + start;
  EncodeHeader(header, base);  // crc field still zero
  if (!payload.empty()) {
    std::memcpy(base + RecordHeader::kSize, payload.data(), payload.size());
  }
  const uint32_t crc = storage::crc32c::Checksum(
      {base, RecordHeader::kSize + payload.size()});
  detail::PutU32(base + 12, crc);
  return RecordHeader::kSize + payload.size();
}

/// One record located in a log stream by a recovery scan.
struct ParsedRecord {
  RecordHeader header;
  /// Payload bytes, aliasing the scanned stream.
  std::span<const std::byte> payload;
  /// Offset just past the record — the next record's LSN.
  Lsn end = kNullLsn;
};

/// Validates and parses the record starting at `offset` in `stream`.
/// Returns nullopt if the bytes are not a whole, checksummed record whose
/// stored LSN equals `offset` — the recovery scan treats that as the end of
/// the valid prefix (a torn tail, trailing zeros, or stale bytes).
inline std::optional<ParsedRecord> ParseRecordAt(
    std::span<const std::byte> stream, Lsn offset) {
  if (offset + RecordHeader::kSize > stream.size()) return std::nullopt;
  const std::byte* base = stream.data() + offset;

  ParsedRecord record;
  record.header.magic = detail::GetU32(base + 0);
  if (record.header.magic != RecordHeader::kMagic) return std::nullopt;
  const uint8_t raw_type = static_cast<uint8_t>(base[4]);
  if (raw_type < static_cast<uint8_t>(RecordType::kPageImage) ||
      raw_type > static_cast<uint8_t>(RecordType::kCheckpoint)) {
    return std::nullopt;
  }
  record.header.type = static_cast<RecordType>(raw_type);
  record.header.length = detail::GetU32(base + 8);
  record.header.crc = detail::GetU32(base + 12);
  record.header.lsn = detail::GetU64(base + 16);
  record.header.page = detail::GetU64(base + 24);

  if (record.header.length > RecordHeader::kMaxPayload) return std::nullopt;
  if (record.header.lsn != offset) return std::nullopt;
  const size_t total = RecordHeader::kSize + record.header.length;
  if (offset + total > stream.size()) return std::nullopt;

  // CRC covers the header with its crc field zeroed, then the payload,
  // which is checksummed in place.
  std::byte scratch[RecordHeader::kSize];
  std::memcpy(scratch, base, RecordHeader::kSize);
  detail::PutU32(scratch + 12, 0);
  record.payload = {base + RecordHeader::kSize, record.header.length};
  const uint32_t crc = storage::crc32c::Extend(
      storage::crc32c::Checksum({scratch, RecordHeader::kSize}),
      record.payload);
  if (crc != record.header.crc) return std::nullopt;

  record.end = offset + total;
  return record;
}

}  // namespace sdb::wal

#endif  // SPATIALBUFFER_WAL_LOG_RECORD_H_

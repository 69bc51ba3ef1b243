#include "storage/fault_injection.h"

#include <charconv>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/macros.h"
#include "common/random.h"

namespace sdb::storage {

namespace {

/// Uniform double in [0, 1) from the top 53 bits of a mixed draw (every
/// fault decision is a pure function of Mix64 outputs). `salt`
/// decorrelates the per-kind draws of one read.
double Draw(uint64_t seed, uint64_t read_index, PageId page, uint64_t salt) {
  const uint64_t h =
      Mix64(seed ^ Mix64(read_index + 1) ^ Mix64(page * 0x9E3779B97F4A7C15ull +
                                                 salt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr uint64_t kSaltTransient = 0xA1;
constexpr uint64_t kSaltTorn = 0xB2;
constexpr uint64_t kSaltBitFlip = 0xC3;
constexpr uint64_t kSaltLatency = 0xD4;
constexpr uint64_t kSaltFlipPos = 0xE5;
constexpr uint64_t kSaltTornWrite = 0xF6;
constexpr uint64_t kSaltWriteTransient = 0x107;
constexpr uint64_t kSaltSyncFail = 0x218;
constexpr uint64_t kSaltDiskFull = 0x329;

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kPermanent:
      return "permanent";
    case FaultKind::kTornRead:
      return "torn";
    case FaultKind::kBitFlip:
      return "bitflip";
    case FaultKind::kLatencySpike:
      return "latency";
    case FaultKind::kTornWrite:
      return "torn_write";
    case FaultKind::kWriteTransient:
      return "write_transient";
    case FaultKind::kWriteBadSector:
      return "write_bad_sector";
    case FaultKind::kSyncFailure:
      return "sync_failure";
    case FaultKind::kDiskFull:
      return "disk_full";
  }
  return "unknown";
}

namespace {

bool ParseDouble(std::string_view text, double* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size() &&
         *out >= 0.0 && *out <= 1.0;
}

bool ParseU64(std::string_view text, uint64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// "A-B" page range, end exclusive.
bool ParseRange(std::string_view text, PageId* begin, PageId* end) {
  const size_t dash = text.find('-');
  if (dash == std::string_view::npos) return false;
  uint64_t lo = 0;
  uint64_t hi = 0;
  if (!ParseU64(text.substr(0, dash), &lo) ||
      !ParseU64(text.substr(dash + 1), &hi) || hi < lo) {
    return false;
  }
  *begin = static_cast<PageId>(lo);
  *end = static_cast<PageId>(hi);
  return true;
}

std::optional<FaultKind> ParseKind(std::string_view text) {
  if (text == "transient") return FaultKind::kTransient;
  if (text == "permanent") return FaultKind::kPermanent;
  if (text == "torn") return FaultKind::kTornRead;
  if (text == "bitflip") return FaultKind::kBitFlip;
  if (text == "latency") return FaultKind::kLatencySpike;
  return std::nullopt;
}

/// Kinds a `wsched=N:kind` entry may script; `transient`/`permanent` here
/// mean their write-side variants.
std::optional<FaultKind> ParseWriteKind(std::string_view text) {
  if (text == "torn_write" || text == "torn") return FaultKind::kTornWrite;
  if (text == "transient") return FaultKind::kWriteTransient;
  if (text == "permanent") return FaultKind::kWriteBadSector;
  return std::nullopt;
}

}  // namespace

std::optional<FaultProfile> FaultProfile::Parse(std::string_view spec) {
  FaultProfile profile;
  while (!spec.empty()) {
    const size_t comma = spec.find(',');
    const std::string_view item = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{}
                                           : spec.substr(comma + 1);
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    uint64_t u64 = 0;
    if (key == "seed") {
      if (!ParseU64(value, &profile.seed)) return std::nullopt;
    } else if (key == "transient") {
      if (!ParseDouble(value, &profile.transient_prob)) return std::nullopt;
    } else if (key == "torn") {
      if (!ParseDouble(value, &profile.torn_read_prob)) return std::nullopt;
    } else if (key == "torn_write") {
      if (!ParseDouble(value, &profile.torn_write_prob)) return std::nullopt;
    } else if (key == "bitflip") {
      if (!ParseDouble(value, &profile.bit_flip_prob)) return std::nullopt;
    } else if (key == "latency") {
      if (!ParseDouble(value, &profile.latency_spike_prob)) {
        return std::nullopt;
      }
    } else if (key == "latency_us") {
      if (!ParseU64(value, &u64)) return std::nullopt;
      profile.latency_spike_us = static_cast<uint32_t>(u64);
    } else if (key == "wtransient") {
      if (!ParseDouble(value, &profile.write_transient_prob)) {
        return std::nullopt;
      }
    } else if (key == "sync_fail") {
      if (!ParseDouble(value, &profile.sync_failure_prob)) return std::nullopt;
    } else if (key == "disk_full") {
      if (!ParseDouble(value, &profile.disk_full_prob)) return std::nullopt;
    } else if (key == "full_after") {
      if (!ParseU64(value, &profile.disk_full_after)) return std::nullopt;
    } else if (key == "bad") {
      if (!ParseRange(value, &profile.bad_begin, &profile.bad_end)) {
        return std::nullopt;
      }
    } else if (key == "wbad") {
      if (!ParseRange(value, &profile.write_bad_begin,
                      &profile.write_bad_end)) {
        return std::nullopt;
      }
    } else if (key == "target") {
      if (!ParseRange(value, &profile.target_begin, &profile.target_end)) {
        return std::nullopt;
      }
    } else if (key == "sched") {
      const size_t colon = value.find(':');
      if (colon == std::string_view::npos) return std::nullopt;
      ScheduledFault entry;
      const auto kind = ParseKind(value.substr(colon + 1));
      if (!ParseU64(value.substr(0, colon), &entry.read_index) ||
          !kind.has_value()) {
        return std::nullopt;
      }
      entry.kind = *kind;
      profile.schedule.push_back(entry);
    } else if (key == "wsched") {
      const size_t colon = value.find(':');
      ScheduledWriteFault entry;
      if (colon == std::string_view::npos) {
        if (!ParseU64(value, &entry.write_index)) return std::nullopt;
      } else {
        const auto kind = ParseWriteKind(value.substr(colon + 1));
        if (!ParseU64(value.substr(0, colon), &entry.write_index) ||
            !kind.has_value()) {
          return std::nullopt;
        }
        entry.kind = *kind;
      }
      profile.write_schedule.push_back(entry);
    } else if (key == "ssched") {
      if (!ParseU64(value, &u64)) return std::nullopt;
      profile.sync_schedule.push_back(u64);
    } else {
      return std::nullopt;
    }
  }
  return profile;
}

FaultKind FaultInjectingDevice::Decide(uint64_t read_index, PageId id) const {
  for (const ScheduledFault& entry : profile_.schedule) {
    if (entry.read_index == read_index) return entry.kind;
  }
  // Bad sectors are driven by the page id alone: retries cannot clear them.
  if (id >= profile_.bad_begin && id < profile_.bad_end) {
    return FaultKind::kPermanent;
  }
  if (id < profile_.target_begin || id >= profile_.target_end) {
    return FaultKind::kNone;
  }
  // Probabilistic kinds, in fixed priority order. Each kind draws its own
  // salted uniform, so the kinds fire independently; retries advance
  // read_index and therefore re-draw.
  if (profile_.transient_prob > 0.0 &&
      Draw(profile_.seed, read_index, id, kSaltTransient) <
          profile_.transient_prob) {
    return FaultKind::kTransient;
  }
  if (profile_.torn_read_prob > 0.0 &&
      Draw(profile_.seed, read_index, id, kSaltTorn) <
          profile_.torn_read_prob) {
    return FaultKind::kTornRead;
  }
  if (profile_.bit_flip_prob > 0.0 &&
      Draw(profile_.seed, read_index, id, kSaltBitFlip) <
          profile_.bit_flip_prob) {
    return FaultKind::kBitFlip;
  }
  if (profile_.latency_spike_prob > 0.0 &&
      Draw(profile_.seed, read_index, id, kSaltLatency) <
          profile_.latency_spike_prob) {
    return FaultKind::kLatencySpike;
  }
  return FaultKind::kNone;
}

core::Status FaultInjectingDevice::Read(PageId id, std::span<std::byte> out) {
  const uint64_t read_index = read_seq_++;
  const FaultKind fault = Decide(read_index, id);

  if (fault == FaultKind::kTransient) {
    ++fault_stats_.transient_errors;
    return core::Status::Unavailable("injected transient read error");
  }
  if (fault == FaultKind::kPermanent) {
    ++fault_stats_.permanent_errors;
    return core::Status::PermanentFailure("injected bad sector");
  }
  if (fault == FaultKind::kLatencySpike) {
    ++fault_stats_.latency_spikes;
    if (profile_.latency_spike_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(profile_.latency_spike_us));
    }
  }

  core::Status status = base_->Read(id, out);
  if (!status.ok()) return status;

  if (fault == FaultKind::kTornRead) {
    // The tail half never arrived: XOR keeps the corruption deterministic
    // and guarantees the page differs from the stamped checksum.
    ++fault_stats_.torn_reads;
    for (size_t i = out.size() / 2; i < out.size(); ++i) {
      out[i] ^= std::byte{0xA5};
    }
    return core::Status::Ok();
  }
  if (fault == FaultKind::kBitFlip) {
    ++fault_stats_.bit_flips;
    const uint64_t pos = Mix64(profile_.seed ^ Mix64(read_index) ^ kSaltFlipPos)
                         % (out.size() * 8);
    out[pos / 8] ^= std::byte{static_cast<unsigned char>(1u << (pos % 8))};
    return core::Status::Ok();
  }

  // Clean read: this is the only path that feeds the exported IoStats, so a
  // fully-recovered run reports exactly the counters of a fault-free run.
  ++clean_stats_.reads;
  if (last_clean_read_ != kInvalidPageId && id == last_clean_read_ + 1) {
    ++clean_stats_.sequential_reads;
  }
  last_clean_read_ = id;
  return core::Status::Ok();
}

FaultKind FaultInjectingDevice::DecideWrite(uint64_t write_index,
                                            PageId id) const {
  for (const ScheduledWriteFault& entry : profile_.write_schedule) {
    if (entry.write_index == write_index) return entry.kind;
  }
  // Unwritable sectors are driven by the page id alone: retries cannot
  // clear them, so the layer above must quarantine the frame.
  if (id >= profile_.write_bad_begin && id < profile_.write_bad_end) {
    return FaultKind::kWriteBadSector;
  }
  if (id < profile_.target_begin || id >= profile_.target_end) {
    return FaultKind::kNone;
  }
  if (profile_.write_transient_prob > 0.0 &&
      Draw(profile_.seed, write_index, id, kSaltWriteTransient) <
          profile_.write_transient_prob) {
    return FaultKind::kWriteTransient;
  }
  if (profile_.torn_write_prob > 0.0 &&
      Draw(profile_.seed, write_index, id, kSaltTornWrite) <
          profile_.torn_write_prob) {
    return FaultKind::kTornWrite;
  }
  return FaultKind::kNone;
}

void FaultInjectingDevice::StashPreImage(PageId id) {
  if (!profile_.sync_faults_enabled()) return;
  if (id >= base_->page_count()) return;  // base will reject the write
  for (const auto& [page, image] : presync_images_) {
    if (page == id) return;  // keep the oldest image since the last sync
  }
  std::vector<std::byte> image(base_->page_size());
  // Reads the pre-write bytes through the base device (outside clean_stats_,
  // so the fault ledger is unperturbed; base counters only move on runs that
  // configure sync faults).
  if (base_->Read(id, image).ok()) {
    presync_images_.emplace_back(id, std::move(image));
  }
}

core::Status FaultInjectingDevice::Write(PageId id,
                                         std::span<const std::byte> in) {
  const uint64_t write_index = write_seq_++;
  const FaultKind fault = DecideWrite(write_index, id);

  if (fault == FaultKind::kWriteTransient) {
    ++fault_stats_.write_transient_errors;
    return core::Status::Unavailable("injected transient write error");
  }
  if (fault == FaultKind::kWriteBadSector) {
    ++fault_stats_.write_permanent_errors;
    return core::Status::PermanentFailure("injected unwritable sector");
  }

  StashPreImage(id);
  if (fault == FaultKind::kTornWrite) {
    // The head half reaches the device, the tail half never does, and the
    // device acknowledges anyway — the silent mid-transfer crash model.
    // Nothing downstream notices until recovery walks the record checksums.
    ++fault_stats_.torn_writes;
    std::vector<std::byte> torn_image(in.begin(), in.end());
    for (size_t i = torn_image.size() / 2; i < torn_image.size(); ++i) {
      torn_image[i] ^= std::byte{0xA5};
    }
    return base_->Write(id, torn_image);
  }
  const core::Status status = base_->Write(id, in);
  if (!status.ok()) return status;
  ++clean_stats_.writes;
  if (last_write_ != kInvalidPageId && id == last_write_ + 1) {
    ++clean_stats_.sequential_writes;
  }
  last_write_ = id;
  return core::Status::Ok();
}

core::StatusOr<PageId> FaultInjectingDevice::Allocate() {
  const uint64_t alloc_index = alloc_seq_++;
  if (profile_.disk_full_after > 0 &&
      base_->page_count() >= profile_.disk_full_after) {
    ++fault_stats_.disk_full_errors;
    return core::Status::ResourceExhausted("injected disk full (capacity)");
  }
  if (profile_.disk_full_prob > 0.0 &&
      Draw(profile_.seed, alloc_index, 0, kSaltDiskFull) <
          profile_.disk_full_prob) {
    ++fault_stats_.disk_full_errors;
    return core::Status::ResourceExhausted("injected disk full");
  }
  return base_->Allocate();
}

core::Status FaultInjectingDevice::Sync() {
  const uint64_t sync_index = sync_seq_++;
  bool fail = false;
  for (const uint64_t scheduled : profile_.sync_schedule) {
    if (scheduled == sync_index) fail = true;
  }
  if (!fail && profile_.sync_failure_prob > 0.0 &&
      Draw(profile_.seed, sync_index, 0, kSaltSyncFail) <
          profile_.sync_failure_prob) {
    fail = true;
  }
  if (fail) {
    // fsyncgate: the failed fsync dropped every dirty page. Model it by
    // restoring the pre-write image of each page written since the last
    // successful Sync — a caller that retries Sync without re-writing the
    // pages "durably persists" stale bytes, exactly the bug class the WAL
    // must defend against.
    ++fault_stats_.sync_failures;
    for (const auto& [page, image] : presync_images_) {
      (void)base_->Write(page, image);
    }
    presync_images_.clear();
    return core::Status::Unavailable("injected sync failure");
  }
  const core::Status status = base_->Sync();
  if (status.ok()) presync_images_.clear();
  return status;
}

void FaultInjectingDevice::ResetStats() {
  clean_stats_ = IoStats{};
  last_clean_read_ = kInvalidPageId;
  last_write_ = kInvalidPageId;
}

}  // namespace sdb::storage

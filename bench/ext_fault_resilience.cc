// Extension: resilience of the replay pipeline under injected I/O faults.
// The paper's experiments assume a perfect disk; a deployed spatial server
// sees transient read errors and the occasional corrupted transfer. This
// bench replays the paper's uniform window workload for LRU and ASB with
// the fault layer injecting transient errors and corruptions at rates
// {0, 0.1%, 1%} and reports the hit rate and the p50/p99 Fetch latency per
// cell.
//
// Contracts verified on every cell: the recovery ledger balances (every
// injected fault is a retry or a permanent failure), and whenever every
// fault was recovered the clean-I/O counters and the query results are
// bit-identical to the fault-free baseline — retries must never perturb
// the paper's disk-access metric. The rate-0 cell reads through the fault
// device with a *disabled* profile and is the A/B against the plain device
// proving the always-compiled-in layer costs nothing when idle.
//
// The write half is a chaos soak: churn an R-tree through the writable
// service with transient write faults and lying fsyncs on the WAL device
// plus transient write faults on the data device, crash (snapshot the
// underlying devices), recover, and demand the recovered tree equals the
// last acknowledged commit exactly — no silent loss. A lying-fsync-forever
// profile drives the service into degraded read-only mode and proves the
// failed commit is absent after recovery while reads keep serving. Any
// violated contract exits 1; seeds come from SDB_SOAK_SEED when set.
//
// Rows are appended as JSON-Lines to BENCH_fault.json (override with
// SDB_BENCH_FAULT; empty disables).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/buffer_manager.h"
#include "core/policy_factory.h"
#include "obs/collector.h"
#include "obs/export.h"
#include "rtree/rtree.h"
#include "sim/churn.h"
#include "storage/disk_manager.h"
#include "storage/disk_view.h"
#include "storage/fault_injection.h"
#include "svc/buffer_service.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace {

using namespace sdb;

/// PageSource decorator that timestamps every Fetch, so per-access latency
/// includes retries, checksum verification and backoff of the layer below.
class TimingSource final : public core::PageSource {
 public:
  explicit TimingSource(core::PageSource* inner) : inner_(inner) {
    latencies_ns_.reserve(1 << 20);
  }

  core::StatusOr<core::PageHandle> Fetch(
      storage::PageId page, const core::AccessContext& ctx) override {
    const auto start = std::chrono::steady_clock::now();
    core::StatusOr<core::PageHandle> fetched = inner_->Fetch(page, ctx);
    latencies_ns_.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    return fetched;
  }

  core::StatusOr<core::PageHandle> New(const core::AccessContext& ctx)
      override {
    return inner_->New(ctx);
  }

  std::span<const std::byte> Peek(storage::PageId page) const override {
    return inner_->Peek(page);
  }

  /// Latency at `quantile` (0..1) in nanoseconds; 0 with no samples.
  uint64_t LatencyNs(double quantile) {
    if (latencies_ns_.empty()) return 0;
    std::vector<uint64_t> sorted = latencies_ns_;
    std::sort(sorted.begin(), sorted.end());
    const size_t index = std::min(
        sorted.size() - 1,
        static_cast<size_t>(quantile * static_cast<double>(sorted.size())));
    return sorted[index];
  }

  size_t samples() const { return latencies_ns_.size(); }

 private:
  core::PageSource* inner_;
  std::vector<uint64_t> latencies_ns_;
};

struct CellResult {
  double hit_rate = 0.0;
  uint64_t reads = 0;
  uint64_t sequential_reads = 0;
  uint64_t hits = 0;
  uint64_t result_objects = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t faults_injected = 0;
  uint64_t io_read_retries = 0;
  uint64_t io_checksum_mismatches = 0;
  uint64_t io_recovered_reads = 0;
  uint64_t io_permanent_failures = 0;
  uint64_t io_errors = 0;
  obs::MetricsSnapshot metrics;

  bool CleanRun() const {
    return io_permanent_failures == 0 && io_errors == 0;
  }
  bool SameCleanIo(const CellResult& other) const {
    return reads == other.reads &&
           sequential_reads == other.sequential_reads &&
           hits == other.hits && result_objects == other.result_objects;
  }
};

/// One replay cell. `use_fault_layer` false = plain read-only view (the
/// seed configuration); true = reads go through FaultInjectingDevice with
/// `rate` transient faults and rate/10 corruptions (rate 0 -> disabled
/// profile, the zero-overhead A/B).
CellResult RunCell(const sim::Scenario& scenario,
                   const workload::QuerySet& queries,
                   const std::string& policy, size_t frames, double rate,
                   bool use_fault_layer) {
  storage::ReadOnlyDiskView view(*scenario.disk);
  std::unique_ptr<storage::FaultInjectingDevice> fault_device;
  storage::PageDevice* device = &view;
  if (use_fault_layer) {
    storage::FaultProfile profile;
    profile.seed = 1771;
    profile.transient_prob = rate;
    profile.bit_flip_prob = rate / 20.0;
    profile.torn_read_prob = rate / 20.0;
    fault_device =
        std::make_unique<storage::FaultInjectingDevice>(view, profile);
    device = fault_device.get();
  }
  // The collector only counts; the ledger and clean-run identity checks
  // below compare counted behavior, which attaching it does not perturb.
  obs::CollectorOptions collector_options;
  collector_options.event_capacity = 0;  // metrics only
  obs::Collector collector(collector_options);
  core::BufferManager buffer(device, frames, core::CreatePolicy(policy),
                             &collector);
  TimingSource timing(&buffer);
  const rtree::RTree tree =
      rtree::RTree::Open(scenario.disk.get(), &timing, scenario.tree_meta);

  CellResult cell;
  uint64_t query_id = 0;
  for (const geom::Rect& window : queries.queries) {
    const core::AccessContext ctx{++query_id};
    tree.WindowQueryVisit(window, ctx, [&cell](const rtree::Entry&) {
      ++cell.result_objects;
    });
  }

  cell.hit_rate = buffer.stats().HitRate();
  cell.reads = device->stats().reads;
  cell.sequential_reads = device->stats().sequential_reads;
  cell.hits = buffer.stats().hits;
  cell.p50_ns = timing.LatencyNs(0.50);
  cell.p99_ns = timing.LatencyNs(0.99);
  cell.io_read_retries = buffer.stats().io_read_retries;
  cell.io_checksum_mismatches = buffer.stats().io_checksum_mismatches;
  cell.io_recovered_reads = buffer.stats().io_recovered_reads;
  cell.io_permanent_failures = buffer.stats().io_permanent_failures;
  cell.io_errors = tree.io_errors();
  buffer.FlushObservability();
  cell.metrics = collector.metrics().Snapshot();
  if (fault_device != nullptr) {
    cell.faults_injected = fault_device->fault_stats().injected();
    // Recovery ledger: every injected data fault is exactly one retried
    // attempt or one terminal failure — nothing slips through unaccounted.
    if (cell.faults_injected !=
        cell.io_read_retries + cell.io_permanent_failures) {
      std::fprintf(stderr,
                   "FATAL: fault ledger out of balance: injected %llu != "
                   "retries %llu + permanent %llu\n",
                   static_cast<unsigned long long>(cell.faults_injected),
                   static_cast<unsigned long long>(cell.io_read_retries),
                   static_cast<unsigned long long>(
                       cell.io_permanent_failures));
      std::exit(1);
    }
  }
  return cell;
}

std::string CellJson(const std::string& workload_name,
                     const std::string& policy, size_t frames, double rate,
                     bool use_fault_layer, const CellResult& cell) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\":%d,\"bench\":\"fault_resilience\","
      "\"workload\":\"%s\",\"policy\":\"%s\",\"buffer_frames\":%zu,"
      "\"fault_rate\":%.4f,\"device\":\"%s\",\"hit_rate\":%.6f,"
      "\"disk_reads\":%llu,\"result_objects\":%llu,\"p50_fetch_ns\":%llu,"
      "\"p99_fetch_ns\":%llu,\"faults_injected\":%llu,"
      "\"io_read_retries\":%llu,\"io_checksum_mismatches\":%llu,"
      "\"io_recovered_reads\":%llu,\"io_permanent_failures\":%llu,"
      "\"io_errors\":%llu",
      obs::kBenchJsonSchemaVersion, workload_name.c_str(),
      sim::JsonEscape(policy).c_str(), frames, rate,
      use_fault_layer ? "fault_layer" : "plain", cell.hit_rate,
      static_cast<unsigned long long>(cell.reads),
      static_cast<unsigned long long>(cell.result_objects),
      static_cast<unsigned long long>(cell.p50_ns),
      static_cast<unsigned long long>(cell.p99_ns),
      static_cast<unsigned long long>(cell.faults_injected),
      static_cast<unsigned long long>(cell.io_read_retries),
      static_cast<unsigned long long>(cell.io_checksum_mismatches),
      static_cast<unsigned long long>(cell.io_recovered_reads),
      static_cast<unsigned long long>(cell.io_permanent_failures),
      static_cast<unsigned long long>(cell.io_errors));
  std::string line(buf);
  if (!cell.metrics.empty()) {
    line += ",\"metrics\":";
    line += obs::MetricsJson(cell.metrics);
  }
  line += "}";
  return line;
}

// ---------------------------------------------------------------------------
// Write-path chaos soak: churn x write faults x crash x recover

/// One write-fault profile of the soak matrix.
struct WriteProfile {
  const char* label;
  double wal_write_rate = 0.0;   ///< transient write faults on the log device
  double sync_fail_rate = 0.0;   ///< lying fsyncs on the log device
  double data_write_rate = 0.0;  ///< transient write faults on the data path
  bool sticky = false;  ///< schedule a permanent fsync outage mid-run
};

struct WriteCellResult {
  uint64_t commits_acked = 0;
  uint64_t wal_write_retries = 0;
  uint64_t wal_faults_injected = 0;
  uint64_t data_faults_injected = 0;
  uint64_t data_write_retries = 0;
  uint64_t degraded = 0;  ///< DegradedState as an integer
  uint64_t live_entries = 0;
  uint64_t recovered_entries = 0;
  uint64_t degraded_reads_served = 0;
  bool recovered_match = false;
};

std::vector<uint64_t> SortedIds(const std::vector<rtree::Entry>& entries) {
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  for (const rtree::Entry& entry : entries) ids.push_back(entry.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Churns a fresh tree through the writable service under `profile`, then
/// crashes (snapshots the *underlying* devices — the power-cut view),
/// recovers and compares against the last acknowledged commit. Violations
/// of the no-silent-loss contract are fatal.
WriteCellResult RunWriteCell(const WriteProfile& profile, uint64_t seed) {
  const geom::Rect space(0, 0, 100, 100);
  storage::DiskManager disk;
  storage::DiskManager log;
  storage::FaultProfile log_faults;
  log_faults.seed = seed;
  log_faults.write_transient_prob = profile.wal_write_rate;
  log_faults.sync_failure_prob = profile.sync_fail_rate;
  if (profile.sticky) {
    // A deterministic mid-run fsync outage: syncs 12..40 all fail, which
    // outlasts max_flush_retries and turns the log sticky after roughly
    // the first dozen commit groups.
    for (uint64_t s = 12; s < 41; ++s) log_faults.sync_schedule.push_back(s);
  }
  storage::FaultInjectingDevice faulty_log(log, log_faults);
  wal::WalOptions wal_options;
  wal_options.max_flush_retries = 8;
  wal::WalManager wal(&faulty_log, wal_options);
  svc::BufferServiceConfig config;
  config.shard_count = 2;
  config.total_frames = 128;
  config.policy_spec = "LRU";
  config.fault_profile.seed = seed ^ 0x9E3779B97F4A7C15ull;
  config.fault_profile.write_transient_prob = profile.data_write_rate;
  svc::BufferService service(&disk, &wal, config);
  const core::AccessContext ctx{seed};

  rtree::RTree tree(&disk, &service);
  sim::ChurnOptions options;
  options.operations = 400;
  options.delete_fraction = 0.35;
  options.seed = seed;
  options.commit_every = 25;
  options.checkpoint_every = 100;
  WriteCellResult cell;
  std::vector<uint64_t> acked_ids;  // answer at the last acknowledged commit
  sim::ChurnHooks hooks;
  hooks.commit = [&] {
    tree.PersistMeta();
    const core::Status committed = service.Commit(ctx);
    if (committed.ok()) {
      ++cell.commits_acked;
      acked_ids = SortedIds(tree.WindowQuery(space, ctx));
    }
    return committed;
  };
  hooks.checkpoint = [&] {
    tree.PersistMeta();
    const core::Status checkpointed = service.Checkpoint(ctx);
    if (checkpointed.ok()) {
      ++cell.commits_acked;
      acked_ids = SortedIds(tree.WindowQuery(space, ctx));
    }
    return checkpointed;
  };
  const core::StatusOr<sim::ChurnResult> churn =
      sim::RunChurn(tree, space, options, hooks, ctx);
  if (!churn.ok() && !profile.sticky) {
    std::fprintf(stderr,
                 "FATAL: %s seed %llu: transient-only faults aborted the "
                 "run: %s\n",
                 profile.label, static_cast<unsigned long long>(seed),
                 churn.status().ToString().c_str());
    std::exit(1);
  }
  if (profile.sticky && churn.ok()) {
    std::fprintf(stderr,
                 "FATAL: %s seed %llu: the scheduled fsync outage never "
                 "failed a commit\n",
                 profile.label, static_cast<unsigned long long>(seed));
    std::exit(1);
  }
  if (churn.ok()) {
    // Final commit: this is the state recovery must reproduce.
    tree.PersistMeta();
    const core::Status committed = service.Commit(ctx);
    if (!committed.ok()) {
      std::fprintf(stderr, "FATAL: %s seed %llu: final commit failed: %s\n",
                   profile.label, static_cast<unsigned long long>(seed),
                   committed.ToString().c_str());
      std::exit(1);
    }
    ++cell.commits_acked;
    acked_ids = SortedIds(tree.WindowQuery(space, ctx));
  } else {
    // Degraded path: mutations are refused, reads must keep serving.
    if (!service.degraded()) {
      std::fprintf(stderr,
                   "FATAL: %s seed %llu: commit failed but the service "
                   "never entered degraded mode\n",
                   profile.label, static_cast<unsigned long long>(seed));
      std::exit(1);
    }
    cell.degraded_reads_served = tree.WindowQuery(space, ctx).size();
  }
  cell.degraded = static_cast<uint64_t>(service.degraded_state());
  cell.live_entries = acked_ids.size();
  cell.wal_write_retries = wal.stats().write_retries;
  cell.wal_faults_injected = faulty_log.fault_stats().write_injected();
  cell.data_faults_injected = service.AggregateFaultStats().write_injected();
  cell.data_write_retries =
      service.AggregateStats().buffer.io_write_retries;

  // Crash: snapshot the underlying devices (not the fault wrappers) while
  // the service still holds dirty frames, then recover the snapshots.
  const std::string data_path = "BENCH_writefault_data.tmp";
  const std::string log_path = "BENCH_writefault_log.tmp";
  if (!disk.SaveImage(data_path) || !log.SaveImage(log_path)) {
    std::fprintf(stderr, "FATAL: could not snapshot the crash images\n");
    std::exit(1);
  }
  auto crashed_data = storage::DiskManager::LoadImage(data_path);
  auto crashed_log = storage::DiskManager::LoadImage(log_path);
  std::remove(data_path.c_str());
  std::remove(log_path.c_str());
  if (!crashed_data.has_value() || !crashed_log.has_value()) {
    std::fprintf(stderr, "FATAL: could not reload the crash images\n");
    std::exit(1);
  }
  const core::StatusOr<wal::RecoveryResult> recovered =
      wal::Recover(*crashed_log, *crashed_data);
  if (!recovered.ok()) {
    std::fprintf(stderr, "FATAL: %s seed %llu: recovery failed: %s\n",
                 profile.label, static_cast<unsigned long long>(seed),
                 recovered.status().ToString().c_str());
    std::exit(1);
  }
  if (cell.commits_acked == 0) {
    // Nothing was acknowledged, so an empty recovered database is correct.
    cell.recovered_match = crashed_data->page_count() == 0;
    return cell;
  }
  svc::BufferServiceConfig read_config;
  read_config.shard_count = 2;
  read_config.total_frames = 128;
  read_config.policy_spec = "LRU";
  svc::BufferService reader(*crashed_data, read_config);
  rtree::RTree reopened =
      rtree::RTree::Open(&*crashed_data, &reader, tree.meta_page());
  const std::vector<uint64_t> replayed_ids =
      SortedIds(reopened.WindowQuery(space, ctx));
  cell.recovered_entries = replayed_ids.size();
  cell.recovered_match =
      reopened.Validate().empty() && replayed_ids == acked_ids;
  if (!cell.recovered_match) {
    std::fprintf(stderr,
                 "FATAL: %s seed %llu: recovered tree diverged from the "
                 "last acknowledged commit (%zu vs %zu entries)\n",
                 profile.label, static_cast<unsigned long long>(seed),
                 replayed_ids.size(), acked_ids.size());
    std::exit(1);
  }
  return cell;
}

std::string WriteCellJson(const WriteProfile& profile, uint64_t seed,
                          const WriteCellResult& cell) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\":%d,\"bench\":\"fault_write\",\"profile\":\"%s\","
      "\"seed\":%llu,\"wal_write_rate\":%.4f,\"sync_fail_rate\":%.4f,"
      "\"data_write_rate\":%.4f,\"sticky\":%d,\"commits_acked\":%llu,"
      "\"wal_write_retries\":%llu,\"wal_faults_injected\":%llu,"
      "\"data_faults_injected\":%llu,\"data_write_retries\":%llu,"
      "\"degraded\":%llu,\"live_entries\":%llu,\"recovered_entries\":%llu,"
      "\"degraded_reads_served\":%llu,\"recovered_match\":%d}",
      obs::kBenchJsonSchemaVersion, sim::JsonEscape(profile.label).c_str(),
      static_cast<unsigned long long>(seed), profile.wal_write_rate,
      profile.sync_fail_rate, profile.data_write_rate,
      profile.sticky ? 1 : 0,
      static_cast<unsigned long long>(cell.commits_acked),
      static_cast<unsigned long long>(cell.wal_write_retries),
      static_cast<unsigned long long>(cell.wal_faults_injected),
      static_cast<unsigned long long>(cell.data_faults_injected),
      static_cast<unsigned long long>(cell.data_write_retries),
      static_cast<unsigned long long>(cell.degraded),
      static_cast<unsigned long long>(cell.live_entries),
      static_cast<unsigned long long>(cell.recovered_entries),
      static_cast<unsigned long long>(cell.degraded_reads_served),
      cell.recovered_match ? 1 : 0);
  return std::string(buf);
}

}  // namespace

int main() {
  const sim::Scenario scenario =
      bench::BuildBenchDatabase(sim::DatabaseKind::kUsLike);
  const workload::QuerySet queries =
      sim::StandardQuerySet(scenario, workload::QueryFamily::kUniform, 100);
  const size_t frames = scenario.BufferFrames(0.012);
  const std::string workload_name = "uniform U-W-100";
  const std::string json_path =
      bench::EnvOr("SDB_BENCH_FAULT", "BENCH_fault.json");

  const std::vector<std::string> policies = {"LRU", "ASB"};
  const std::vector<double> rates = {0.0, 0.001, 0.01};

  sim::Table table({"policy", "fault rate", "hit rate", "disk reads",
                    "p99 fetch", "retries", "recovered", "io errors"});
  bool json_ok = true;
  for (const std::string& policy : policies) {
    // Fault-free baseline over the bare device: the seed configuration.
    const CellResult plain = RunCell(scenario, queries, policy, frames,
                                     /*rate=*/0.0,
                                     /*use_fault_layer=*/false);
    if (!json_path.empty()) {
      json_ok = sim::AppendJsonLine(
                    json_path, CellJson(workload_name, policy, frames, 0.0,
                                        /*use_fault_layer=*/false, plain)) &&
                json_ok;
    }
    table.AddRow({policy, "0 (plain)", sim::FormatDouble(plain.hit_rate, 4),
                  std::to_string(plain.reads),
                  sim::FormatDouble(plain.p99_ns / 1000.0, 1) + " us", "0",
                  "0", "0"});

    for (const double rate : rates) {
      const CellResult cell = RunCell(scenario, queries, policy, frames,
                                      rate, /*use_fault_layer=*/true);
      // Determinism contract: a fully-recovered run is indistinguishable
      // from the fault-free run in clean I/O, hits and results — at rate 0
      // that also proves the idle fault layer changes nothing.
      if (cell.CleanRun() && !cell.SameCleanIo(plain)) {
        std::fprintf(stderr,
                     "FATAL: %s at rate %.4f recovered every fault but "
                     "diverged from the fault-free run "
                     "(reads %llu vs %llu, hits %llu vs %llu)\n",
                     policy.c_str(), rate,
                     static_cast<unsigned long long>(cell.reads),
                     static_cast<unsigned long long>(plain.reads),
                     static_cast<unsigned long long>(cell.hits),
                     static_cast<unsigned long long>(plain.hits));
        std::exit(1);
      }
      char rate_label[32];
      std::snprintf(rate_label, sizeof(rate_label), "%.1f%%", 100.0 * rate);
      table.AddRow({policy, rate_label, sim::FormatDouble(cell.hit_rate, 4),
                    std::to_string(cell.reads),
                    sim::FormatDouble(cell.p99_ns / 1000.0, 1) + " us",
                    std::to_string(cell.io_read_retries),
                    std::to_string(cell.io_recovered_reads),
                    std::to_string(cell.io_errors)});
      if (!json_path.empty()) {
        json_ok = sim::AppendJsonLine(
                      json_path, CellJson(workload_name, policy, frames,
                                          rate, /*use_fault_layer=*/true,
                                          cell)) &&
                  json_ok;
      }
    }
  }
  char title[160];
  std::snprintf(title, sizeof(title),
                "Extension — fault resilience, %s, %zu queries, buffer %zu "
                "frames",
                workload_name.c_str(), queries.queries.size(), frames);
  table.Print(title);

  // Write-path chaos soak: every cell must either recover the last
  // acknowledged commit byte-exact or prove the failed commit absent;
  // RunWriteCell exits 1 on any violation.
  const uint64_t soak_seed =
      std::strtoull(bench::EnvOr("SDB_SOAK_SEED", "7").c_str(), nullptr, 10);
  const std::vector<WriteProfile> write_profiles = {
      {"clean", 0.0, 0.0, 0.0, false},
      {"wtransient 1%", 0.01, 0.0, 0.01, false},
      {"wtransient 1% + sync_fail 2%", 0.01, 0.02, 0.01, false},
      {"lying fsync outage", 0.0, 0.0, 0.01, true},
  };
  sim::Table write_table({"profile", "seed", "acked", "wal retries",
                          "data retries", "degraded", "recovered",
                          "verdict"});
  for (const WriteProfile& profile : write_profiles) {
    const WriteCellResult cell = RunWriteCell(profile, soak_seed);
    write_table.AddRow(
        {profile.label, std::to_string(soak_seed),
         std::to_string(cell.commits_acked),
         std::to_string(cell.wal_write_retries),
         std::to_string(cell.data_write_retries),
         std::to_string(cell.degraded),
         std::to_string(cell.recovered_entries),
         cell.recovered_match ? "exact" : "acked-prefix"});
    if (!json_path.empty()) {
      json_ok = sim::AppendJsonLine(json_path,
                                    WriteCellJson(profile, soak_seed, cell)) &&
                json_ok;
    }
  }
  write_table.Print("Extension — write-path chaos soak (churn x faults x "
                    "crash x recover)");
  if (!json_ok) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  }
  return 0;
}

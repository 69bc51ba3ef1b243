// `churn`: writes next to reads, then a crash. One driver thread interleaves
// R*-tree inserts and deletes with window queries (about half writes) on a
// writable svc::BufferService over a working copy of the database, with a
// wal::WalManager committing inline and one background flusher thread. The
// buffer is smaller than the working set, so dirty victims occur. Every
// kCommitEvery operations the driver commits. A round ends with a commit,
// then a simulated power cut: only the bytes the devices hold survive, and
// wal::Recover must rebuild exactly the committed tree.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/policy_lru.h"
#include "rtree/rtree.h"
#include "storage/disk_view.h"
#include "svc/buffer_service.h"
#include "svc/flush_coordinator.h"
#include "wal/recovery.h"
#include "wal/wal.h"
#include "workload/query_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Operations per round (each round starts from the pristine database).
constexpr size_t kOpsPerRound = 4000;
/// Share of operations that write; writes split evenly into inserts and
/// deletes, so the tree keeps its size.
constexpr double kWriteShare = 0.5;
/// Operations per commit group.
constexpr size_t kCommitEvery = 32;
/// Operations between two host-speed samples: 16 per round.
constexpr size_t kSampleEvery = kOpsPerRound / 16;
/// Service capacity as a share of the tree's pages: below the working set.
constexpr double kBufferFraction = 0.10;
/// Window queries the recovered tree must answer like the committed one.
constexpr size_t kVerifyQueries = 64;
/// The query stream: kQueryDraws independently drawn S-family W-100 sets of
/// kQueriesPerDraw queries, one after the other; a round takes its queries
/// in order from a random start. A few hot spots shape each draw, and with
/// one draw of 2,000 queries the pages per query differed by 4% between
/// seeds, so a run averages over many draws.
constexpr size_t kQueryDraws = 32;
constexpr size_t kQueriesPerDraw = 250;
/// Bytes of user data one insert or delete carries: an MBR and an id.
constexpr double kUserBytesPerWrite =
    sizeof(sdb::geom::Rect) + sizeof(uint64_t);
/// Ids of inserted entries start here, above every generated object id.
constexpr uint64_t kFirstInsertId = uint64_t{1} << 40;

/// What a phase measured.
struct Phase {
  Rounds rounds;  ///< wall time of operations and commits only
  std::vector<double> writes_per_s;
  uint64_t writes = 0;
  uint64_t results = 0;
  Latencies commit_ns;
  std::vector<double> recovery_s;
  std::vector<double> replayed_pages;
  std::vector<double> recover_mb_per_s;
  sdb::svc::ShardStats stats;
  sdb::wal::WalStats wal;
  uint64_t flusher_pages = 0;
  // Traced phase only.
  uint64_t query_fetch_ns = 0;  ///< PageSource time inside queries
  uint64_t write_fetch_ns = 0;  ///< PageSource time inside writes
  uint64_t query_pages = 0;
  double write_ns = 0;
  Latencies page_ns;
  LayerClock log_write;
  LayerClock log_sync;
};

std::vector<std::vector<uint64_t>> Answers(
    const sdb::rtree::RTree& tree,
    const std::vector<sdb::geom::Rect>& windows) {
  std::vector<std::vector<uint64_t>> answers;
  const sdb::core::AccessContext ctx{1};
  for (const sdb::geom::Rect& window : windows) {
    std::vector<uint64_t> ids;
    tree.WindowQueryVisit(window, ctx, [&ids](const sdb::rtree::Entry& e) {
      ids.push_back(e.id);
    });
    std::sort(ids.begin(), ids.end());
    answers.push_back(std::move(ids));
  }
  return answers;
}

class Churn final : public Workload {
 public:
  void Generate(const sim::Scenario& scenario, uint64_t seed) override {
    seed_ = seed;
    sdb::workload::QuerySpec spec;
    spec.family = sdb::workload::QueryFamily::kSimilar;
    spec.ex = 100;
    spec.count = kQueriesPerDraw;
    queries_.clear();
    for (size_t draw = 0; draw < kQueryDraws; ++draw) {
      spec.seed = MixSeed(seed, 310 + draw);
      const std::vector<sdb::geom::Rect> drawn =
          sdb::workload::MakeQuerySet(spec, scenario.dataset, scenario.places)
              .queries;
      queries_.insert(queries_.end(), drawn.begin(), drawn.end());
    }
    spec.family = sdb::workload::QueryFamily::kUniform;
    spec.ex = 33;
    spec.count = kVerifyQueries;
    spec.seed = MixSeed(seed, 301);
    verify_ = sdb::workload::MakeQuerySet(spec, scenario.dataset,
                                          scenario.places)
                  .queries;
  }

  void Run(const Options& options, const sim::Scenario& scenario,
           Report* report) override;

 private:
  void RunRound(const sim::Scenario& scenario, uint64_t round, bool traced,
                Phase* phase, Report* report);
  Phase RunPhase(const sim::Scenario& scenario, double seconds, bool traced,
                 Report* report);

  uint64_t seed_ = 0;
  size_t frames_ = 0;
  /// Rounds are numbered across phases, so no two rounds of a run share an
  /// operation stream.
  uint64_t next_round_ = 0;
  std::vector<sdb::geom::Rect> queries_;
  std::vector<sdb::geom::Rect> verify_;
};

void Churn::RunRound(const sim::Scenario& scenario, uint64_t round,
                     bool traced, Phase* phase, Report* report) {
  const std::string where = "round " + std::to_string(round) + ": ";
  std::unique_ptr<sdb::storage::DiskManager> data = CloneDisk(*scenario.disk);
  sdb::storage::DiskManager log;
  TimedDevice timed_log(&log);
  sdb::wal::WalManager wal(traced ? static_cast<sdb::storage::PageDevice*>(
                                        &timed_log)
                                  : &log);
  sdb::svc::BufferServiceConfig config;
  config.total_frames = frames_;
  config.flusher_threads = 1;
  sdb::svc::BufferService service(data.get(), &wal, config);
  TimedSource source(&service, traced, /*query_latency=*/false);
  sdb::rtree::RTree tree =
      sdb::rtree::RTree::Open(data.get(), &source, scenario.tree_meta);

  // Live entries, so deletes name existing ones.
  std::vector<sdb::rtree::Entry> live;
  live.reserve(scenario.dataset.objects.size() + kOpsPerRound);
  for (const sdb::workload::SpatialObject& object : scenario.dataset.objects) {
    live.push_back(sdb::rtree::Entry{object.rect, object.id, {}});
  }
  sdb::Rng rng(MixSeed(seed_, 1000 + round));
  uint64_t next_id = kFirstInsertId;
  size_t next_query = rng.NextBelow(queries_.size());
  const TimedSource::Slot& slot = *source.slots()[0];

  std::vector<double> commit_ns;  // scaled once the round's scale is known
  auto commit = [&] {
    tree.PersistMeta();
    const Clock::time_point begin = Clock::now();
    const sdb::core::Status status = service.Commit();
    commit_ns.push_back(static_cast<double>(NanosBetween(begin, Clock::now())));
    report->Check(status.ok(), where + "commit failed: " + status.ToString());
  };

  double sampled_s = 0;
  Latencies round_ns;
  uint64_t round_queries = 0;
  uint64_t round_writes = 0;
  const Clock::time_point start = Clock::now();
  for (size_t op = 1; op <= kOpsPerRound; ++op) {
    const uint64_t query_id = round * kOpsPerRound + op;
    const sdb::core::AccessContext ctx{query_id};
    const uint64_t fetch_ns_before = slot.fetch.nanos;
    const uint64_t pages_before = slot.pages;
    if (rng.NextDouble() < kWriteShare) {
      const Clock::time_point begin = Clock::now();
      if (rng.NextDouble() < 0.5) {
        // A small feature next to an existing one, so inserts land where
        // the map is populated.
        const sdb::geom::Rect& near = live[rng.NextBelow(live.size())].rect;
        const double w = rng.Uniform(0, 0.002);
        const double h = rng.Uniform(0, 0.002);
        const double x = near.xmin + rng.Uniform(-0.001, 0.001);
        const double y = near.ymin + rng.Uniform(-0.001, 0.001);
        const sdb::rtree::Entry entry{sdb::geom::Rect(x, y, x + w, y + h),
                                      next_id++, {}};
        tree.Insert(entry, ctx);
        live.push_back(entry);
      } else {
        const size_t victim = rng.NextBelow(live.size());
        const bool deleted =
            tree.Delete(live[victim].id, live[victim].rect, ctx);
        report->Check(deleted, where + "delete of a live entry failed");
        live[victim] = live.back();
        live.pop_back();
      }
      phase->write_ns += static_cast<double>(NanosBetween(begin, Clock::now()));
      ++round_writes;
      phase->write_fetch_ns += slot.fetch.nanos - fetch_ns_before;
    } else {
      const sdb::geom::Rect& window = queries_[next_query];
      next_query = (next_query + 1) % queries_.size();
      uint64_t found = 0;
      const Clock::time_point begin = Clock::now();
      tree.WindowQueryVisit(window, ctx,
                            [&found](const sdb::rtree::Entry&) { ++found; });
      round_ns.Add(static_cast<double>(NanosBetween(begin, Clock::now())));
      ++round_queries;
      phase->results += found;
      phase->query_fetch_ns += slot.fetch.nanos - fetch_ns_before;
      phase->query_pages += slot.pages - pages_before;
    }
    if (op % kCommitEvery == 0 || op == kOpsPerRound) commit();
    if (op % kSampleEvery == 0) sampled_s += host_speed::Sample();
  }
  const double wall_s = SecondsSince(start) - sampled_s;
  const double scale = host_speed::TakeScale();
  for (const double ns : commit_ns) phase->commit_ns.Add(ns * scale);
  phase->rounds.Add(round_queries, wall_s, round_ns, scale);
  phase->writes_per_s.push_back(static_cast<double>(round_writes) /
                                (wall_s * scale));
  phase->writes += round_writes;
  report->Check(tree.io_errors() == 0, where + "queries absorbed I/O errors");

  // The acknowledged state: every operation is committed.
  const std::vector<std::vector<uint64_t>> committed = Answers(tree, verify_);
  AddShardStats(service.AggregateStats(), &phase->stats);
  const sdb::wal::WalStats wal_stats = wal.stats();
  phase->wal.commits += wal_stats.commits;
  phase->wal.fsyncs += wal_stats.fsyncs;
  phase->wal.bytes_appended += wal_stats.bytes_appended;
  phase->wal.forced_steals += wal_stats.forced_steals;

  // Power cut: the flusher stops writing, and the devices keep only what
  // reached them; the buffer's dirty frames are lost.
  service.flusher()->Stop();
  phase->flusher_pages += service.flusher()->stats().pages_flushed;
  std::unique_ptr<sdb::storage::DiskManager> crashed_data = CloneDisk(*data);
  std::unique_ptr<sdb::storage::DiskManager> crashed_log = CloneDisk(log);
  sdb::wal::RecoveryOptions recovery_options;
  recovery_options.redo_workers = 1;
  const Clock::time_point recover_start = Clock::now();
  const sdb::core::StatusOr<sdb::wal::RecoveryResult> recovered =
      sdb::wal::Recover(*crashed_log, *crashed_data, {}, nullptr,
                        recovery_options);
  const double recovery_s = SecondsSince(recover_start);
  report->Check(recovered.ok(), where + "recovery failed");
  if (!recovered.ok()) return;
  phase->recovery_s.push_back(recovery_s * scale);
  phase->replayed_pages.push_back(
      static_cast<double>(recovered->replayed_pages));
  phase->recover_mb_per_s.push_back(
      static_cast<double>(recovered->valid_prefix) / 1e6 / recovery_s);
  if (traced) {
    phase->page_ns.Merge(source.PageLatencies());
    phase->log_write.calls += timed_log.writes().calls;
    phase->log_write.nanos += timed_log.writes().nanos;
    phase->log_sync.calls += timed_log.syncs().calls;
    phase->log_sync.nanos += timed_log.syncs().nanos;
  }

  sdb::storage::ReadOnlyDiskView view(*crashed_data);
  sdb::core::BufferManager buffer(&view, 256,
                                  std::make_unique<sdb::core::LruPolicy>());
  const sdb::rtree::RTree reopened = sdb::rtree::RTree::Open(
      crashed_data.get(), &buffer, scenario.tree_meta);
  const std::string invalid = reopened.Validate();
  report->Check(invalid.empty(), where + "recovered tree invalid: " + invalid);
  report->Check(reopened.size() == live.size(),
                where + "recovered tree holds " +
                    std::to_string(reopened.size()) + " entries, committed " +
                    std::to_string(live.size()));
  const std::vector<std::vector<uint64_t>> answers = Answers(reopened, verify_);
  for (size_t i = 0; i < verify_.size(); ++i) {
    report->Check(answers[i] == committed[i],
                  where + "recovered tree answers verify query " +
                      std::to_string(i) + " differently");
  }
}

Phase Churn::RunPhase(const sim::Scenario& scenario, double seconds,
                      bool traced, Report* report) {
  Phase phase;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    RunRound(scenario, next_round_++, traced, &phase, report);
  } while (Clock::now() < deadline);
  return phase;
}

void Churn::Run(const Options& options, const sim::Scenario& scenario,
                Report* report) {
  frames_ = static_cast<size_t>(kBufferFraction *
                                scenario.tree_stats.total_pages());
  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const Phase plain = RunPhase(scenario, untraced_s, false, report);
  const double q = static_cast<double>(plain.rounds.queries);
  std::printf("churn: %zu rounds of %zu operations (%.0f%% writes, commit "
              "every %zu), %zu frames (%.0f%% of %u tree pages)\n",
              plain.rounds.count(), kOpsPerRound,
              100 * kWriteShare, kCommitEvery, frames_, 100 * kBufferFraction,
              scenario.tree_stats.total_pages());
  SetQueryMetrics(plain.rounds, report);
  report->Set("disk_reads_per_query", plain.stats.io.reads / q,
              "all data-device reads, write-caused ones included");
  report->Set("writes_per_s", Median(plain.writes_per_s),
              "at reference speed, median over rounds");
  report->Set("commit_p50_us", plain.commit_ns.Quantile(0.5) / 1e3,
              "at reference speed, n=" +
                  std::to_string(plain.commit_ns.count()));
  report->Set("commit_p99_us", plain.commit_ns.Quantile(0.99) / 1e3,
              "at reference speed, n=" +
                  std::to_string(plain.commit_ns.count()));
  report->Set("recovery_s", Median(plain.recovery_s),
              "at reference speed, median of " +
                  std::to_string(plain.recovery_s.size()) + " crashes");
  if (!options.trace) return;

  const Phase traced = RunPhase(scenario, options.seconds / 2, true, report);
  const double tq = static_cast<double>(traced.rounds.queries);
  const double writes = static_cast<double>(traced.writes);
  const sdb::svc::ShardStats& s = traced.stats;
  const double pages = static_cast<double>(traced.query_pages);
  SetServiceMetrics(s, traced.page_ns,
                    static_cast<double>(traced.query_fetch_ns +
                                        traced.write_fetch_ns),
                    tq, report);
  report->Set("core.dirty_writebacks", s.buffer.dirty_writebacks / writes,
              "dirty pages written back, by the flusher or on eviction");
  report->Set("core.sync_writeback_fallbacks",
              s.buffer.sync_writeback_fallbacks / writes);
  report->Set("svc.flusher_pages", traced.flusher_pages / writes);
  report->Set("rtree.self_us_per_query",
              (traced.rounds.all_ns.sum() -
               static_cast<double>(traced.query_fetch_ns)) /
                  tq / 1e3,
              "query time minus PageSource time");
  report->Set("rtree.pages_per_query", pages / tq);
  report->Set("rtree.pages_per_result", pages / traced.results);
  report->Set("rtree.write_self_us_per_op",
              (traced.write_ns - static_cast<double>(traced.write_fetch_ns)) /
                  writes / 1e3,
              "insert/delete time minus PageSource time");
  report->Set("storage.write_bytes_per_user_byte",
              (static_cast<double>(s.io.writes) * scenario.disk->page_size() +
               static_cast<double>(traced.wal.bytes_appended)) /
                  (writes * kUserBytesPerWrite),
              "data pages written plus WAL bytes, per 40-byte entry written");
  report->Set("wal.commits_per_fsync",
              static_cast<double>(traced.wal.commits) /
                  static_cast<double>(traced.wal.fsyncs));
  report->Set("wal.bytes_per_commit",
              static_cast<double>(traced.wal.bytes_appended) /
                  static_cast<double>(traced.wal.commits));
  report->Set("wal.log_write_ns", traced.log_write.MeanNs(),
              std::to_string(traced.log_write.calls) + " log page writes");
  report->Set("wal.sync_ns", traced.log_sync.MeanNs(),
              "in-memory device: fsync is free");
  report->Set("wal.forced_steals", traced.wal.forced_steals / writes);
  report->Set("wal.replayed_pages", Median(traced.replayed_pages),
              "median per crash");
  report->Set("wal.recover_mb_per_s", Median(traced.recover_mb_per_s),
              "log bytes scanned per second");
  const double op_ns =
      traced.rounds.all_ns.sum() + traced.write_ns + traced.commit_ns.sum();
  report->Set("trace.overhead_frac",
              1.0 - traced.rounds.QueriesPerSecond() /
                        plain.rounds.QueriesPerSecond(),
              "traced vs untraced queries_per_s");
  report->Set("trace.unexplained_frac",
              1.0 - op_ns / (traced.rounds.wall_s * 1e9),
              "driver time outside queries, writes and commits");
}

}  // namespace

std::unique_ptr<Workload> MakeChurn() { return std::make_unique<Churn>(); }

}  // namespace perfbench

// `sessions`: closed-loop clients browsing the map. One svc::SessionExecutor
// worker per core (at most four) replays Markov browsing sessions
// (workload::MakeSessionQuerySet) against one shared svc::BufferService in
// its default configuration: ASB, optimistic latches, async batched reads.
// The buffer holds the browsed working set, so nearly every fetch is a hit:
// the latch and pin hit path and the tree traversal do most of the work,
// and victim choice is nearly idle.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "svc/buffer_service.h"
#include "svc/session_executor.h"
#include "workload/session_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Sessions per group; a round submits every session of one group.
constexpr size_t kSessions = 64;
/// Session groups, drawn independently; round i runs group i % kGroups.
/// How many pages one draw browses depends on the seed (disk reads per
/// query spread 8% across seeds with a single group); cycling through
/// draws averages that out.
constexpr size_t kGroups = 4;
/// Browsing steps (window queries) per session.
constexpr size_t kSteps = 150;
/// Service capacity as a share of the tree's pages: room for every page
/// the sessions browse.
constexpr double kBufferFraction = 0.60;
/// Query-id stride between sessions (SessionExecutor's default).
constexpr uint64_t kStride = uint64_t{1} << 20;

/// What a phase measured.
struct Phase {
  Rounds rounds;
  uint64_t results = 0;
  uint64_t pages = 0;  ///< page accesses the sessions made
  sdb::svc::ShardStats stats;  ///< summed over rounds
  std::vector<uint64_t> reads_per_round;
  // Traced phase only.
  LayerClock fetch;
  Latencies page_ns;
};

class Sessions final : public Workload {
 public:
  void Generate(const sim::Scenario& scenario, uint64_t seed) override {
    sessions_.assign(kGroups, {});
    for (size_t i = 0; i < kGroups * kSessions; ++i) {
      sdb::workload::SessionParams params;
      params.steps = kSteps;
      params.seed = MixSeed(seed, 200 + i);
      sessions_[i / kSessions].push_back(
          sdb::workload::MakeSessionQuerySet(params, scenario.places));
    }
  }

  void Run(const Options& options, const sim::Scenario& scenario,
           Report* report) override;

 private:
  /// One round: every session of `group` once, on a fresh (cold) service.
  std::vector<sdb::svc::SessionResult> RunRound(const sim::Scenario& scenario,
                                                size_t group, size_t workers,
                                                bool traced, Phase* phase);
  Phase RunPhase(const sim::Scenario& scenario, double seconds, bool traced,
                 Report* report);

  std::vector<std::vector<sdb::workload::QuerySet>> sessions_;  ///< by group
  size_t frames_ = 0;
  size_t workers_ = 1;
  /// Each group's 1-worker run, which every concurrent round must reproduce.
  std::vector<std::vector<sdb::svc::SessionResult>> reference_;
};

std::vector<sdb::svc::SessionResult> Sessions::RunRound(
    const sim::Scenario& scenario, size_t group, size_t workers, bool traced,
    Phase* phase) {
  sdb::svc::BufferServiceConfig config;
  config.total_frames = frames_;
  // The workers use every core, so the host speed is sampled around the
  // round, not during it.
  const double scale_before =
      phase == nullptr ? 1.0 : host_speed::TakeScale(8);
  const Clock::time_point start = Clock::now();
  sdb::svc::BufferService service(*scenario.disk, config);
  TimedSource source(&service, traced, /*query_latency=*/true, workers);
  source.set_session_stride(kStride);
  sdb::svc::SessionExecutorConfig executor_config;
  executor_config.workers = workers;
  executor_config.queue_capacity = workers;
  executor_config.query_id_stride = kStride;
  std::vector<sdb::svc::SessionResult> results;
  {
    sdb::svc::SessionExecutor executor(scenario.disk.get(), &source,
                                       scenario.tree_meta, executor_config);
    for (const sdb::workload::QuerySet& session : sessions_[group]) {
      executor.Submit(session);
    }
    results = executor.Finish();
  }
  if (phase == nullptr) return results;
  const double wall_s = SecondsSince(start);
  const double scale = (scale_before + host_speed::TakeScale(8)) / 2;
  uint64_t queries = 0;
  for (const sdb::svc::SessionResult& result : results) {
    queries += result.queries;
    phase->results += result.result_objects;
    phase->pages += result.page_accesses;
  }
  phase->rounds.Add(queries, wall_s, source.QueryLatencies(), scale);
  const sdb::svc::ShardStats stats = service.AggregateStats();
  AddShardStats(stats, &phase->stats);
  phase->reads_per_round.push_back(stats.io.reads);
  if (traced) {
    const LayerClock fetch = source.FetchTotal();
    phase->fetch.calls += fetch.calls;
    phase->fetch.nanos += fetch.nanos;
    phase->page_ns.Merge(source.PageLatencies());
  }
  return results;
}

Phase Sessions::RunPhase(const sim::Scenario& scenario, double seconds,
                         bool traced, Report* report) {
  Phase phase;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  size_t round = 0;
  do {
    const size_t group = round++ % kGroups;
    const std::vector<sdb::svc::SessionResult> results =
        RunRound(scenario, group, workers_, traced, &phase);
    for (size_t i = 0; i < results.size(); ++i) {
      const sdb::svc::SessionResult& got = results[i];
      const sdb::svc::SessionResult& want = reference_[group][i];
      report->Check(got.page_accesses == want.page_accesses &&
                        got.result_objects == want.result_objects &&
                        got.io_errors == 0,
                    "group " + std::to_string(group) + " session " +
                        std::to_string(i) + ": " +
                        std::to_string(got.page_accesses) + " accesses / " +
                        std::to_string(got.result_objects) +
                        " results, 1-worker run: " +
                        std::to_string(want.page_accesses) + " / " +
                        std::to_string(want.result_objects));
    }
  } while (Clock::now() < deadline);
  return phase;
}

void Sessions::Run(const Options& options, const sim::Scenario& scenario,
                   Report* report) {
  frames_ = static_cast<size_t>(kBufferFraction *
                                scenario.tree_stats.total_pages());
  workers_ = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  reference_.clear();
  for (size_t group = 0; group < kGroups; ++group) {
    reference_.push_back(RunRound(scenario, group, 1, false, nullptr));
  }

  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const Phase plain = RunPhase(scenario, untraced_s, false, report);
  const double q = static_cast<double>(plain.rounds.queries);
  std::printf("sessions: %zu workers, %zu groups of %zu sessions x %zu steps "
              "(one group per round), %zu cold rounds, working set %llu pages "
              "(first group), %zu frames (%.0f%% of %u tree pages)\n",
              workers_, kGroups, kSessions, kSteps, plain.rounds.count(),
              static_cast<unsigned long long>(plain.reads_per_round.front()),
              frames_, 100 * kBufferFraction,
              scenario.tree_stats.total_pages());
  SetQueryMetrics(plain.rounds, report);
  report->Set("disk_reads_per_query", plain.stats.io.reads / q,
              std::to_string(plain.stats.io.reads) + " reads");
  if (!options.trace) return;

  const Phase traced = RunPhase(scenario, options.seconds / 2, true, report);
  const double tq = static_cast<double>(traced.rounds.queries);
  const sdb::svc::ShardStats& s = traced.stats;
  // Every round reads each page its group browses once when nothing is
  // evicted; a traced round must then read exactly what an untraced round
  // of its group read. Both phases start at group 0.
  if (s.buffer.evictions == 0 && plain.stats.buffer.evictions == 0) {
    bool same = true;
    for (size_t i = 0; i < traced.reads_per_round.size(); ++i) {
      const size_t group = i % kGroups;
      if (group < plain.reads_per_round.size()) {
        same &= traced.reads_per_round[i] == plain.reads_per_round[group];
      }
    }
    report->Check(same, "traced and untraced rounds read different pages");
  }
  const double pages = static_cast<double>(traced.pages);
  SetServiceMetrics(s, traced.page_ns, static_cast<double>(traced.fetch.nanos),
                    tq, report);
  const double mean_query_ns =
      traced.rounds.all_ns.sum() /
      static_cast<double>(traced.rounds.all_ns.count());
  report->Set("rtree.self_us_per_query",
              (mean_query_ns - traced.fetch.nanos / tq) / 1e3,
              "mean query time minus mean PageSource time per query");
  report->Set("rtree.pages_per_query", pages / tq);
  report->Set("rtree.pages_per_result", pages / traced.results);
  report->Set("trace.overhead_frac",
              1.0 - traced.rounds.QueriesPerSecond() /
                        plain.rounds.QueriesPerSecond(),
              "traced vs untraced queries_per_s");
  report->Set("trace.unexplained_frac",
              1.0 - mean_query_ns * tq /
                        (traced.rounds.wall_s * 1e9 * workers_),
              "worker time outside queries: round start and drain");
}

}  // namespace

std::unique_ptr<Workload> MakeSessions() {
  return std::make_unique<Sessions>();
}

}  // namespace perfbench

// `replay`: the paper's experiment as one client runs it. Every query set of
// Fig. 13's four families (U, S, INT, IND; points and W-100 windows), in
// eight independent draws, replays through a fresh, cold core::BufferManager
// over a storage::ReadOnlyDiskView, under LRU and under ASB. The buffer is smaller than the query stream's
// working set, so evictions are frequent and each one scans the frame table:
// victim choice and the miss path do most of the work, with no latch,
// service or WAL involved.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/buffer_manager.h"
#include "core/policy_factory.h"
#include "rtree/rtree.h"
#include "sim/experiment.h"
#include "storage/disk_view.h"
#include "workload/query_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sdb::workload::QueryFamily;

/// Buffer size as a share of the tree's pages.
constexpr double kBufferFraction = 0.45;

/// Queries per set relative to sim::DefaultQueryCount, which sizes a set
/// for the paper's small buffers: longer sets keep this larger buffer in
/// its evicting steady state for most of each replay.
constexpr size_t kQueryCountFactor = 4;

/// Queries per query set checked against a brute-force scan of the dataset.
constexpr size_t kBruteForceSamples = 16;

const char* const kPolicies[] = {"LRU", "ASB"};

/// Query-set groups. A group holds one set per family and extent, and pass
/// i replays group i % kGroups. A few hot spots shape each set, so how fast
/// one draw replays depends on the seed (by up to 15% in query_p50_us);
/// cycling through independent draws averages that out.
constexpr size_t kGroups = 8;
constexpr size_t kSetsPerGroup = 8;  ///< 4 families x {points, W-100}
constexpr size_t kCellsPerGroup = kSetsPerGroup * std::size(kPolicies);

/// One (query set, policy) replay.
struct Cell {
  size_t set = 0;
  const char* policy = "";
};

/// What a phase measured.
struct Phase {
  Rounds rounds;  ///< one round per pass over a group's cells
  uint64_t results = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t evictions = 0;
  // Traced phase only.
  LayerClock fetch;
  uint64_t pages = 0;
  LayerClock hit;
  LayerClock miss_self;
  LayerClock device_read;
  LayerClock victim;
};

class Replay final : public Workload {
 public:
  void Generate(const sim::Scenario& scenario, uint64_t seed) override {
    sets_.clear();
    uint64_t salt = 100;
    for (size_t group = 0; group < kGroups; ++group) {
      for (const QueryFamily family :
           {QueryFamily::kUniform, QueryFamily::kSimilar,
            QueryFamily::kIntensified, QueryFamily::kIndependent}) {
        for (const int ex : {0, 100}) {
          sdb::workload::QuerySpec spec;
          spec.family = family;
          spec.ex = ex;
          spec.count =
              kQueryCountFactor * sim::DefaultQueryCount(scenario, ex);
          spec.seed = MixSeed(seed, salt++);
          sets_.push_back(sdb::workload::MakeQuerySet(spec, scenario.dataset,
                                                      scenario.places));
        }
      }
    }
  }

  void Run(const Options& options, const sim::Scenario& scenario,
           Report* report) override;

 private:
  Phase RunPhase(const sim::Scenario& scenario, double seconds, bool traced,
                 Report* report);

  std::vector<sdb::workload::QuerySet> sets_;  ///< group by group
  size_t frames_ = 0;
  std::vector<Cell> cells_;  ///< group by group
  /// sim::RunQuerySet's answer for every cell: the paper's own path.
  std::vector<sim::RunResult> reference_;
  /// Result count of every query of every set, from the first replay.
  std::vector<std::vector<uint32_t>> per_query_results_;
};

Phase Replay::RunPhase(const sim::Scenario& scenario, double seconds,
                       bool traced, Report* report) {
  Phase phase;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  // Whole passes over a group's cells, so every count is exact.
  size_t pass = 0;
  do {
    const size_t first = (pass++ % kGroups) * kCellsPerGroup;
    // Each pass reads a fresh copy of the database, so where its pages sit
    // in memory varies from round to round and the median over rounds
    // averages that out instead of fixing it for the whole process.
    const std::unique_ptr<sdb::storage::DiskManager> copy =
        CloneDisk(*scenario.disk);
    const sdb::storage::DiskManager& disk = *copy;
    const Clock::time_point pass_start = Clock::now();
    double sampled_s = 0;
    Latencies pass_ns;
    uint64_t pass_queries = 0;
    for (size_t c = first; c < first + kCellsPerGroup; ++c) {
      const Cell& cell = cells_[c];
      const sdb::workload::QuerySet& set = sets_[cell.set];
      sdb::storage::ReadOnlyDiskView view(disk);
      std::unique_ptr<TimedDevice> timed_device;
      sdb::storage::PageDevice* device = &view;
      std::unique_ptr<sdb::core::ReplacementPolicy> policy =
          sdb::core::CreatePolicy(cell.policy);
      const TimedPolicy* timed_policy = nullptr;
      if (traced) {
        timed_device = std::make_unique<TimedDevice>(&view);
        device = timed_device.get();
        auto wrapped = std::make_unique<TimedPolicy>(std::move(policy));
        timed_policy = wrapped.get();
        policy = std::move(wrapped);
      }
      sdb::core::BufferManager buffer(device, frames_, std::move(policy));
      TimedSource timed_source(&buffer, /*timed=*/true,
                               /*query_latency=*/false);
      sdb::core::PageSource* source = &buffer;
      if (traced) {
        timed_source.set_miss_probe(timed_device.get(), timed_policy);
        source = &timed_source;
      }
      const sdb::rtree::RTree tree =
          sdb::rtree::RTree::Open(&disk, source, scenario.tree_meta);

      std::vector<uint32_t>& counts = per_query_results_[cell.set];
      const bool record = counts.empty();
      uint64_t results = 0;
      uint64_t query_id = 0;
      for (const sdb::geom::Rect& window : set.queries) {
        const sdb::core::AccessContext ctx{++query_id};
        uint32_t found = 0;
        const Clock::time_point begin = Clock::now();
        tree.WindowQueryVisit(window, ctx,
                              [&found](const sdb::rtree::Entry&) { ++found; });
        pass_ns.Add(static_cast<double>(NanosBetween(begin, Clock::now())));
        results += found;
        if (record) counts.push_back(found);
      }

      const sim::RunResult& expected = reference_[c];
      report->Check(view.stats().reads == expected.disk_reads,
                    set.name + "/" + cell.policy + ": " +
                        std::to_string(view.stats().reads) +
                        " disk reads, sim::RunQuerySet reports " +
                        std::to_string(expected.disk_reads));
      report->Check(results == expected.result_objects &&
                        tree.io_errors() == 0,
                    set.name + "/" + cell.policy + ": " +
                        std::to_string(results) + " results, expected " +
                        std::to_string(expected.result_objects));
      pass_queries += set.queries.size();
      phase.results += results;
      phase.reads += view.stats().reads;
      phase.writes += view.stats().writes;
      phase.requests += buffer.stats().requests;
      phase.hits += buffer.stats().hits;
      phase.evictions += buffer.stats().evictions;
      if (traced) {
        const TimedSource::Slot& slot = *timed_source.slots()[0];
        phase.fetch.calls += slot.fetch.calls;
        phase.fetch.nanos += slot.fetch.nanos;
        phase.pages += slot.pages;
        phase.hit.calls += slot.hit.calls;
        phase.hit.nanos += slot.hit.nanos;
        phase.miss_self.calls += slot.miss_self.calls;
        phase.miss_self.nanos += slot.miss_self.nanos;
        phase.device_read.calls += timed_device->reads().calls;
        phase.device_read.nanos += timed_device->reads().nanos;
        phase.victim.calls += timed_policy->victims().calls;
        phase.victim.nanos += timed_policy->victims().nanos;
      }
      sampled_s += host_speed::Sample();
    }
    phase.rounds.Add(pass_queries, SecondsSince(pass_start) - sampled_s,
                     pass_ns, host_speed::TakeScale());
  } while (Clock::now() < deadline);
  return phase;
}

void Replay::Run(const Options& options, const sim::Scenario& scenario,
                 Report* report) {
  frames_ = static_cast<size_t>(kBufferFraction *
                                scenario.tree_stats.total_pages());
  cells_.clear();
  for (size_t s = 0; s < sets_.size(); ++s) {
    for (const char* policy : kPolicies) cells_.push_back(Cell{s, policy});
  }
  per_query_results_.assign(sets_.size(), {});

  // The paper's path, untimed: the reference every timed replay must match
  // read for read.
  reference_.clear();
  uint64_t lru_reads = 0;
  uint64_t asb_reads = 0;
  uint64_t reference_queries = 0;
  for (const Cell& cell : cells_) {
    sim::RunOptions run;
    run.buffer_frames = frames_;
    reference_.push_back(sim::RunQuerySet(*scenario.disk, scenario.tree_meta,
                                          cell.policy, sets_[cell.set], run));
    (std::string(cell.policy) == "LRU" ? lru_reads : asb_reads) +=
        reference_.back().disk_reads;
    reference_queries += sets_[cell.set].queries.size();
  }
  // The query stream's working set: the distinct pages each set of the
  // first group touches, which is what a buffer holding the whole tree reads.
  size_t working_min = scenario.tree_stats.total_pages();
  size_t working_max = 0;
  for (size_t s = 0; s < kSetsPerGroup; ++s) {
    sim::RunOptions run;
    run.buffer_frames = scenario.tree_stats.total_pages();
    const size_t pages = sim::RunQuerySet(*scenario.disk, scenario.tree_meta,
                                          "LRU", sets_[s], run)
                             .disk_reads;
    working_min = std::min(working_min, pages);
    working_max = std::max(working_max, pages);
  }
  std::printf("replay: working set %zu..%zu pages per query set (first "
              "group)\n",
              working_min, working_max);
  // Answers do not depend on the policy.
  for (size_t s = 0; s < sets_.size(); ++s) {
    report->Check(reference_[2 * s].result_objects ==
                      reference_[2 * s + 1].result_objects,
                  sets_[s].name + ": LRU and ASB disagree on the answer");
  }

  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const Phase plain = RunPhase(scenario, untraced_s, false, report);

  // Brute-force scan of the generated dataset for a sample of queries of
  // every set a pass replayed.
  for (size_t s = 0; s < sets_.size(); ++s) {
    if (per_query_results_[s].empty()) continue;
    const std::vector<sdb::geom::Rect>& queries = sets_[s].queries;
    const size_t step =
        std::max<size_t>(1, queries.size() / kBruteForceSamples);
    for (size_t q = 0; q < queries.size(); q += step) {
      uint32_t expected = 0;
      for (const sdb::workload::SpatialObject& object :
           scenario.dataset.objects) {
        if (object.rect.Intersects(queries[q])) ++expected;
      }
      report->Check(per_query_results_[s][q] == expected,
                    sets_[s].name + " query " + std::to_string(q) + ": " +
                        std::to_string(per_query_results_[s][q]) +
                        " results, brute force finds " +
                        std::to_string(expected));
    }
  }

  std::printf("replay: %zu groups of %zu query sets x {LRU, ASB}, %zu "
              "frames (%.0f%% of %u tree pages), %zu passes of one group\n",
              kGroups, kSetsPerGroup, frames_, 100 * kBufferFraction,
              scenario.tree_stats.total_pages(), plain.rounds.count());
  SetQueryMetrics(plain.rounds, report);
  // Every timed replay, traced or not, matched its reference read for read,
  // so the reference totals are the timed loop's reads per query, exactly
  // and independent of how many passes the run made.
  report->Set("disk_reads_per_query",
              static_cast<double>(lru_reads + asb_reads) / reference_queries,
              "exact: " + std::to_string(lru_reads + asb_reads) +
                  " reads in one replay of every cell");
  if (!options.trace) return;

  const Phase traced = RunPhase(scenario, options.seconds / 2, true, report);
  const double tq = static_cast<double>(traced.rounds.queries);
  report->Set("core.victim_ns", traced.victim.MeanNs(),
              std::to_string(traced.victim.calls) + " ChooseVictim calls");
  report->Set("core.evictions_per_query", traced.evictions / tq);
  report->Set("core.hit_fetch_ns", traced.hit.MeanNs(),
              std::to_string(traced.hit.calls) + " hits");
  report->Set("core.miss_fetch_self_ns", traced.miss_self.MeanNs(),
              "miss Fetch minus its device read and victim choice");
  report->Set("core.hit_rate", static_cast<double>(traced.hits) /
                                   static_cast<double>(traced.requests));
  report->Set("core.asb_gain_vs_lru",
              static_cast<double>(lru_reads) / asb_reads - 1.0,
              "LRU reads / ASB reads - 1, base LRU " +
                  std::to_string(lru_reads) + " reads over all groups");
  const double query_ns = traced.rounds.all_ns.sum();
  report->Set("rtree.self_us_per_query",
              (query_ns - static_cast<double>(traced.fetch.nanos)) / tq / 1e3,
              "query time minus PageSource time");
  report->Set("rtree.pages_per_query", traced.pages / tq);
  report->Set("rtree.pages_per_result",
              static_cast<double>(traced.pages) /
                  static_cast<double>(traced.results));
  report->Set("storage.read_ns", traced.device_read.MeanNs(),
              "in-memory device: a read is a page copy");
  report->Set("storage.reads", traced.reads / tq);
  report->Set("storage.writes", traced.writes / tq);
  report->Set("trace.overhead_frac",
              1.0 - traced.rounds.QueriesPerSecond() /
                        plain.rounds.QueriesPerSecond(),
              "traced vs untraced queries_per_s");
  report->Set("trace.unexplained_frac",
              1.0 - query_ns / (traced.rounds.wall_s * 1e9),
              "wall time outside queries: cold buffer set-up per replay");
}

}  // namespace

std::unique_ptr<Workload> MakeReplay() { return std::make_unique<Replay>(); }

}  // namespace perfbench

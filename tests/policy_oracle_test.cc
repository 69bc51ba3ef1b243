// The list-based LRU, FIFO, SLRU and ASB policies against their full-scan
// references (reference_policies.h): identical victims, ASB adaptations,
// hit/miss counts and victim recency ranks on recorded query traces and on
// a seeded random stream of pins, unpins and clean-victim skips.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/buffer_manager.h"
#include "core/policy_asb.h"
#include "core/policy_fifo.h"
#include "core/policy_lru.h"
#include "core/policy_slru.h"
#include "obs/collector.h"
#include "reference_policies.h"
#include "sim/scenario.h"
#include "sim/trace.h"
#include "workload/query_generator.h"

namespace sdb::core {
namespace {

using reference::SelectSpatialLruVictim;
using reference::SpatialLruCandidate;

TEST(SelectSpatialLruVictimTest, EmptyInputYieldsInvalid) {
  std::vector<SpatialLruCandidate> none;
  EXPECT_EQ(SelectSpatialLruVictim(none, 3), kInvalidFrameId);
}

TEST(SelectSpatialLruVictimTest, CandidateSetOfOneIsPlainLru) {
  std::vector<SpatialLruCandidate> all = {
      {0, /*last_access=*/10, /*crit=*/0.1},
      {1, /*last_access=*/5, /*crit=*/99.0},  // LRU but spatially best
      {2, /*last_access=*/7, /*crit=*/0.2},
  };
  EXPECT_EQ(SelectSpatialLruVictim(all, 1), 1u);
}

TEST(SelectSpatialLruVictimTest, FullCandidateSetIsPureSpatial) {
  std::vector<SpatialLruCandidate> all = {
      {0, 10, 0.5},
      {1, 5, 99.0},
      {2, 7, 0.2},  // smallest criterion
  };
  EXPECT_EQ(SelectSpatialLruVictim(all, 3), 2u);
}

TEST(SelectSpatialLruVictimTest, SpatialAppliesOnlyWithinLruCandidates) {
  std::vector<SpatialLruCandidate> all = {
      {0, 1, 50.0},   // oldest
      {1, 2, 40.0},   // second oldest
      {2, 3, 0.001},  // spatially tiny but recently used
  };
  // Candidates = the 2 least recently used = frames 0 and 1; among them the
  // smaller criterion (frame 1) is the victim. Frame 2 is protected by LRU.
  EXPECT_EQ(SelectSpatialLruVictim(all, 2), 1u);
}

TEST(SelectSpatialLruVictimTest, TieOnCriterionFallsBackToLru) {
  std::vector<SpatialLruCandidate> all = {
      {0, 9, 1.0},
      {1, 4, 1.0},
      {2, 6, 1.0},
  };
  EXPECT_EQ(SelectSpatialLruVictim(all, 3), 1u);
}

TEST(SelectSpatialLruVictimTest, OversizedCandidateCountIsClamped) {
  std::vector<SpatialLruCandidate> all = {{0, 1, 2.0}, {1, 2, 1.0}};
  EXPECT_EQ(SelectSpatialLruVictim(all, 100), 1u);
}

/// A list-based policy and its full-scan reference, built fresh per run.
struct OraclePair {
  std::string label;
  std::function<std::unique_ptr<PolicyBase>()> make;
  std::function<std::unique_ptr<reference::ReferenceScanBase>()> make_ref;
};

std::vector<OraclePair> OraclePairs() {
  AsbConfig fast_steps;  // a larger step moves c across more of its range
  fast_steps.step_fraction = 0.1;
  fast_steps.criterion = SpatialCriterion::kEntryOverlap;
  return {
      {"LRU", [] { return std::make_unique<LruPolicy>(); },
       [] { return std::make_unique<reference::ReferenceLru>(); }},
      {"FIFO", [] { return std::make_unique<FifoPolicy>(); },
       [] { return std::make_unique<reference::ReferenceFifo>(); }},
      {"SLRU:A:0.25",
       [] {
         return std::make_unique<SlruPolicy>(SpatialCriterion::kArea, 0.25);
       },
       [] {
         return std::make_unique<reference::ReferenceSlru>(
             SpatialCriterion::kArea, 0.25);
       }},
      {"SLRU:M:0.5",
       [] {
         return std::make_unique<SlruPolicy>(SpatialCriterion::kMargin, 0.5);
       },
       [] {
         return std::make_unique<reference::ReferenceSlru>(
             SpatialCriterion::kMargin, 0.5);
       }},
      {"ASB", [] { return std::make_unique<AsbPolicy>(); },
       [] { return std::make_unique<reference::ReferenceAsbPolicy>(); }},
      {"ASB:EO:step=0.1",
       [fast_steps] { return std::make_unique<AsbPolicy>(fast_steps); },
       [fast_steps] {
         return std::make_unique<reference::ReferenceAsbPolicy>(fast_steps);
       }},
  };
}

/// Everything a run decided, as the collector and the buffer saw it.
struct DecisionLog {
  uint64_t hits = 0;
  uint64_t misses = 0;
  std::vector<std::tuple<uint32_t, uint64_t>> evictions;  // (frame, page)
  std::vector<std::tuple<uint32_t, uint64_t, uint64_t, uint64_t, uint64_t,
                         uint64_t, int>>
      adapts;  // (frame, page, query, better_spatial, better_lru, c, delta)
};

void ReadEvents(const obs::Collector& collector, DecisionLog& log) {
  collector.events().ForEach([&log](const obs::Event& event) {
    if (event.kind == obs::EventKind::kEviction) {
      log.evictions.emplace_back(event.frame, event.page);
    } else if (event.kind == obs::EventKind::kAsbAdapt) {
      log.adapts.emplace_back(event.frame, event.page, event.query, event.a,
                              event.b, event.c, event.delta);
    }
  });
}

/// The reference's victim ranks, bucketed like the list-based policy's
/// policy.victim_recency_rank histogram, must match that histogram exactly.
void ExpectSameRanks(const obs::Collector& collector,
                     const std::vector<size_t>& reference_ranks) {
  const obs::MetricsSnapshot snapshot = collector.metrics().Snapshot();
  const obs::MetricValue* ranks = nullptr;
  for (const obs::MetricValue& metric : snapshot) {
    if (metric.name == "policy.victim_recency_rank") ranks = &metric;
  }
  ASSERT_NE(ranks, nullptr);
  obs::Histogram expected(ranks->bounds);
  for (const size_t rank : reference_ranks) {
    expected.Observe(static_cast<double>(rank));
  }
  EXPECT_EQ(ranks->bucket_counts, expected.counts());
  EXPECT_EQ(ranks->value, expected.sum());
  EXPECT_EQ(ranks->observations, expected.observations());
}

class PolicyOracleTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioOptions options;
    options.kind = sim::DatabaseKind::kUsLike;
    options.build = sim::BuildMode::kBulkLoad;
    options.scale = 0.05;
    scenario_ = new sim::Scenario(sim::BuildScenario(options));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  /// Replays `trace` through a fresh buffer over `policy`, with an
  /// unbounded collector attached. `on_done` sees the policy before the
  /// buffer that owns it goes away.
  template <typename Policy, typename OnDone>
  static DecisionLog Replay(const sim::AccessTrace& trace,
                            std::unique_ptr<Policy> policy, size_t frames,
                            obs::Collector& collector, OnDone&& on_done) {
    Policy& view = *policy;
    BufferManager buffer(scenario_->disk.get(), frames, std::move(policy),
                         &collector);
    for (const sim::PageAccess& access : trace.accesses) {
      const AccessContext ctx{access.query_id};
      buffer.FetchOrDie(access.page, ctx).Release();
    }
    DecisionLog log;
    ReadEvents(collector, log);
    log.hits = buffer.stats().hits;
    log.misses = buffer.stats().misses;
    on_done(view);
    return log;
  }

  static sim::Scenario* scenario_;
};

sim::Scenario* PolicyOracleTraceTest::scenario_ = nullptr;

TEST_F(PolicyOracleTraceTest, RecordedTracesGiveIdenticalDecisions) {
  const workload::QueryFamily families[] = {
      workload::QueryFamily::kUniform, workload::QueryFamily::kSimilar,
      workload::QueryFamily::kIntensified,
      workload::QueryFamily::kIndependent};
  const size_t buffer_sizes[] = {scenario_->BufferFrames(0.006),
                                 scenario_->BufferFrames(0.012),
                                 scenario_->BufferFrames(0.047)};
  uint64_t total_evictions = 0;
  uint64_t total_adapts = 0;
  for (const workload::QueryFamily family : families) {
    for (const int ex : {0, 100}) {
      workload::QuerySpec spec;
      spec.family = family;
      spec.ex = ex;
      spec.count = 150;
      spec.seed = 11;
      const workload::QuerySet queries = workload::MakeQuerySet(
          spec, scenario_->dataset, scenario_->places);
      const sim::AccessTrace trace = sim::RecordQueryTrace(
          scenario_->disk.get(), scenario_->tree_meta, queries, 64);
      for (const size_t frames : buffer_sizes) {
        for (const OraclePair& pair : OraclePairs()) {
          SCOPED_TRACE(trace.name + " / " + pair.label + " / " +
                       std::to_string(frames) + " frames");
          obs::CollectorOptions options;
          options.event_capacity = obs::EventRing::kUnbounded;
          obs::Collector collector(options);
          obs::Collector ref_collector(options);
          std::vector<size_t> reference_ranks;
          const DecisionLog got =
              Replay(trace, pair.make(), frames, collector, [](auto&) {});
          const DecisionLog want = Replay(
              trace, pair.make_ref(), frames, ref_collector,
              [&](const reference::ReferenceScanBase& ref) {
                reference_ranks = ref.victim_ranks();
              });
          EXPECT_EQ(got.hits, want.hits);
          EXPECT_EQ(got.misses, want.misses);
          EXPECT_EQ(got.evictions, want.evictions);
          EXPECT_EQ(got.adapts, want.adapts);
          ExpectSameRanks(collector, reference_ranks);
          total_evictions += want.evictions.size();
          total_adapts += want.adapts.size();
        }
      }
    }
  }
  // The traces must actually exercise victim choice and adaptation.
  EXPECT_GT(total_evictions, 10000u);
  EXPECT_GT(total_adapts, 100u);
}

/// Stand-in for the buffer's frame-metadata cache: one page header per
/// frame, whose version bumps whenever the header changes.
class FakeMetaSource : public FrameMetaSource {
 public:
  explicit FakeMetaSource(size_t frames)
      : metas_(frames), versions_(frames, 0) {}

  storage::PageMeta GetMeta(FrameId f) const override { return metas_[f]; }
  const uint64_t* MetaVersionArray() const override {
    return versions_.data();
  }

  /// Gives frame f a page whose every criterion grows with `size`.
  void Set(FrameId f, double size) {
    storage::PageMeta& meta = metas_[f];
    meta.type = storage::PageType::kData;
    meta.mbr = geom::Rect(0, 0, size, 1);
    meta.sum_entry_area = size;
    meta.sum_entry_margin = size;
    meta.entry_overlap = size;
    ++versions_[f];
  }

 private:
  std::vector<storage::PageMeta> metas_;
  std::vector<uint64_t> versions_;
};

/// Drives a list-based policy and its reference through one seeded stream of
/// callbacks, in the order BufferManager issues them, and demands the same
/// victim from both at every choice. Up to three pins are held across
/// steps, so the oldest frames are often pinned, and victims are sometimes
/// set aside (unevictable, restored after the eviction) the way
/// AcquireFrame's clean-victim preference skips dirty frames. Criterion
/// values come from four sizes, so ties are common, and resident headers
/// are rewritten in place now and then.
void RunLockstep(const OraclePair& pair, size_t frames, uint64_t seed,
                 size_t steps) {
  SCOPED_TRACE(pair.label + " / " + std::to_string(frames) +
               " frames / seed " + std::to_string(seed));
  obs::CollectorOptions options;
  options.event_capacity = obs::EventRing::kUnbounded;
  obs::Collector collector(options);
  obs::Collector ref_collector(options);
  FakeMetaSource meta(frames);
  const std::unique_ptr<PolicyBase> policy = pair.make();
  const std::unique_ptr<reference::ReferenceScanBase> ref = pair.make_ref();
  policy->SetCollector(&collector);
  ref->SetCollector(&ref_collector);
  policy->Bind(&meta, frames);
  ref->Bind(&meta, frames);
  const auto both = [&](auto&& call) {
    call(static_cast<ReplacementPolicy&>(*policy));
    call(static_cast<ReplacementPolicy&>(*ref));
  };
  const auto set_evictable = [&](FrameId f, bool evictable) {
    both([&](ReplacementPolicy& p) { p.SetEvictable(f, evictable); });
  };

  Rng rng(seed);
  const size_t universe = 3 * frames;
  std::vector<storage::PageId> page_of(frames, storage::kInvalidPageId);
  std::vector<int> pins(frames, 0);
  std::unordered_map<storage::PageId, FrameId> table;
  std::vector<FrameId> free_frames;
  for (size_t f = frames; f-- > 0;) {
    free_frames.push_back(static_cast<FrameId>(f));
  }
  std::vector<FrameId> held;  // pins kept across steps, at most three
  const auto unpin = [&](FrameId f) {
    if (--pins[f] == 0) set_evictable(f, true);
  };
  std::vector<size_t> last_use(frames, 0);  // step of the latest reference
  uint64_t query = 1;
  uint64_t choices = 0;
  uint64_t skips = 0;
  uint64_t unevictable_heads = 0;  // choices made with the LRU frame held

  for (size_t step = 0; step < steps; ++step) {
    if (rng.NextDouble() < 0.1) ++query;
    const AccessContext ctx{query};
    const double roll = rng.NextDouble();
    if (roll < 0.02 && !held.empty()) {
      const size_t i = rng.NextBelow(held.size());
      unpin(held[i]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (roll < 0.05) {  // a resident page's header rewritten in place
      const FrameId f = static_cast<FrameId>(rng.NextBelow(frames));
      if (page_of[f] != storage::kInvalidPageId) {
        meta.Set(f, static_cast<double>(1 + rng.NextBelow(4)));
      }
      continue;
    }
    const storage::PageId page = rng.NextDouble() < 0.6
                                     ? rng.NextBelow(universe / 3)
                                     : rng.NextBelow(universe);
    FrameId f = kInvalidFrameId;
    if (const auto it = table.find(page); it != table.end()) {
      f = it->second;
      if (pins[f]++ == 0) set_evictable(f, false);
      last_use[f] = step;
      both([&](ReplacementPolicy& p) { p.OnPageAccessed(f, ctx); });
    } else {
      if (!free_frames.empty()) {
        f = free_frames.back();
        free_frames.pop_back();
      } else {
        std::vector<FrameId> skipped;
        bool prefer_clean = true;
        for (;;) {
          const std::optional<FrameId> victim =
              policy->ChooseVictim(ctx, page);
          const std::optional<FrameId> want = ref->ChooseVictim(ctx, page);
          ++choices;
          ASSERT_EQ(victim, want) << "step " << step;
          if (!victim) {
            // Only frames set aside were left: accept one of them after all.
            ASSERT_FALSE(skipped.empty()) << "step " << step;
            for (const FrameId s : skipped) set_evictable(s, true);
            skipped.clear();
            prefer_clean = false;
            continue;
          }
          FrameId oldest = 0;  // every frame is resident here
          for (FrameId g = 1; g < frames; ++g) {
            if (last_use[g] < last_use[oldest]) oldest = g;
          }
          if (pins[oldest] > 0 || std::find(skipped.begin(), skipped.end(),
                                            oldest) != skipped.end()) {
            ++unevictable_heads;
          }
          if (prefer_clean && skipped.size() < 2 && rng.NextDouble() < 0.3) {
            set_evictable(*victim, false);
            skipped.push_back(*victim);
            ++skips;
            continue;
          }
          f = *victim;
          both([&](ReplacementPolicy& p) { p.OnPageEvicted(f, page_of[f]); });
          table.erase(page_of[f]);
          for (const FrameId s : skipped) set_evictable(s, true);
          break;
        }
      }
      meta.Set(f, static_cast<double>(1 + rng.NextBelow(4)));
      page_of[f] = page;
      table[page] = f;
      pins[f] = 1;
      last_use[f] = step;
      both([&](ReplacementPolicy& p) { p.OnPageLoaded(f, page, ctx); });
    }
    if (held.size() < 3 && rng.NextDouble() < 0.1) {
      held.push_back(f);
    } else {
      unpin(f);
    }
  }
  EXPECT_GT(choices, steps / 4);
  EXPECT_GT(skips, choices / 10);
  EXPECT_GT(unevictable_heads, choices / 10);
  DecisionLog got;
  DecisionLog want;
  ReadEvents(collector, got);
  ReadEvents(ref_collector, want);
  EXPECT_EQ(got.adapts, want.adapts);
  ExpectSameRanks(collector, ref->victim_ranks());
}

TEST(PolicyOracleLockstepTest, RandomPinsAndSkipsGiveIdenticalDecisions) {
  for (const OraclePair& pair : OraclePairs()) {
    for (const size_t frames : {6u, 16u, 64u}) {
      for (const uint64_t seed : {1u, 2u, 3u}) {
        RunLockstep(pair, frames, seed, 20000);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace sdb::core

// End-to-end span-trace propagation: a SessionExecutor with a tracer runs
// browsing sessions against a sharded BufferService, and the emitted kSpan
// stream must reconstruct the session → query → shard-fetch causality
// exactly — deterministic trace ids from the session's query-id
// stride, parent links that respect the span hierarchy, and the same trace
// population regardless of worker count.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "obs/events.h"
#include "obs/trace.h"
#include "sim/scenario.h"
#include "svc/buffer_service.h"
#include "svc/session_executor.h"
#include "workload/session_generator.h"

namespace sdb::svc {
namespace {

using obs::Event;
using obs::SpanKind;

constexpr size_t kSessions = 6;
constexpr size_t kSteps = 60;

class ObsTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioOptions options;
    options.kind = sim::DatabaseKind::kUsLike;
    options.build = sim::BuildMode::kBulkLoad;
    options.scale = 0.02;
    scenario_ = new sim::Scenario(sim::BuildScenario(options));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static std::vector<workload::QuerySet> Sessions() {
    std::vector<workload::QuerySet> sessions;
    for (size_t i = 0; i < kSessions; ++i) {
      workload::SessionParams params;
      params.steps = kSteps;
      params.seed = 300 + i;
      sessions.push_back(
          workload::MakeSessionQuerySet(params, scenario_->places));
    }
    return sessions;
  }

  /// Runs the sessions through a fresh tracer-attached service and returns
  /// the retained span stream (complete — the ring is unbounded).
  static std::vector<Event> Run(
      const std::vector<workload::QuerySet>& sessions, size_t workers,
      uint64_t sample_every) {
    obs::TracerOptions tracer_options;
    tracer_options.sample_every = sample_every;
    tracer_options.event_capacity = obs::EventRing::kUnbounded;
    obs::Tracer tracer(tracer_options);
    BufferServiceConfig service_config;
    service_config.total_frames = 64;
    service_config.shard_count = 4;
    service_config.policy_spec = "ASB";
    BufferService service(*scenario_->disk, service_config);
    SessionExecutorConfig executor_config;
    executor_config.workers = workers;
    executor_config.tracer = &tracer;
    SessionExecutor executor(scenario_->disk.get(), &service,
                             scenario_->tree_meta, executor_config);
    for (const workload::QuerySet& session : sessions) {
      executor.Submit(session);
    }
    executor.Finish();
    EXPECT_EQ(tracer.dropped(), 0u) << "unbounded ring must retain all";
    return tracer.Spans();
  }

  static uint64_t Stride() { return SessionExecutorConfig{}.query_id_stride; }

  static sim::Scenario* scenario_;
};

sim::Scenario* ObsTraceTest::scenario_ = nullptr;

// Trace ids are a pure function of the session's stride slot: the session
// span's trace id is the query-id base (logical * stride, which no query
// uses), and every query trace id falls inside its session's slot — on the
// session's track.
TEST_F(ObsTraceTest, TraceIdsAreDeterministicPerSessionStride) {
  const std::vector<Event> spans = Run(Sessions(), /*workers=*/2,
                                       /*sample_every=*/1);
  const uint64_t stride = Stride();
  size_t session_spans = 0;
  size_t query_spans = 0;
  for (const Event& span : spans) {
    ASSERT_EQ(span.kind, obs::EventKind::kSpan);
    const uint32_t track = obs::SpanTrackOf(span);
    ASSERT_LT(track, kSessions);
    if (obs::SpanKindOf(span) == SpanKind::kSession) {
      ++session_spans;
      EXPECT_EQ(span.query, track * stride)
          << "session trace id = the slot's query-id base";
      EXPECT_EQ(obs::SpanPayloadOf(span), kSteps);
    } else {
      const uint64_t base = track * stride;
      EXPECT_GT(span.query, base) << "query ids start at base + 1";
      EXPECT_LE(span.query, base + kSteps);
    }
    if (obs::SpanKindOf(span) == SpanKind::kQuery) ++query_spans;
  }
  EXPECT_EQ(session_spans, kSessions);
  EXPECT_EQ(query_spans, kSessions * kSteps)
      << "sample_every=1 traces every query";
}

// The parent rule: roots (kSession, kQuery) have parent 0, and a
// kShardFetch's parent resolves to the kQuery span of its own trace.
TEST_F(ObsTraceTest, ParentLinksRespectTheSpanHierarchy) {
  const std::vector<Event> spans = Run(Sessions(), /*workers=*/2,
                                       /*sample_every=*/1);
  // kind of every span, keyed by (trace, span id) — parent links only ever
  // point within one trace.
  std::map<std::pair<uint64_t, uint16_t>, SpanKind> kind_of;
  for (const Event& span : spans) {
    kind_of[{span.query, obs::SpanIdOf(span)}] = obs::SpanKindOf(span);
  }
  size_t shard_fetches = 0;
  for (const Event& span : spans) {
    const uint16_t parent = obs::SpanParentOf(span);
    switch (obs::SpanKindOf(span)) {
      case SpanKind::kSession:
      case SpanKind::kQuery:
        EXPECT_EQ(parent, 0) << "roots have no parent";
        break;
      case SpanKind::kShardFetch: {
        ++shard_fetches;
        ASSERT_NE(parent, 0);
        const auto it = kind_of.find({span.query, parent});
        ASSERT_NE(it, kind_of.end());
        EXPECT_EQ(it->second, SpanKind::kQuery)
            << "shard fetches hang off the query span";
        break;
      }
      case SpanKind::kWalAppend:
      case SpanKind::kCheckpoint:
      case SpanKind::kRecovery:
      case SpanKind::kFlush:
        ADD_FAILURE() << "read-only replay must not emit write-path spans";
        break;
    }
  }
  EXPECT_GT(shard_fetches, 0u);
}

// Everything but the wall-clock fields is reproducible: two serial runs
// over the same sessions emit identical span streams (ids, parents, pages,
// payloads, order).
TEST_F(ObsTraceTest, SerialSpanStreamIsReproducible) {
  const std::vector<workload::QuerySet> sessions = Sessions();
  const auto signature = [](const std::vector<Event>& spans) {
    std::vector<std::tuple<uint64_t, int8_t, uint32_t, uint64_t, uint64_t,
                           bool>>
        sig;
    sig.reserve(spans.size());
    for (const Event& span : spans) {
      sig.emplace_back(span.query, span.delta, span.frame, span.a, span.page,
                       span.flag);
    }
    return sig;
  };
  const std::vector<Event> first = Run(sessions, /*workers=*/1,
                                       /*sample_every=*/4);
  const std::vector<Event> second = Run(sessions, /*workers=*/1,
                                        /*sample_every=*/4);
  EXPECT_EQ(signature(first), signature(second));
}

// Scheduling must not change which traces exist or their per-trace shape:
// a 4-worker run samples the same query ids as a serial run, with exactly
// one root query span per trace.
TEST_F(ObsTraceTest, SampledTracePopulationIsWorkerCountInvariant) {
  const std::vector<workload::QuerySet> sessions = Sessions();
  const auto query_traces = [](const std::vector<Event>& spans) {
    std::set<uint64_t> traces;
    for (const Event& span : spans) {
      if (obs::SpanKindOf(span) == SpanKind::kQuery) traces.insert(span.query);
    }
    return traces;
  };
  const std::vector<Event> serial = Run(sessions, /*workers=*/1,
                                        /*sample_every=*/4);
  const std::vector<Event> parallel = Run(sessions, /*workers=*/4,
                                          /*sample_every=*/4);
  const std::set<uint64_t> serial_traces = query_traces(serial);
  EXPECT_EQ(query_traces(parallel), serial_traces)
      << "sampling is a pure function of the query id";
  EXPECT_FALSE(serial_traces.empty());
  for (const uint64_t trace : serial_traces) {
    EXPECT_EQ(trace % 4, 0u) << "sample_every=4 keeps multiples of 4";
  }
  // Per trace: exactly one kQuery root in both runs.
  std::map<uint64_t, size_t> roots;
  for (const Event& span : parallel) {
    if (obs::SpanKindOf(span) == SpanKind::kQuery) ++roots[span.query];
  }
  for (const auto& [trace, count] : roots) {
    EXPECT_EQ(count, 1u) << "trace " << trace;
  }
}

}  // namespace
}  // namespace sdb::svc

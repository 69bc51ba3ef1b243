#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/asb_timeline.h"
#include "obs/collector.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

// Global allocation counter for the zero-allocation fast-path tests: the
// registry promises that only registration (Get*) allocates, never the
// per-event Add/Set/Observe/Push operations.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime, their blocks would come back through the free()
// below, an alloc-dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sdb::obs {
namespace {

constexpr double kBounds[] = {1.0, 2.0, 4.0};

TEST(MetricsTest, CounterAndGaugeSemantics) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->value(), 42u);
  Gauge* gauge = registry.GetGauge("g");
  gauge->Set(2.5);
  gauge->Set(1.5);  // last write wins
  EXPECT_DOUBLE_EQ(gauge->value(), 1.5);
  EXPECT_EQ(registry.GetCounter("c"), counter) << "same name, same handle";
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsTest, HistogramBucketsAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h", kBounds);
  h->Observe(0.5);   // bucket 0 (<= 1)
  h->Observe(1.0);   // bucket 0 (inclusive)
  h->Observe(2.0);   // bucket 1
  h->Observe(3.0);   // bucket 2
  h->Observe(100.0); // overflow bucket
  ASSERT_EQ(h->counts().size(), 4u);
  EXPECT_EQ(h->counts()[0], 2u);
  EXPECT_EQ(h->counts()[1], 1u);
  EXPECT_EQ(h->counts()[2], 1u);
  EXPECT_EQ(h->counts()[3], 1u);
  EXPECT_EQ(h->observations(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 106.5);
  EXPECT_DOUBLE_EQ(h->mean(), 106.5 / 5.0);
}

TEST(MetricsTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zebra");
  registry.GetGauge("alpha");
  registry.GetHistogram("mid", kBounds);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "alpha");
  EXPECT_EQ(snapshot[1].name, "mid");
  EXPECT_EQ(snapshot[2].name, "zebra");
}

TEST(MetricsTest, MergeAddsCountersTakesGaugeMaxAddsBuckets) {
  MetricsRegistry a;
  a.GetCounter("c")->Add(10);
  a.GetGauge("g")->Set(3.0);
  a.GetHistogram("h", kBounds)->Observe(1.0);

  MetricsRegistry b;
  b.GetCounter("c")->Add(5);
  b.GetGauge("g")->Set(7.0);
  b.GetHistogram("h", kBounds)->Observe(9.0);
  b.GetCounter("only_in_b")->Add(1);

  a.Merge(b.Snapshot());
  EXPECT_EQ(a.GetCounter("c")->value(), 15u);
  EXPECT_DOUBLE_EQ(a.GetGauge("g")->value(), 7.0) << "gauge merge = max";
  Histogram* h = a.GetHistogram("h", kBounds);
  EXPECT_EQ(h->observations(), 2u);
  EXPECT_EQ(h->counts()[0], 1u);
  EXPECT_EQ(h->counts()[3], 1u);
  EXPECT_DOUBLE_EQ(h->sum(), 10.0);
  EXPECT_EQ(a.GetCounter("only_in_b")->value(), 1u)
      << "absent metrics are registered by the merge";
}

TEST(MetricsTest, MergeIsOrderInsensitive) {
  const auto snapshot_of = [](uint64_t c, double g, double obs) {
    MetricsRegistry r;
    r.GetCounter("c")->Add(c);
    r.GetGauge("g")->Set(g);
    r.GetHistogram("h", kBounds)->Observe(obs);
    return r.Snapshot();
  };
  const MetricsSnapshot s1 = snapshot_of(1, 5.0, 0.5);
  const MetricsSnapshot s2 = snapshot_of(2, 3.0, 8.0);
  const MetricsSnapshot s3 = snapshot_of(3, 9.0, 2.0);

  MetricsRegistry forward, backward;
  for (const auto* s : {&s1, &s2, &s3}) forward.Merge(*s);
  for (const auto* s : {&s3, &s2, &s1}) backward.Merge(*s);
  EXPECT_EQ(forward.Snapshot(), backward.Snapshot());
}

TEST(MetricsTest, MergeOnJoinIsDeterministicAcrossThreadCounts) {
  // The sweep-runner pattern in miniature: N tasks each fill a private
  // registry; snapshots are stored in preassigned slots and merged in index
  // order after the join. The merged result must not depend on how many
  // threads executed the tasks.
  constexpr size_t kTasks = 12;
  const auto run_with = [](unsigned threads) {
    std::vector<MetricsSnapshot> slots(kTasks);
    const auto task = [&slots](size_t i) {
      MetricsRegistry registry;
      registry.GetCounter("events")->Add(i + 1);
      registry.GetGauge("last")->Set(static_cast<double>(i));
      Histogram* h = registry.GetHistogram("dist", kBounds);
      for (size_t k = 0; k <= i; ++k) {
        h->Observe(static_cast<double>(k % 5));
      }
      slots[i] = registry.Snapshot();
    };
    if (threads <= 1) {
      for (size_t i = 0; i < kTasks; ++i) task(i);
    } else {
      std::atomic<size_t> next{0};
      std::vector<std::jthread> pool;
      for (unsigned w = 0; w < threads; ++w) {
        pool.emplace_back([&] {
          for (size_t i = next.fetch_add(1); i < kTasks;
               i = next.fetch_add(1)) {
            task(i);
          }
        });
      }
    }
    MetricsRegistry merged;
    for (const MetricsSnapshot& slot : slots) merged.Merge(slot);
    return merged.Snapshot();
  };
  const MetricsSnapshot sequential = run_with(1);
  EXPECT_EQ(run_with(4), sequential);
  EXPECT_EQ(run_with(7), sequential);
}

TEST(MetricsTest, FastPathDoesNotAllocate) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Gauge* gauge = registry.GetGauge("g");
  Histogram* histogram = registry.GetHistogram("h", kBounds);
  EventRing ring(64);
  Event event;
  for (int i = 0; i < 100; ++i) ring.Push(event);  // fill to capacity

  const uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    counter->Add();
    gauge->Set(static_cast<double>(i));
    histogram->Observe(static_cast<double>(i % 8));
    ring.Push(event);  // at capacity: overwrite, no growth
  }
  EXPECT_EQ(g_allocations.load(), before)
      << "Add/Set/Observe/Push must not allocate";
}

TEST(EventRingTest, BoundedRingKeepsTheNewestEvents) {
  EventRing ring(4);
  for (uint64_t i = 0; i < 10; ++i) {
    Event event;
    event.page = i;
    ring.Push(event);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<uint64_t> pages;
  ring.ForEach([&pages](const Event& e) { pages.push_back(e.page); });
  EXPECT_EQ(pages, (std::vector<uint64_t>{6, 7, 8, 9}))
      << "chronological order, oldest retained first";
}

TEST(EventRingTest, CapacityZeroCountsWithoutStoring) {
  EventRing ring(0);
  ring.Push(Event{});
  ring.Push(Event{});
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 2u);
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(EventRingTest, UnboundedRingDropsNothing) {
  EventRing ring(EventRing::kUnbounded);
  for (uint64_t i = 0; i < 10000; ++i) {
    Event event;
    event.page = i;
    ring.Push(event);
  }
  EXPECT_EQ(ring.size(), 10000u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<Event> snapshot = ring.Snapshot();
  EXPECT_EQ(snapshot.front().page, 0u);
  EXPECT_EQ(snapshot.back().page, 9999u);
}

TEST(CollectorTest, WindowedHitRatio) {
  CollectorOptions options;
  options.window = 4;
  options.event_capacity = 0;
  Collector collector(options);
  // Window 1: 2 hits of 4. Window 2: 4 hits of 4.
  for (bool hit : {true, false, true, false, true, true, true, true}) {
    collector.OnBufferRequest(1, 1, hit);
  }
  const MetricsSnapshot snapshot = collector.metrics().Snapshot();
  for (const MetricValue& value : snapshot) {
    if (value.name == "buffer.window_hit_ratio") {
      EXPECT_EQ(value.observations, 2u);
      EXPECT_DOUBLE_EQ(value.value, 1.5);  // 0.5 + 1.0
    }
    if (value.name == "buffer.window_hit_ratio.last") {
      EXPECT_DOUBLE_EQ(value.value, 1.0);
    }
  }
}

TEST(CollectorTest, RecordAccessesPushesPageAccessEvents) {
  CollectorOptions options;
  options.record_accesses = true;
  options.event_capacity = EventRing::kUnbounded;
  Collector collector(options);
  collector.OnBufferRequest(7, 3, /*hit=*/false);
  collector.OnBufferRequest(7, 4, /*hit=*/true);
  ASSERT_EQ(collector.events().size(), 2u);
  const std::vector<Event> events = collector.events().Snapshot();
  EXPECT_EQ(events[0].kind, EventKind::kPageAccess);
  EXPECT_EQ(events[0].page, 7u);
  EXPECT_EQ(events[0].query, 3u);
  EXPECT_FALSE(events[0].flag);
  EXPECT_TRUE(events[1].flag);
}

TEST(ExportTest, MetricsJsonShape) {
  MetricsRegistry registry;
  registry.GetCounter("a.count")->Add(3);
  registry.GetGauge("b.gauge")->Set(1.5);
  registry.GetHistogram("c.hist", kBounds)->Observe(2.0);
  const std::string json = MetricsJson(registry.Snapshot());
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.gauge\":1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"c.hist\":{\"bounds\":[1,2,4],\"counts\":[0,1,0,0]"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ExportTest, MetricsJsonLinesRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("x")->Add(1);
  registry.GetGauge("y")->Set(2.0);
  const std::string path = ::testing::TempDir() + "/obs_metrics.jsonl";
  ASSERT_TRUE(WriteMetricsJsonLines(path, "label-1", registry.Snapshot()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  const std::string version =
      "\"schema_version\":" + std::to_string(kBenchJsonSchemaVersion);
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"label\":\"label-1\""), std::string::npos) << line;
    EXPECT_NE(line.find(version), std::string::npos)
        << "every row carries the writer's schema version: " << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2u) << "one JSONL record per metric";
}

TEST(ExportTest, ChromeTraceFile) {
  ChromeTraceWriter writer;
  writer.SetThreadName(0, "worker 0");
  writer.AddCompleteEvent("LRU/U-P/64", 0, 100, 50);
  writer.AddCompleteEvent("ASB/U-P/64", 0, 150, 75);
  EXPECT_EQ(writer.event_count(), 2u);
  const std::string path = ::testing::TempDir() + "/obs_trace.json";
  ASSERT_TRUE(writer.Write(path));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("worker 0"), std::string::npos);
  EXPECT_NE(json.find("LRU/U-P/64"), std::string::npos);
}

// ---------------------------------------------------------------------------
// HistogramQuantile edge cases: the nearest-rank-with-interpolation contract
// at the boundaries of q and of the bucket layout.

TEST(HistogramQuantileTest, QZeroTargetsTheFirstObservation) {
  const std::vector<uint64_t> counts = {2, 0, 0, 0};
  // rank = max(1, round(0 * 2)) = 1 → halfway into [0, 1].
  EXPECT_DOUBLE_EQ(HistogramQuantile(kBounds, counts, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(kBounds, counts, -3.0), 0.5)
      << "q below the domain clamps to 0";
}

TEST(HistogramQuantileTest, QOneSaturatesAtTheTopBound) {
  const std::vector<uint64_t> counts = {1, 1, 1, 1};
  // rank 4 lands in the overflow bucket, which has no upper edge.
  EXPECT_DOUBLE_EQ(HistogramQuantile(kBounds, counts, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(kBounds, counts, 5.0), 4.0)
      << "q above the domain clamps to 1";
}

TEST(HistogramQuantileTest, AllObservationsInOverflowReportTheTopBound) {
  const std::vector<uint64_t> counts = {0, 0, 0, 5};
  EXPECT_DOUBLE_EQ(HistogramQuantile(kBounds, counts, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(kBounds, counts, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(kBounds, counts, 1.0), 4.0);
}

TEST(HistogramQuantileTest, NoObservationsReturnZero) {
  const std::vector<uint64_t> counts = {0, 0, 0, 0};
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(HistogramQuantile(kBounds, counts, q), 0.0);
  }
  EXPECT_DOUBLE_EQ(
      HistogramQuantile(std::span<const double>{},
                        std::vector<uint64_t>{0}, 0.5),
      0.0)
      << "a boundless histogram with no observations";
}

TEST(HistogramQuantileTest, SingleBucketInterpolatesWithinIt) {
  const double bounds[] = {10.0};
  const std::vector<uint64_t> counts = {4, 0};
  // rank r of 4 observations → 10 * r / 4.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 1.0), 10.0);
}

TEST(HistogramQuantileTest, MetricValueOverloadMatchesTheSpanOverload) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h", kBounds);
  for (const double v : {0.5, 1.5, 3.0, 3.5}) h->Observe(v);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  for (const double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot[0], q),
                     HistogramQuantile(kBounds, snapshot[0].bucket_counts, q));
  }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

TEST(ExportTest, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("svc.latch_waits")->Add(7);
  registry.GetGauge("io.queue_depth")->Set(2.5);
  Histogram* h = registry.GetHistogram("pin.ns", kBounds);
  h->Observe(1.0);
  h->Observe(3.0);
  h->Observe(100.0);
  const std::string text = PrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE sdb_svc_latch_waits counter\n"
                      "sdb_svc_latch_waits 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE sdb_io_queue_depth gauge\n"
                      "sdb_io_queue_depth 2.5\n"),
            std::string::npos)
      << "dots sanitize to underscores: " << text;
  // Bucket samples are cumulative, closed by +Inf at the observation total.
  EXPECT_NE(text.find("sdb_pin_ns_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("sdb_pin_ns_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("sdb_pin_ns_bucket{le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("sdb_pin_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sdb_pin_ns_sum 104\n"), std::string::npos);
  EXPECT_NE(text.find("sdb_pin_ns_count 3\n"), std::string::npos);
}

TEST(ExportTest, PrometheusTextHonorsThePrefix) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(1);
  EXPECT_NE(PrometheusText(registry.Snapshot(), "spatial")
                .find("spatial_c 1\n"),
            std::string::npos);
}

TEST(ExportTest, ChromeTraceNanosecondEventsKeepSubMicrosecondDetail) {
  ChromeTraceWriter writer;
  writer.AddCompleteEventNs("pin", 0, 1500, 250, "trace");
  const std::string path = ::testing::TempDir() + "/obs_trace_ns.json";
  ASSERT_TRUE(writer.Write(path));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos)
      << "1500 ns = 1.5 µs: " << json;
  EXPECT_NE(json.find("\"dur\":0.250"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Span tracing: packing, sampling, nesting, rendering.

TEST(TracerTest, ShouldSampleSelectsEveryNthTraceDeterministically) {
  TracerOptions every4;
  every4.sample_every = 4;
  const Tracer tracer(every4);
  EXPECT_TRUE(tracer.ShouldSample(0));
  EXPECT_FALSE(tracer.ShouldSample(1));
  EXPECT_FALSE(tracer.ShouldSample(3));
  EXPECT_TRUE(tracer.ShouldSample(4));
  EXPECT_TRUE(tracer.ShouldSample(8));

  TracerOptions off;
  off.sample_every = 0;
  const Tracer disabled(off);
  EXPECT_FALSE(disabled.ShouldSample(0));
  EXPECT_FALSE(disabled.ShouldSample(64));
}

TEST(TracerTest, NestedScopedSpansPackIdsParentsAndTrack) {
  Tracer tracer;
  SpanContext ctx;
  ctx.tracer = &tracer;
  ctx.trace_id = 42;
  ctx.track = 7;
  {
    ScopedSpan query(&ctx, SpanKind::kQuery);
    ASSERT_TRUE(query.armed());
    query.set_payload(3);
    {
      ScopedSpan fetch(&ctx, SpanKind::kShardFetch);
      fetch.set_page(99);
      fetch.set_flag(true);
    }
    EXPECT_EQ(ctx.parent, 1) << "closing the child restores the parent";
  }
  EXPECT_EQ(ctx.parent, 0) << "closing the root restores root level";

  const std::vector<Event> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u) << "children close (and emit) first";
  const Event& fetch = spans[0];
  const Event& query = spans[1];
  EXPECT_EQ(SpanKindOf(fetch), SpanKind::kShardFetch);
  EXPECT_EQ(SpanIdOf(fetch), 2);
  EXPECT_EQ(SpanParentOf(fetch), 1) << "child points at the enclosing span";
  EXPECT_EQ(SpanTrackOf(fetch), 7u);
  EXPECT_EQ(fetch.query, 42u);
  EXPECT_EQ(fetch.page, 99u);
  EXPECT_TRUE(fetch.flag);
  EXPECT_EQ(SpanKindOf(query), SpanKind::kQuery);
  EXPECT_EQ(SpanIdOf(query), 1);
  EXPECT_EQ(SpanParentOf(query), 0) << "root span has no parent";
  EXPECT_EQ(SpanPayloadOf(query), 3u);
  EXPECT_LE(query.b, fetch.b) << "parent begins before the child";
  EXPECT_GE(query.b + query.c, fetch.b + fetch.c)
      << "parent ends after the child (time containment)";
}

TEST(TracerTest, DetachedSpanIsInert) {
  ScopedSpan detached(nullptr, SpanKind::kQuery);
  EXPECT_FALSE(detached.armed());
  detached.set_page(1);
  detached.set_payload(2);
  detached.set_flag(true);  // all no-ops, must not crash

  SpanContext no_tracer;  // default: tracer == nullptr
  ScopedSpan unarmed(&no_tracer, SpanKind::kShardFetch);
  EXPECT_FALSE(unarmed.armed());
  EXPECT_EQ(no_tracer.next_id, 1) << "no id minted without a tracer";
}

TEST(TracerTest, WriteChromeTraceRendersTracksAndSpanNames) {
  Tracer tracer;
  SpanContext ctx;
  ctx.tracer = &tracer;
  ctx.trace_id = 43;
  ctx.track = 5;
  {
    ScopedSpan query(&ctx, SpanKind::kQuery);
    ScopedSpan fetch(&ctx, SpanKind::kShardFetch);
  }
  EXPECT_EQ(tracer.total(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
  const std::string path = ::testing::TempDir() + "/obs_span_trace.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  EXPECT_NE(json.find("session 5"), std::string::npos)
      << "one named track per session: " << json;
  EXPECT_NE(json.find("query #43.1"), std::string::npos) << json;
  EXPECT_NE(json.find("shard_fetch #43.2"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Windowed time-series telemetry.

MetricsSnapshot ServiceSnapshot(uint64_t requests, uint64_t hits,
                                uint64_t latch_waits, uint64_t disk_reads,
                                double queue_depth, double candidate) {
  MetricsRegistry registry;
  registry.GetCounter("buffer.requests")->Add(requests);
  registry.GetCounter("buffer.hits")->Add(hits);
  registry.GetCounter("svc.latch_waits")->Add(latch_waits);
  registry.GetCounter("svc.latch_acquires")->Add(latch_waits * 2);
  registry.GetCounter("svc.disk_reads")->Add(disk_reads);
  registry.GetGauge("io.queue_depth")->Set(queue_depth);
  registry.GetGauge("asb.candidate")->Set(candidate);
  return registry.Snapshot();
}

TEST(TelemetryHubTest, FirstSampleOnlyEstablishesTheBase) {
  TelemetryHub hub;
  hub.Sample(0, ServiceSnapshot(100, 90, 0, 10, 0, 8));
  EXPECT_TRUE(hub.Windows().empty())
      << "startup totals must not become a window";
  hub.Sample(5000, ServiceSnapshot(300, 250, 4, 50, 2, 12));
  ASSERT_EQ(hub.Windows().size(), 1u);
}

TEST(TelemetryHubTest, WindowsCarryCounterDeltasAndGaugeLevels) {
  TelemetryHub hub;
  hub.Sample(0, ServiceSnapshot(100, 90, 2, 10, 1, 8));
  hub.Sample(200, ServiceSnapshot(300, 250, 6, 50, 3, 12));
  const std::vector<TelemetryWindow> windows = hub.Windows();
  ASSERT_EQ(windows.size(), 1u);
  const TelemetryWindow& w = windows[0];
  EXPECT_EQ(w.clock, 200u);
  EXPECT_EQ(w.requests, 200u) << "counter series are per-window deltas";
  EXPECT_EQ(w.hits, 160u);
  EXPECT_DOUBLE_EQ(w.hit_rate, 160.0 / 200.0);
  EXPECT_EQ(w.latch_waits, 4u);
  EXPECT_EQ(w.latch_acquires, 8u);
  EXPECT_EQ(w.disk_reads, 40u);
  EXPECT_EQ(w.asb_candidate, 12u) << "gauges are levels, not deltas";
}

TEST(TelemetryHubTest, ExplicitCandidateOverridesTheGauge) {
  TelemetryHub hub;
  hub.Sample(0, ServiceSnapshot(1, 1, 0, 0, 0, 8));
  hub.Sample(100, ServiceSnapshot(2, 2, 0, 0, 0, 8), /*asb_candidate=*/31);
  ASSERT_EQ(hub.Windows().size(), 1u);
  EXPECT_EQ(hub.Windows()[0].asb_candidate, 31u);
}

TEST(TelemetryHubTest, WantsSampleGatesOnTheClockInterval) {
  TelemetryHubOptions options;
  options.window_clock_interval = 100;
  TelemetryHub hub(options);
  EXPECT_FALSE(hub.WantsSample(99));
  EXPECT_TRUE(hub.WantsSample(100));
  hub.Sample(100, ServiceSnapshot(1, 1, 0, 0, 0, 1));
  EXPECT_FALSE(hub.WantsSample(150));
  EXPECT_FALSE(hub.WantsSample(100)) << "no progress, no sample";
  EXPECT_TRUE(hub.WantsSample(200));
}

TEST(TelemetryHubTest, StaleClocksAndCounterResetsDoNotCorruptTheSeries) {
  TelemetryHub hub;
  hub.Sample(0, ServiceSnapshot(100, 90, 0, 0, 0, 1));
  hub.Sample(100, ServiceSnapshot(200, 180, 0, 0, 0, 1));
  hub.Sample(100, ServiceSnapshot(999, 999, 9, 9, 9, 9));
  EXPECT_EQ(hub.Windows().size(), 1u) << "a non-advancing clock is dropped";
  // A source reset (totals going backwards) saturates at zero instead of
  // wrapping around.
  hub.Sample(300, ServiceSnapshot(50, 40, 0, 0, 0, 1));
  ASSERT_EQ(hub.Windows().size(), 2u);
  EXPECT_EQ(hub.Windows()[1].requests, 0u);
  EXPECT_EQ(hub.Windows()[1].hits, 0u);
}

TEST(TelemetryHubTest, TimeSeriesJsonCarriesWindowsAndMarks) {
  TelemetryHub hub;
  hub.Sample(0, ServiceSnapshot(0, 0, 0, 0, 0, 4));
  hub.Sample(100, ServiceSnapshot(80, 60, 1, 20, 2, 6));
  hub.Mark(50, "workload_shift");
  const std::string path = ::testing::TempDir() + "/obs_timeseries.jsonl";
  ASSERT_TRUE(WriteTimeSeriesJson(path, hub.Windows(), hub.Marks()));
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u) << "one record per window plus one per mark";
  const std::string version =
      "\"schema_version\":" + std::to_string(kBenchJsonSchemaVersion);
  EXPECT_NE(lines[0].find(version), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"kind\":\"window\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"clock\":100"), std::string::npos);
  EXPECT_NE(lines[0].find("\"requests\":80"), std::string::npos);
  EXPECT_NE(lines[0].find("\"hit_rate\":0.750000"), std::string::npos);
  EXPECT_NE(lines[0].find("\"asb_candidate\":6"), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"mark\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"label\":\"workload_shift\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// ASB adaptation-timeline analysis.

TEST(AsbTimelineTest, ComputesPerPhaseConvergenceLag) {
  // Phase 0 (implied, clock 0..25): settled at 8 immediately.
  // Phase 1 (shift at 25): climbs 16 → 24 → 30 → 31 → 32; with tolerance 1
  // the settled band is [31, 33], entered at clock 60.
  const std::vector<AsbTimelinePoint> points = {
      {10, 8}, {20, 8},                                   // phase 0
      {30, 16}, {40, 24}, {50, 30}, {60, 31}, {70, 32},   // phase 1
  };
  const AsbTimelineReport report =
      AnalyzeAsbTimeline(points, /*shifts=*/{25}, /*tolerance=*/1);
  ASSERT_EQ(report.phases.size(), 2u) << "implied leading phase + one shift";
  EXPECT_EQ(report.phases[0].shift_clock, 0u);
  EXPECT_EQ(report.phases[0].settled_candidate, 8u);
  ASSERT_TRUE(report.phases[0].converged);
  EXPECT_EQ(report.phases[0].converged_clock, 10u);
  EXPECT_EQ(report.phases[0].lag, 10u);
  EXPECT_EQ(report.phases[1].shift_clock, 25u);
  EXPECT_EQ(report.phases[1].settled_candidate, 32u);
  ASSERT_TRUE(report.phases[1].converged);
  EXPECT_EQ(report.phases[1].converged_clock, 60u);
  EXPECT_EQ(report.phases[1].lag, 35u);
}

TEST(AsbTimelineTest, PhaseWithoutPointsDoesNotConverge) {
  const std::vector<AsbTimelinePoint> points = {{10, 8}, {20, 8}};
  const AsbTimelineReport report = AnalyzeAsbTimeline(points, {100});
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_TRUE(report.phases[0].converged);
  EXPECT_FALSE(report.phases[1].converged)
      << "no observations after the shift";
}

TEST(AsbTimelineTest, PointsFromEventsUseTheAdaptationIndexAsClock) {
  std::vector<Event> events(4);
  events[0].kind = EventKind::kAsbAdapt;
  events[0].c = 10;
  events[1].kind = EventKind::kEviction;  // skipped
  events[2].kind = EventKind::kAsbAdapt;
  events[2].c = 11;
  events[3].kind = EventKind::kPageAccess;  // skipped
  const std::vector<AsbTimelinePoint> points = AsbPointsFromEvents(events);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].clock, 1u);
  EXPECT_EQ(points[0].candidate, 10u);
  EXPECT_EQ(points[1].clock, 2u);
  EXPECT_EQ(points[1].candidate, 11u);
}

TEST(AsbTimelineTest, PointsFromWindowsCarryTheWindowClock) {
  std::vector<TelemetryWindow> windows(2);
  windows[0].clock = 4096;
  windows[0].asb_candidate = 9;
  windows[1].clock = 8192;
  windows[1].asb_candidate = 13;
  const std::vector<AsbTimelinePoint> points = AsbPointsFromWindows(windows);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].clock, 4096u);
  EXPECT_EQ(points[1].candidate, 13u);
}

}  // namespace
}  // namespace sdb::obs

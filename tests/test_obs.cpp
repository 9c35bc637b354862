// Observability subsystem: registry semantics, span recording, exporter
// formats and — the load-bearing property — deterministic snapshots: the
// deterministic JSON section must be byte-identical for one workload at any
// thread count. Every test that touches the global registry resets it first
// (each test binary is its own process, so tests only race themselves).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/thread_pool.h"

namespace {

using namespace fa;

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

// A deterministic workload: counter adds, histogram records and spans from
// inside a parallel_for. Integer adds are commutative, so totals are exact
// at any thread count; only the per-worker (timing-class) split varies.
void run_workload(std::size_t threads) {
  ThreadPool pool(threads);
  obs::Counter& events = obs::counter("test.workload.events");
  obs::Histogram& sizes = obs::histogram(
      "test.workload.sizes", obs::size_bounds(), {},
      obs::Stability::kDeterministic);
  obs::Span span("test.workload");
  pool.parallel_for(1000, [&](std::size_t i) {
    events.add(i % 3);
    sizes.record(static_cast<double>(i % 7));
    obs::counter("test.workload.by_parity",
                 {{"parity", i % 2 == 0 ? "even" : "odd"}})
        .add(1);
  });
}

TEST(MetricsRegistry, CounterHandlesAreIdempotentAndStable) {
  registry().reset();
  obs::Counter& a = obs::counter("test.idem", {{"k", "v"}});
  obs::Counter& b = obs::counter("test.idem", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);
  // Different labels are a different family member.
  obs::Counter& c = obs::counter("test.idem", {{"k", "w"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsHandles) {
  registry().reset();
  obs::Counter& counter = obs::counter("test.reset.counter");
  obs::Gauge& gauge = obs::gauge("test.reset.gauge");
  obs::Histogram& histogram =
      obs::histogram("test.reset.hist", {1.0, 2.0});
  counter.add(7);
  gauge.set(3.5);
  histogram.record(1.5);
  { obs::Span span("test.reset.span"); }
  registry().reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_TRUE(registry().span_events().empty());
  // Handles survive the reset and keep recording.
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
  const auto snapshot = registry().snapshot();
  bool found = false;
  for (const auto& s : snapshot.counters) {
    if (s.name == "test.reset.counter") {
      found = true;
      EXPECT_EQ(s.value, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsRegistry, RuntimeToggleMakesOpsNoOps) {
  registry().reset();
  obs::Counter& counter = obs::counter("test.toggle");
  obs::set_enabled(false);
  counter.add(5);
  { obs::Span span("test.toggle.span"); }
  obs::set_enabled(true);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_TRUE(registry().span_events().empty());
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
}

TEST(MetricsRegistry, HistogramBucketPlacement) {
  registry().reset();
  obs::Histogram& h = obs::histogram("test.buckets", {1.0, 10.0}, {},
                                     obs::Stability::kDeterministic);
  h.record(0.5);   // <= 1.0
  h.record(1.0);   // <= 1.0 (bounds are inclusive upper limits)
  h.record(5.0);   // <= 10.0
  h.record(100.0); // overflow
  const auto snapshot = registry().snapshot();
  for (const auto& s : snapshot.histograms) {
    if (s.name != "test.buckets") continue;
    ASSERT_EQ(s.buckets.size(), 3u);
    EXPECT_EQ(s.buckets[0], 2u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[2], 1u);
    EXPECT_EQ(s.count, 4u);
    return;
  }
  FAIL() << "test.buckets not in snapshot";
}

TEST(BucketStats, QuantilesInterpolateWithinBuckets) {
  obs::BucketStats stats({10.0, 100.0, 1000.0});
  EXPECT_DOUBLE_EQ(stats.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 10; ++i) stats.record(5.0);    // bucket <= 10
  for (int i = 0; i < 80; ++i) stats.record(50.0);   // bucket <= 100
  for (int i = 0; i < 10; ++i) stats.record(500.0);  // bucket <= 1000
  EXPECT_EQ(stats.count, 100u);
  EXPECT_DOUBLE_EQ(stats.min, 5.0);
  EXPECT_DOUBLE_EQ(stats.max, 500.0);
  // p50 lands mid-way through the 10..100 bucket; the estimate must stay
  // inside that bucket and inside the observed [min, max] envelope.
  const double p50 = stats.quantile(0.5);
  EXPECT_GT(p50, 10.0);
  EXPECT_LT(p50, 100.0);
  // p99 falls in the last occupied bucket, clamped by the observed max.
  const double p99 = stats.quantile(0.99);
  EXPECT_GT(p99, 100.0);
  EXPECT_LE(p99, 500.0);
  EXPECT_DOUBLE_EQ(stats.mean(), (10 * 5.0 + 80 * 50.0 + 10 * 500.0) / 100.0);
}

TEST(BucketStats, SingleValueCollapsesAllQuantiles) {
  obs::BucketStats stats(obs::sim_lag_minutes_bounds());
  stats.record(1440.0);
  EXPECT_DOUBLE_EQ(stats.quantile(0.5), 1440.0);
  EXPECT_DOUBLE_EQ(stats.quantile(0.99), 1440.0);
  EXPECT_DOUBLE_EQ(stats.min, 1440.0);
  EXPECT_DOUBLE_EQ(stats.max, 1440.0);
}

TEST(BucketStats, QuantileBoundsAreSortedAndDeduped) {
  const auto bounds = obs::quantile_bounds(15.0, 32.0 * 7.0 * 24.0 * 60.0, 2);
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_DOUBLE_EQ(bounds.front(), 15.0);
}

TEST(MetricsRegistry, HistogramTracksExtremesAndMergesBucketStats) {
  registry().reset();
  obs::Histogram& h = obs::histogram("test.merge", {1.0, 10.0}, {},
                                     obs::Stability::kDeterministic);
  h.record(4.0);
  obs::BucketStats local(std::vector<double>{1.0, 10.0});
  local.record(0.5);
  local.record(25.0);
  h.merge(local);
  // A mismatched-bounds merge is ignored rather than corrupting buckets.
  obs::BucketStats other(std::vector<double>{2.0, 20.0});
  other.record(3.0);
  h.merge(other);
  const auto snapshot = registry().snapshot();
  for (const auto& s : snapshot.histograms) {
    if (s.name != "test.merge") continue;
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.min, 0.5);
    EXPECT_DOUBLE_EQ(s.max, 25.0);
    ASSERT_EQ(s.buckets.size(), 3u);
    EXPECT_EQ(s.buckets[0], 1u);  // 0.5
    EXPECT_EQ(s.buckets[1], 1u);  // 4.0
    EXPECT_EQ(s.buckets[2], 1u);  // 25.0 overflow
    return;
  }
  FAIL() << "test.merge not in snapshot";
}

TEST(Export, DeterministicHistogramsCarryQuantiles) {
  registry().reset();
  obs::Histogram& h = obs::histogram("test.quantiles", {10.0, 100.0}, {},
                                     obs::Stability::kDeterministic);
  for (int i = 0; i < 100; ++i) h.record(50.0);
  const std::string det = obs::deterministic_json(registry().snapshot());
  EXPECT_NE(det.find("\"p50\""), std::string::npos);
  EXPECT_NE(det.find("\"p90\""), std::string::npos);
  EXPECT_NE(det.find("\"p99\""), std::string::npos);
  EXPECT_NE(det.find("\"min\": 50"), std::string::npos);
  EXPECT_NE(det.find("\"max\": 50"), std::string::npos);
  // All mass on one value: every quantile is exactly that value.
  EXPECT_NE(det.find("\"p99\": 50"), std::string::npos);
  EXPECT_EQ(det.find("\"sum\""), std::string::npos);
}

TEST(MetricsRegistry, CanonicalLabelsSortByKey) {
  EXPECT_EQ(obs::canonical_labels({{"b", "2"}, {"a", "1"}}), "a=1,b=2");
  EXPECT_EQ(obs::canonical_labels({}), "");
}

TEST(Span, NestingRecordsDepthAndCloseOrder) {
  registry().reset();
  {
    obs::Span outer("test.outer");
    { obs::Span inner("test.inner"); }
    { obs::Span inner2("test.inner2"); }
  }
  const auto events = registry().span_events();
  ASSERT_EQ(events.size(), 3u);
  // Inner spans close before the outer one; depth reflects nesting.
  EXPECT_EQ(events[0].name, "test.inner");
  EXPECT_EQ(events[1].name, "test.inner2");
  EXPECT_EQ(events[2].name, "test.outer");
  EXPECT_EQ(events[0].depth, events[2].depth + 1);
  EXPECT_EQ(events[1].depth, events[2].depth + 1);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  // The outer span encloses both inner spans in time.
  EXPECT_LE(events[2].start_us, events[0].start_us);
  EXPECT_GE(events[2].dur_us, events[0].dur_us);
}

TEST(Span, CloseEndsEarlyAndIsIdempotent) {
  registry().reset();
  {
    obs::Span span("test.early");
    span.close();
    span.close();  // second close is a no-op
  }
  EXPECT_EQ(registry().span_events().size(), 1u);
}

TEST(Span, ThreadsGetDistinctBufferIds) {
  registry().reset();
  { obs::Span span("test.tid.main"); }
  std::thread other([] { obs::Span span("test.tid.other"); });
  other.join();
  const auto events = registry().span_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(Determinism, DeterministicJsonIsByteIdenticalAcrossThreadCounts) {
  registry().reset();
  run_workload(1);
  const std::string serial = obs::deterministic_json(registry().snapshot());
  registry().reset();
  run_workload(8);
  const std::string parallel = obs::deterministic_json(registry().snapshot());
  EXPECT_EQ(serial, parallel);
  // The workload's own counters must actually be present (an empty
  // deterministic section would also compare equal).
  EXPECT_NE(serial.find("test.workload.events"), std::string::npos);
  EXPECT_NE(serial.find("parity=even"), std::string::npos);
}

TEST(Determinism, TimingDataStaysOutOfDeterministicSection) {
  registry().reset();
  run_workload(4);
  const std::string det = obs::deterministic_json(registry().snapshot());
  EXPECT_EQ(det.find("fa.pool.worker."), std::string::npos)
      << "per-worker counters are schedule-dependent";
  EXPECT_EQ(det.find("\"spans\""), std::string::npos);
  EXPECT_EQ(det.find("\"sum\""), std::string::npos)
      << "histogram sums accumulate in schedule order";
}

TEST(Export, ToJsonEmbedsDeterministicPayloadVerbatim) {
  registry().reset();
  run_workload(2);
  const auto snapshot = registry().snapshot();
  const std::string full = obs::to_json(snapshot);
  const std::string det = obs::deterministic_json(snapshot);
  // deterministic_json is "{\n" + SECTION + "\n}\n"; the same SECTION bytes
  // must appear verbatim in the full document, so byte-comparing either
  // form is equivalent.
  ASSERT_TRUE(det.starts_with("{\n") && det.ends_with("\n}\n"));
  const auto payload = det.substr(2, det.size() - 5);
  EXPECT_NE(payload.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(full.find(payload), std::string::npos);
  EXPECT_NE(full.find("\"timing\""), std::string::npos);
  EXPECT_NE(obs::to_json(obs::MetricsSnapshot{}).find("\"deterministic\""),
            std::string::npos);
}

TEST(Export, ChromeTraceShape) {
  registry().reset();
  {
    obs::Span outer("trace.outer");
    obs::Span inner("trace.inner");
  }
  const std::string json =
      obs::chrome_trace_json(registry().span_events());
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"trace.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"trace.outer\""), std::string::npos);
  EXPECT_NE(obs::chrome_trace_json({}).find("\"traceEvents\""),
            std::string::npos);
}

TEST(Export, TableRendersAllMetricKinds) {
  registry().reset();
  obs::counter("test.table.counter").add(3);
  obs::gauge("test.table.gauge").set(1.25);
  obs::histogram("test.table.hist", {1.0}).record(0.5);
  { obs::Span span("test.table.span"); }
  const std::string table = obs::render_table(registry().snapshot());
  EXPECT_NE(table.find("test.table.counter"), std::string::npos);
  EXPECT_NE(table.find("test.table.gauge"), std::string::npos);
  EXPECT_NE(table.find("test.table.hist"), std::string::npos);
  EXPECT_NE(table.find("test.table.span"), std::string::npos);
  EXPECT_EQ(obs::render_table(obs::MetricsSnapshot{}),
            "(no metrics recorded)\n");
}

}  // namespace

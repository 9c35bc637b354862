#include "src/detect/health.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/detect/serve.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace fa::detect {
namespace {

// A small hand-built fleet header for driving the sinks directly.
trace::StreamMeta tiny_meta() {
  trace::StreamMeta meta;
  meta.window = ticket_window();
  meta.server_count = 10;
  meta.servers_by_type = {5, 5};
  meta.servers_by_subsystem = {2, 2, 2, 2, 2};
  return meta;
}

trace::StreamEvent crash_event(std::int32_t ticket_id, std::int32_t incident,
                               std::int32_t server, double day) {
  trace::StreamEvent e;
  e.kind = trace::StreamEventKind::kTicket;
  e.at = ticket_window().begin + from_days(day);
  e.machine_type = trace::MachineType::kPhysical;
  e.ticket.id = trace::TicketId{ticket_id};
  e.ticket.incident = trace::IncidentId{incident};
  e.ticket.server = trace::ServerId{server};
  e.ticket.subsystem = 0;
  e.ticket.is_crash = true;
  e.ticket.true_class = trace::FailureClass::kSoftware;
  e.ticket.opened = e.at;
  e.ticket.closed = e.at + from_hours(2.0);
  return e;
}

// Records what reaches the inner end of a sink chain.
struct CountingSink final : trace::StreamSink {
  std::uint64_t begun = 0;
  std::vector<TimePoint> arrivals;
  TimePoint finished = -1;
  void begin(const trace::StreamMeta&) override { ++begun; }
  void on_event(const trace::StreamEvent& event) override {
    arrivals.push_back(event.at);
  }
  void finish(TimePoint stream_end) override { finished = stream_end; }
};

TEST(ThrottledSink, RejectsNegativeServiceTime) {
  CountingSink inner;
  ThrottleSpec bad;
  bad.service_minutes = -1;
  EXPECT_THROW((ThrottledSink{inner, bad, "t"}), Error);
}

TEST(ThrottledSink, ForwardsEventsUnchangedAndCountsBackpressure) {
  CountingSink inner;
  ThrottleSpec spec;
  spec.service_minutes = 60;
  ThrottledSink sink(inner, spec, "t");
  sink.begin(tiny_meta());
  // Five arrivals 10 sim-minutes apart against a 60-minute service time:
  // the virtual queue grows by one per arrival and waits grow by 50.
  const TimePoint t0 = ticket_window().begin + from_days(1.0);
  for (int k = 0; k < 5; ++k) {
    trace::StreamEvent e = crash_event(k + 1, k + 1, k, 1.0);
    e.at = t0 + 10 * k;
    e.ticket.opened = e.at;
    e.ticket.closed = e.at + from_hours(2.0);
    sink.on_event(e);
  }
  ASSERT_EQ(inner.arrivals.size(), 5u);
  EXPECT_EQ(inner.arrivals.front(), t0);       // forwarded unchanged
  EXPECT_EQ(inner.arrivals.back(), t0 + 40);

  const BackpressureStats& bp = sink.stats();
  EXPECT_EQ(bp.events, 5u);
  EXPECT_EQ(bp.delayed, 4u);                    // only the first had no wait
  EXPECT_EQ(bp.max_wait, 200);                  // 4 * (60 - 10)
  EXPECT_EQ(bp.total_wait, 0 + 50 + 100 + 150 + 200);
  EXPECT_EQ(bp.max_queue_depth, 5u);
  EXPECT_EQ(bp.queue_depth.count, 5u);
  EXPECT_DOUBLE_EQ(bp.queue_depth.max, 5.0);
  EXPECT_DOUBLE_EQ(bp.wait_minutes.max, 200.0);
  EXPECT_EQ(sink.queue_depth_at(t0 + 40), 5u);  // all still in service
  EXPECT_EQ(sink.queue_depth_at(t0 + 60), 4u);  // first completion done
  EXPECT_EQ(sink.queue_depth_at(t0 + 1000), 0u);

  sink.finish(t0 + from_days(1.0));
  EXPECT_EQ(inner.finished, t0 + from_days(1.0));
}

TEST(ThrottledSink, ZeroServiceTimeIsTransparent) {
  CountingSink inner;
  ThrottledSink sink(inner, ThrottleSpec{}, "t");
  sink.begin(tiny_meta());
  sink.on_event(crash_event(1, 1, 0, 2.0));
  sink.on_event(crash_event(2, 2, 1, 3.0));
  EXPECT_EQ(inner.arrivals.size(), 2u);
  EXPECT_EQ(sink.stats().events, 0u);  // the model is disabled entirely
  EXPECT_EQ(sink.stats().queue_depth.count, 0u);
}

TEST(OnlineDetector, LagHistogramsTrackDisorderedArrivals) {
  DetectorOptions options;
  options.out_of_order = OutOfOrderPolicy::kBuffer;
  options.reorder_slack = 2 * kMinutesPerDay;
  OnlineDetector detector(options);
  detector.begin(tiny_meta());
  detector.on_event(crash_event(1, 1, 0, 10.0));
  detector.on_event(crash_event(3, 3, 2, 12.0));
  detector.on_event(crash_event(2, 2, 1, 11.0));  // one day late
  const OnlineDetector::LiveStats live = detector.live_stats();
  EXPECT_EQ(live.reordered_buffered, 1u);
  EXPECT_EQ(live.event_lag.count, 3u);
  EXPECT_DOUBLE_EQ(live.event_lag.max,
                   static_cast<double>(kMinutesPerDay));  // the late arrival
  // The day-12 arrival released day 10 past the slack horizon; days 11
  // and 12 are still held until the frontier moves on.
  EXPECT_EQ(live.ooo_pending, 2u);
  EXPECT_EQ(live.ooo_occupancy.count, 3u);
  EXPECT_DOUBLE_EQ(live.ooo_occupancy.max, 2.0);  // two events in flight

  detector.finish(ticket_window().begin + from_days(20.0));
  const DetectorReport& report = detector.report();
  EXPECT_EQ(report.reordered_buffered, 1u);
  EXPECT_EQ(report.event_lag.count, 3u);
  EXPECT_DOUBLE_EQ(report.event_lag.max,
                   static_cast<double>(kMinutesPerDay));
  // The buffered events are released during finish(), so the watermark-lag
  // histogram saw the hold time of the late event.
  EXPECT_EQ(report.watermark_lag.count, 3u);
  EXPECT_GE(report.watermark_lag.max,
            static_cast<double>(kMinutesPerDay));
}

TEST(OnlineDetector, InOrderStreamHasZeroLag) {
  OnlineDetector detector{DetectorOptions{}};
  detector.begin(tiny_meta());
  for (int i = 0; i < 5; ++i) {
    detector.on_event(crash_event(i + 1, i + 1, i, 10.0 + 2.0 * i));
  }
  detector.finish(ticket_window().begin + from_days(30.0));
  const DetectorReport& report = detector.report();
  EXPECT_EQ(report.event_lag.count, 5u);
  EXPECT_DOUBLE_EQ(report.event_lag.max, 0.0);
  EXPECT_DOUBLE_EQ(report.event_lag.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(report.watermark_lag.max, 0.0);
  EXPECT_EQ(report.ooo_occupancy.count, 0u);  // kReject never buffers
}

TEST(OnlineDetector, DetectionLagRecordsOnsetOfRateAlerts) {
  OnlineDetector detector{DetectorOptions{}};
  detector.begin(tiny_meta());
  // Warmup baseline: one crash every other day arms the aggregate channel
  // (>= 24 incidents inside the 8-week warmup).
  int id = 0;
  for (int i = 0; i < 28; ++i) {
    ++id;
    detector.on_event(crash_event(id, id, i % 10, 1.0 + 2.0 * i));
  }
  // Post-warmup burst: 20 crashes/day is a ~40x rate step, which walks the
  // CUSUM past the threshold within a couple of ticks.
  for (int day = 0; day < 6; ++day) {
    for (int k = 0; k < 20; ++k) {
      ++id;
      detector.on_event(crash_event(id, id, k % 10, 60.0 + day + 0.04 * k));
    }
  }
  detector.finish(ticket_window().begin + from_days(70.0));
  const DetectorReport& report = detector.report();
  ASSERT_FALSE(report.alerts.empty());
  ASSERT_GE(report.detection_lag.count, 1u);
  // Onset is the start of the tick where the CUSUM left zero, so the lag
  // is at least one full tick and bounded by the burst length.
  EXPECT_GE(report.detection_lag.max,
            static_cast<double>(kMinutesPerDay));
  EXPECT_LE(report.detection_lag.max, static_cast<double>(from_days(7.0)));
  bool found_onset = false;
  for (const Alert& alert : report.alerts) {
    if (alert.kind == AlertKind::kRateShift && alert.onset_lag > 0) {
      found_onset = true;
    }
  }
  EXPECT_TRUE(found_onset);
}

TEST(HealthMonitor, RequiresCadenceAndEmitter) {
  OnlineDetector detector{DetectorOptions{}};
  EXPECT_THROW((HealthMonitor{detector, detector, nullptr, HealthOptions{},
                              "t", [](const Heartbeat&) {}}),
               Error);
  HealthOptions options;
  options.every = kMinutesPerDay;
  EXPECT_THROW(
      (HealthMonitor{detector, detector, nullptr, options, "t", nullptr}),
      Error);
}

TEST(HealthMonitor, EmitsOnBoundariesAndAtFinish) {
  OnlineDetector detector{DetectorOptions{}};
  std::vector<Heartbeat> beats;
  HealthOptions options;
  options.every = from_days(30.0);
  HealthMonitor monitor(detector, detector, nullptr, options, "hm",
                        [&beats](const Heartbeat& hb) {
                          beats.push_back(hb);
                        });
  monitor.begin(tiny_meta());
  monitor.on_event(crash_event(1, 1, 0, 10.0));
  monitor.on_event(crash_event(2, 2, 1, 40.0));  // crosses day 30
  monitor.on_event(crash_event(3, 3, 2, 70.0));  // crosses day 60
  monitor.finish(ticket_window().begin + from_days(80.0));

  ASSERT_EQ(beats.size(), 3u);
  EXPECT_EQ(beats[0].at, ticket_window().begin + from_days(30.0));
  EXPECT_EQ(beats[1].at, ticket_window().begin + from_days(60.0));
  EXPECT_EQ(beats[2].at, ticket_window().begin + from_days(80.0));
  for (std::size_t i = 0; i < beats.size(); ++i) {
    EXPECT_EQ(beats[i].seq, i);
  }
  // A boundary snapshot fires before the crossing event is forwarded: the
  // day-30 snapshot has seen only the first crash.
  double events = -1.0;
  const std::string_view det0 = heartbeat_object(beats[0].line, "det");
  ASSERT_TRUE(heartbeat_number(det0, "events", events));
  EXPECT_DOUBLE_EQ(events, 1.0);
  // The final snapshot runs after the inner finish, so it covers the
  // whole stream.
  const std::string_view det2 = heartbeat_object(beats[2].line, "det");
  ASSERT_TRUE(heartbeat_number(det2, "events", events));
  EXPECT_DOUBLE_EQ(events, 3.0);
}

TEST(Heartbeat, LineRoundTripsThroughExtractors) {
  OnlineDetector detector{DetectorOptions{}};
  detector.begin(tiny_meta());
  detector.on_event(crash_event(1, 1, 3, 10.0));
  const std::string line =
      heartbeat_line("tenant-x", ticket_window().begin + from_days(12.0), 4,
                     detector.live_stats(), nullptr, 1.25);

  std::string tenant;
  ASSERT_TRUE(heartbeat_string(line, "tenant", tenant));
  EXPECT_EQ(tenant, "tenant-x");
  double value = 0.0;
  ASSERT_TRUE(heartbeat_number(line, "seq", value));
  EXPECT_DOUBLE_EQ(value, 4.0);

  const std::string_view det = heartbeat_object(line, "det");
  ASSERT_FALSE(det.empty());
  ASSERT_TRUE(heartbeat_number(det, "crash_tickets", value));
  EXPECT_DOUBLE_EQ(value, 1.0);
  const std::string_view queue = heartbeat_object(det, "queue");
  ASSERT_FALSE(queue.empty());
  ASSERT_TRUE(heartbeat_number(queue, "depth", value));
  EXPECT_DOUBLE_EQ(value, 0.0);

  const auto strata = heartbeat_items(heartbeat_array(det, "strata"));
  ASSERT_FALSE(strata.empty());
  std::string name;
  ASSERT_TRUE(heartbeat_string(strata.front(), "name", name));
  EXPECT_EQ(name, "all");
  ASSERT_TRUE(heartbeat_number(strata.front(), "crashes", value));
  EXPECT_DOUBLE_EQ(value, 1.0);

  ASSERT_TRUE(heartbeat_number(heartbeat_object(line, "timing"), "wall_ms",
                               value));
  EXPECT_DOUBLE_EQ(value, 1.25);
  EXPECT_TRUE(heartbeat_object(line, "no_such_key").empty());
  EXPECT_FALSE(heartbeat_number(det, "no_such_key", value));
}

TEST(Heartbeat, DetPrefixStripsOnlyWallClock) {
  OnlineDetector detector{DetectorOptions{}};
  detector.begin(tiny_meta());
  const auto live = detector.live_stats();
  const std::string a = heartbeat_line("t", 100, 0, live, nullptr, 1.0);
  const std::string b = heartbeat_line("t", 100, 0, live, nullptr, 99.5);
  EXPECT_NE(a, b);
  EXPECT_EQ(heartbeat_det_prefix(a), heartbeat_det_prefix(b));
  EXPECT_EQ(a.find(heartbeat_det_prefix(a)), 0u);
}

class ServeHealthTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::set_default_thread_count(0); }

  static std::vector<TenantSpec> specs_with_throttle() {
    std::vector<TenantSpec> specs(3);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].name = "tenant-" + std::to_string(i);
      specs[i].config =
          sim::SimulationConfig::paper_defaults().scaled(0.1);
      specs[i].config.seed = 11 + i;
    }
    specs[1].throttle.service_minutes = 30;
    return specs;
  }
};

TEST_F(ServeHealthTest, BackpressureHitsOnlyThrottledTenants) {
  const auto served = serve_tenants(specs_with_throttle());
  ASSERT_EQ(served.size(), 3u);
  EXPECT_EQ(served[0].backpressure.events, 0u);
  EXPECT_EQ(served[2].backpressure.events, 0u);
  EXPECT_GT(served[1].backpressure.events, 0u);
  EXPECT_GT(served[1].backpressure.delayed, 0u);
  EXPECT_GT(served[1].backpressure.max_queue_depth, 0u);
  // The throttle forwards events unchanged, so detection is unaffected:
  // same seed + config => same report as the unthrottled twin.
  auto twin = specs_with_throttle();
  twin[1].throttle.service_minutes = 0;
  const auto plain = serve_tenants(twin);
  EXPECT_EQ(served[1].report.alert_log(), plain[1].report.alert_log());
  EXPECT_EQ(served[1].report.events, plain[1].report.events);
}

TEST_F(ServeHealthTest, HeartbeatDetSectionsAreThreadCountInvariant) {
  HealthOptions health;
  health.every = from_days(60.0);

  ThreadPool::set_default_thread_count(1);
  const auto serial = serve_tenants(specs_with_throttle(), {}, health);
  ThreadPool::set_default_thread_count(8);
  const auto parallel = serve_tenants(specs_with_throttle(), {}, health);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    ASSERT_FALSE(serial[t].heartbeats.empty());
    ASSERT_EQ(serial[t].heartbeats.size(), parallel[t].heartbeats.size());
    for (std::size_t i = 0; i < serial[t].heartbeats.size(); ++i) {
      const Heartbeat& a = serial[t].heartbeats[i];
      const Heartbeat& b = parallel[t].heartbeats[i];
      EXPECT_EQ(a.at, b.at);
      EXPECT_EQ(a.seq, b.seq);
      EXPECT_EQ(heartbeat_det_prefix(a.line), heartbeat_det_prefix(b.line))
          << serial[t].name << " heartbeat " << i;
    }
  }
  // The throttled tenant's heartbeats carry live queue state.
  const std::string& last = serial[1].heartbeats.back().line;
  const std::string_view queue =
      heartbeat_object(heartbeat_object(last, "det"), "queue");
  double delayed = 0.0;
  ASSERT_TRUE(heartbeat_number(queue, "delayed", delayed));
  EXPECT_GT(delayed, 0.0);
}

}  // namespace
}  // namespace fa::detect

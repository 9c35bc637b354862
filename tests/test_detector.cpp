#include "src/detect/detector.h"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/out_of_core.h"
#include "src/sim/simulator.h"
#include "src/sim/stream.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace fa::detect {
namespace {

// A small hand-built fleet header for driving the detector directly.
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

// Usage rows the emitter actually delivers: a weekly average becomes
// available at the end of its week, and a week ending at (or past) the
// stream end never streams.
struct DeliveredUsage {
  std::uint64_t rows = 0;
  double cpu_sum = 0.0;
  double mem_sum = 0.0;
};

DeliveredUsage delivered_usage(const trace::TraceDatabase& db) {
  DeliveredUsage d;
  const ObservationWindow& w = db.window();
  for (const trace::ServerRecord& s : db.servers()) {
    for (const trace::WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      if (w.begin + static_cast<TimePoint>(u.week + 1) * kMinutesPerWeek >=
          w.end) {
        continue;
      }
      ++d.rows;
      d.cpu_sum += u.cpu_util;
      d.mem_sum += u.mem_util;
    }
  }
  return d;
}

const StratumStats& stratum(const DetectorReport& report,
                            const std::string& name) {
  for (const StratumStats& s : report.strata) {
    if (s.name == name) return s;
  }
  throw Error("missing stratum " + name);
}

TEST(OnlineDetector, ValidatesOptions) {
  DetectorOptions bad;
  bad.window = 0;
  EXPECT_THROW(OnlineDetector{bad}, Error);
  bad = {};
  bad.warmup = bad.tick - 1;
  EXPECT_THROW(OnlineDetector{bad}, Error);
  bad = {};
  bad.cusum_ratio = 1.0;
  EXPECT_THROW(OnlineDetector{bad}, Error);
  bad = {};
  bad.out_of_order = OutOfOrderPolicy::kBuffer;
  bad.reorder_slack = 0;
  EXPECT_THROW(OnlineDetector{bad}, Error);
}

TEST(OnlineDetector, EmptyStreamReportsCleanly) {
  OnlineDetector detector;
  detector.begin(tiny_meta());
  detector.finish(ticket_window().end);
  const DetectorReport& report = detector.report();
  EXPECT_EQ(report.events, 0u);
  EXPECT_EQ(report.crash_tickets, 0u);
  EXPECT_TRUE(report.alerts.empty());
  EXPECT_DOUBLE_EQ(report.recurrence_fraction(), 0.0);
  EXPECT_EQ(stratum(report, "all").crashes, 0u);
  EXPECT_DOUBLE_EQ(stratum(report, "all").cumulative_weekly_rate, 0.0);
  for (const UsageStats& u : report.usage) EXPECT_EQ(u.samples, 0u);
}

TEST(OnlineDetector, SingleEventStream) {
  OnlineDetector detector;
  detector.begin(tiny_meta());
  detector.on_event(crash_event(1, 1, 3, 10.0));
  detector.finish(ticket_window().end);
  const DetectorReport& report = detector.report();
  EXPECT_EQ(report.events, 1u);
  EXPECT_EQ(report.crash_tickets, 1u);
  EXPECT_EQ(stratum(report, "all").crashes, 1u);
  EXPECT_EQ(stratum(report, "sys=Sys_I").crashes, 1u);
  EXPECT_EQ(stratum(report, "type=PM").crashes, 1u);
  EXPECT_EQ(stratum(report, "class=software").crashes, 1u);
  EXPECT_TRUE(report.alerts.empty());
}

TEST(OnlineDetector, RejectPolicyThrowsOnOutOfOrder) {
  OnlineDetector detector;
  detector.begin(tiny_meta());
  detector.on_event(crash_event(1, 1, 0, 10.0));
  EXPECT_THROW(detector.on_event(crash_event(2, 2, 1, 5.0)), Error);
}

TEST(OnlineDetector, DropPolicyCountsLateEvents) {
  DetectorOptions options;
  options.out_of_order = OutOfOrderPolicy::kDrop;
  OnlineDetector detector(options);
  detector.begin(tiny_meta());
  detector.on_event(crash_event(1, 1, 0, 10.0));
  detector.on_event(crash_event(2, 2, 1, 5.0));  // behind the watermark
  detector.finish(ticket_window().end);
  const DetectorReport& report = detector.report();
  EXPECT_EQ(report.late_dropped, 1u);
  EXPECT_EQ(report.crash_tickets, 1u);
}

TEST(OnlineDetector, BufferPolicyMatchesTheInOrderRun) {
  // Feed A in order; feed B swaps neighbours within the slack. The reorder
  // buffer must deliver the same sequence, so the reports must agree.
  std::vector<trace::StreamEvent> ordered;
  for (int i = 0; i < 40; ++i) {
    ordered.push_back(crash_event(i, i, i % 10, 5.0 + 2.0 * i));
  }
  std::vector<trace::StreamEvent> jittered = ordered;
  for (std::size_t i = 0; i + 1 < jittered.size(); i += 2) {
    std::swap(jittered[i], jittered[i + 1]);
  }

  OnlineDetector in_order;
  in_order.begin(tiny_meta());
  for (const auto& e : ordered) in_order.on_event(e);
  in_order.finish(ticket_window().end);

  DetectorOptions buffered_options;
  buffered_options.out_of_order = OutOfOrderPolicy::kBuffer;
  buffered_options.reorder_slack = 3 * kMinutesPerDay;
  OnlineDetector buffered(buffered_options);
  buffered.begin(tiny_meta());
  for (const auto& e : jittered) buffered.on_event(e);
  buffered.finish(ticket_window().end);

  const DetectorReport& a = in_order.report();
  const DetectorReport& b = buffered.report();
  EXPECT_GT(b.reordered_buffered, 0u);
  EXPECT_EQ(b.late_dropped, 0u);
  EXPECT_EQ(a.crash_tickets, b.crash_tickets);
  EXPECT_EQ(a.alert_log(), b.alert_log());
  EXPECT_EQ(stratum(a, "all").crashes, stratum(b, "all").crashes);
  EXPECT_DOUBLE_EQ(stratum(a, "all").mean_window_rate,
                   stratum(b, "all").mean_window_rate);
}

TEST(OnlineDetector, BufferPolicyDropsBeyondTheSlack) {
  DetectorOptions options;
  options.out_of_order = OutOfOrderPolicy::kBuffer;
  options.reorder_slack = kMinutesPerDay;
  OnlineDetector detector(options);
  detector.begin(tiny_meta());
  detector.on_event(crash_event(1, 1, 0, 10.0));
  detector.on_event(crash_event(2, 2, 1, 20.0));  // releases day 10
  detector.on_event(crash_event(3, 3, 2, 9.0));   // behind the watermark
  detector.finish(ticket_window().end);
  const DetectorReport& report = detector.report();
  EXPECT_EQ(report.late_dropped, 1u);
  EXPECT_EQ(report.crash_tickets, 2u);
}

TEST(OnlineDetector, DuplicateTicketIdsDropWithinTheWindow) {
  OnlineDetector detector;
  detector.begin(tiny_meta());
  detector.on_event(crash_event(7, 1, 0, 10.0));
  auto retransmit = crash_event(7, 1, 0, 12.0);  // same id, inside window
  detector.on_event(retransmit);
  // Same id long after the window has passed: a fresh ticket again.
  detector.on_event(crash_event(7, 9, 0, 40.0));
  detector.finish(ticket_window().end);
  const DetectorReport& report = detector.report();
  EXPECT_EQ(report.duplicates_dropped, 1u);
  EXPECT_EQ(report.crash_tickets, 2u);
}

TEST(OnlineDetector, RecurrenceTracksRepeatOffenders) {
  OnlineDetector detector;
  detector.begin(tiny_meta());
  detector.on_event(crash_event(1, 1, 0, 10.0));
  detector.on_event(crash_event(2, 2, 0, 13.0));  // same server, 3 days later
  detector.on_event(crash_event(3, 3, 1, 50.0));
  detector.on_event(crash_event(4, 4, 1, 80.0));  // 30 days: not recurrent
  detector.finish(ticket_window().end);
  const DetectorReport& report = detector.report();
  EXPECT_EQ(report.recurrent_crashes, 1u);
  EXPECT_DOUBLE_EQ(report.recurrence_fraction(), 0.25);
}

TEST(OnlineDetector, CountsStreamedTicketWithoutServer) {
  // finalize() accepts a background ticket that names no server; the
  // emitter delivers it and the detector counts it as a ticket.
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);
  b.add_crash(pm, 5.0, 1.0);
  trace::Ticket orphan;
  orphan.opened = ticket_window().begin + from_days(6.0);
  orphan.closed = orphan.opened + from_hours(1.0);
  orphan.description = "background check";
  b.raw().add_ticket(orphan);
  const auto db = b.finish();
  OnlineDetector detector;
  sim::emit_stream(db, {}, detector);
  const DetectorReport& report = detector.report();
  EXPECT_EQ(report.events, 2u);
  EXPECT_EQ(report.tickets, 2u);
  EXPECT_EQ(report.crash_tickets, 1u);
  EXPECT_EQ(stratum(report, "all").crashes, 1u);
}

TEST(OnlineDetector, StreamsTraceWithTicketBeforeTheWindow) {
  // The watermark starts at the window's begin, so the emitter drops a
  // ticket opened before the window instead of delivering it out of order.
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);
  b.add_crash(pm, -2.0, 1.0);
  b.add_crash(pm, 3.0, 1.0);
  const auto db = b.finish();
  OnlineDetector detector;
  ASSERT_NO_THROW(sim::emit_stream(db, {}, detector));
  const DetectorReport& report = detector.report();
  EXPECT_EQ(report.tickets, 1u);
  EXPECT_EQ(report.crash_tickets, 1u);
}

TEST(OnlineDetector, ChurnStreamMatchesReference) {
  // About 5,000 crash tickets drawn from small pools: ticket ids repeat
  // inside and past the one-week window, incidents lapse and return, and
  // servers recrash at every distance, so the detector's id tables grow,
  // probe around the end of their slot arrays and erase all the time (at
  // this seed: 26 growths, about 6,000 erases, 8 probe runs that wrap). A
  // replica of the documented rules on ordered containers gives the
  // expected counts and the aggregate channel's warmup baseline.
  const DetectorOptions options;
  OnlineDetector detector(options);
  detector.begin(tiny_meta());
  const TimePoint warmup_end = ticket_window().begin + options.warmup;

  std::set<std::int32_t> ids;
  std::deque<std::pair<TimePoint, std::int32_t>> id_queue;
  std::map<std::int32_t, TimePoint> incidents;
  std::deque<std::pair<TimePoint, std::int32_t>> incident_queue;
  std::map<std::int32_t, TimePoint> last_crash;
  std::uint64_t duplicates = 0, crashes = 0, recurrent = 0;
  std::uint64_t warmup_incidents = 0;

  Rng rng(0x5eed0018);
  TimePoint at = ticket_window().begin;
  for (int i = 0; i < 5000; ++i) {
    at += static_cast<Duration>(rng.next_u64() % 41);
    const auto id = static_cast<std::int32_t>(rng.next_u64() % 1200);
    const auto incident = static_cast<std::int32_t>(rng.next_u64() % 2500);
    const auto server = static_cast<std::int32_t>(rng.next_u64() % 1500);
    trace::StreamEvent e = crash_event(id, incident, server, 0.0);
    e.at = at;
    e.ticket.opened = at;
    e.ticket.closed = at + from_hours(2.0);
    detector.on_event(e);

    while (!id_queue.empty() && id_queue.front().first + options.window <= at) {
      ids.erase(id_queue.front().second);
      id_queue.pop_front();
    }
    if (!ids.insert(id).second) {
      ++duplicates;
      continue;
    }
    id_queue.emplace_back(at, id);
    ++crashes;
    const auto [last, first_crash] = last_crash.try_emplace(server, at);
    if (!first_crash) {
      if (at - last->second <= options.recurrence_window) ++recurrent;
      last->second = at;
    }
    while (!incident_queue.empty() &&
           incident_queue.front().first + options.window <= at) {
      const auto [seen_at, lapsed] = incident_queue.front();
      incident_queue.pop_front();
      const auto it = incidents.find(lapsed);
      if (it != incidents.end() && it->second == seen_at) incidents.erase(it);
    }
    const auto [seen, fresh] = incidents.try_emplace(incident, at);
    if (!fresh) seen->second = at;
    incident_queue.emplace_back(at, incident);
    if (fresh && at < warmup_end) ++warmup_incidents;
  }
  ASSERT_GT(at, warmup_end);
  detector.finish(ticket_window().end);

  const DetectorReport& report = detector.report();
  EXPECT_GT(duplicates, 500u);
  EXPECT_GT(recurrent, 500u);
  EXPECT_EQ(report.duplicates_dropped, duplicates);
  EXPECT_EQ(report.crash_tickets, crashes);
  EXPECT_EQ(report.recurrent_crashes, recurrent);
  // The warmup baseline counts each incident at its first crash ticket
  // within recent memory, so it checks the incident table too.
  ASSERT_GE(warmup_incidents, options.min_warmup_events);
  EXPECT_EQ(stratum(report, "all").baseline_per_tick,
            static_cast<double>(warmup_incidents) /
                static_cast<double>(options.warmup / options.tick));
}

// FNV-1a over a report's text, its alert log, and every field of its four
// lag histograms (doubles by bit pattern).
std::uint64_t report_digest(const DetectorReport& report) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  const auto mix_u64 = [&mix](std::uint64_t v) { mix(&v, sizeof v); };
  const auto mix_double = [&mix_u64](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix_u64(bits);
  };
  const std::string text = report.to_string();
  const std::string log = report.alert_log();
  mix(text.data(), text.size());
  mix(log.data(), log.size());
  for (const obs::BucketStats* lag :
       {&report.event_lag, &report.watermark_lag, &report.detection_lag,
        &report.ooo_occupancy}) {
    mix_u64(lag->count);
    mix_double(lag->sum);
    mix_double(lag->min);
    mix_double(lag->max);
    for (std::uint64_t n : lag->buckets) mix_u64(n);
  }
  return h;
}

TEST(OnlineDetector, ReportPinnedOnSimulatedStream) {
  // The golden alert log pins one tenant's alerts only, and to_string()
  // prints 0 for an empty histogram; this digest pins the whole report,
  // lag histograms included, under the strict and the buffering policy.
  // A change to the detector's bookkeeping (its id tables, its lag
  // accounting) must leave both digests as they are.
  sim::StreamScenario scenario;
  scenario.shifts.push_back({ticket_window().begin + from_days(180), 4.0});
  const auto digest = [&scenario](const DetectorOptions& options) {
    OnlineDetector detector(options);
    sim::emit_stream(fa::testing::small_simulated_db(), scenario, detector);
    return report_digest(detector.report());
  };
  EXPECT_EQ(digest(DetectorOptions{}), 0x0100c83735479c16ULL);
  DetectorOptions buffer;
  buffer.out_of_order = OutOfOrderPolicy::kBuffer;
  buffer.reorder_slack = kMinutesPerDay;
  EXPECT_EQ(digest(buffer), 0xebaba8860cf61164ULL);
}

TEST(OnlineDetector, StreamEndingMidWindowViaCutoff) {
  const auto& db = fa::testing::small_simulated_db();
  sim::StreamScenario scenario;
  scenario.cutoff = ticket_window().begin + from_days(120);
  OnlineDetector detector;
  sim::emit_stream(db, scenario, detector);
  const DetectorReport& report = detector.report();
  EXPECT_EQ(report.stream_end, scenario.cutoff);
  EXPECT_GT(report.crash_tickets, 0u);
  // Cumulative rates use the truncated stream duration, so a stationary
  // prefix still lands near the full-stream rate.
  const auto batch = analysis::summarize_database(db);
  const double full_rate =
      static_cast<double>(batch.crash_tickets) /
      (static_cast<double>(batch.servers) * ticket_window().weeks());
  const double cut_rate = stratum(report, "all").cumulative_weekly_rate;
  EXPECT_NEAR(cut_rate, full_rate, 0.35 * full_rate);
}

// ---- statistical equivalence against the batch analysis ----

TEST(OnlineDetectorEquivalence, StationaryRatesMatchBatchSummary) {
  const auto& db = fa::testing::small_simulated_db();
  OnlineDetector detector;
  sim::emit_stream(db, {}, detector);
  const DetectorReport& report = detector.report();
  const auto batch = analysis::summarize_database(db);

  // Event accounting is exact: every ticket and usage row arrives once.
  EXPECT_EQ(report.tickets, db.tickets().size());
  EXPECT_EQ(report.crash_tickets, batch.crash_tickets);
  EXPECT_EQ(report.usage_samples, delivered_usage(db).rows);
  EXPECT_EQ(report.duplicates_dropped, 0u);

  // Stratum crash counts match the batch scope tables exactly.
  EXPECT_EQ(stratum(report, "all").crashes, batch.crash_tickets);
  EXPECT_EQ(stratum(report, "all").servers, batch.servers);
  const std::size_t pm = static_cast<std::size_t>(trace::MachineType::kPhysical);
  const std::size_t vm = static_cast<std::size_t>(trace::MachineType::kVirtual);
  EXPECT_EQ(stratum(report, "type=PM").crashes, batch.by_type[pm].crash_tickets);
  EXPECT_EQ(stratum(report, "type=VM").crashes, batch.by_type[vm].crash_tickets);
  for (int sys = 0; sys < trace::kSubsystemCount; ++sys) {
    std::string name = "sys=";
    for (char c : trace::subsystem_name(static_cast<trace::Subsystem>(sys))) {
      name += c == ' ' ? '_' : c;
    }
    const std::uint64_t expected =
        batch.by_scope[pm][static_cast<std::size_t>(sys)].crash_tickets +
        batch.by_scope[vm][static_cast<std::size_t>(sys)].crash_tickets;
    EXPECT_EQ(stratum(report, name).crashes, expected) << name;
  }

  // Rates: the batch mean weekly rate buckets the window into whole weeks
  // (week_count) while the stream rate uses exact elapsed weeks — compare
  // the common numerator crashes / servers instead of the quotients.
  const auto check_rate = [&](const StratumStats& s, double batch_rate,
                              std::uint64_t servers) {
    if (servers == 0) return;
    const double stream_crashes_per_server =
        s.cumulative_weekly_rate * ticket_window().weeks();
    const double batch_crashes_per_server =
        batch_rate * static_cast<double>(ticket_window().week_count());
    EXPECT_NEAR(stream_crashes_per_server, batch_crashes_per_server,
                1e-9 + 1e-9 * batch_crashes_per_server)
        << s.name;
  };
  check_rate(stratum(report, "type=PM"),
             batch.by_type[pm].mean_weekly_failure_rate, batch.by_type[pm].servers);
  check_rate(stratum(report, "type=VM"),
             batch.by_type[vm].mean_weekly_failure_rate, batch.by_type[vm].servers);

  // On a stationary stream the time-averaged sliding-window rate converges
  // to the cumulative rate (it just weights the year uniformly window by
  // window).
  for (const char* name : {"all", "type=PM", "type=VM"}) {
    const StratumStats& s = stratum(report, name);
    ASSERT_GT(s.crashes, 50u) << name;
    EXPECT_NEAR(s.mean_window_rate, s.cumulative_weekly_rate,
                0.25 * s.cumulative_weekly_rate)
        << name;
  }
}

TEST(OnlineDetectorEquivalence, UsageMeansMatchBatchMeans) {
  const auto& db = fa::testing::small_simulated_db();
  OnlineDetector detector;
  sim::emit_stream(db, {}, detector);
  const DetectorReport& report = detector.report();

  const DeliveredUsage d = delivered_usage(db);
  ASSERT_GT(d.rows, 0u);
  ASSERT_EQ(report.usage.size(), 2u);
  const UsageStats& cpu = report.usage[0];
  const UsageStats& mem = report.usage[1];
  EXPECT_EQ(cpu.samples, d.rows);
  EXPECT_EQ(mem.samples, d.rows);
  const double cpu_mean = d.cpu_sum / static_cast<double>(d.rows);
  const double mem_mean = d.mem_sum / static_cast<double>(d.rows);
  EXPECT_NEAR(cpu.mean, cpu_mean, 1e-6);
  EXPECT_NEAR(mem.mean, mem_mean, 1e-6);
  // The EWMA tracks late-stream tick means; on a stationary replay it ends
  // within a few utilization points of the global mean (fleet composition
  // drifts slowly as machines are created through the year).
  EXPECT_NEAR(cpu.ewma, cpu_mean, 5.0);
  EXPECT_NEAR(mem.ewma, mem_mean, 5.0);
}

TEST(OnlineDetectorEquivalence, AlertLogByteIdenticalAcrossThreadCounts) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.3);
  sim::StreamScenario scenario;
  scenario.shifts.push_back({ticket_window().begin + from_days(180), 4.0});

  const auto run = [&](std::size_t threads) {
    ThreadPool::set_default_thread_count(threads);
    const auto db = sim::simulate(config);
    OnlineDetector detector;
    sim::emit_stream(db, scenario, detector);
    return std::pair{detector.report().alert_log(),
                     detector.report().to_string()};
  };
  const auto [log1, report1] = run(1);
  const auto [log8, report8] = run(8);
  ThreadPool::set_default_thread_count(0);
  EXPECT_FALSE(log1.empty());
  EXPECT_EQ(log1, log8);
  EXPECT_EQ(report1, report8);
}

}  // namespace
}  // namespace fa::detect

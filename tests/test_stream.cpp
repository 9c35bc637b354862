#include "src/sim/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include "src/analysis/out_of_core.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace fa::sim {
namespace {

// Records the full delivery sequence for assertions.
class RecordingSink final : public trace::StreamSink {
 public:
  void begin(const trace::StreamMeta& meta) override {
    EXPECT_FALSE(begun);
    begun = true;
    this->meta = meta;
  }
  void on_event(const trace::StreamEvent& event) override {
    EXPECT_TRUE(begun);
    EXPECT_FALSE(finished);
    events.push_back(event);
  }
  void finish(TimePoint end) override {
    EXPECT_TRUE(begun);
    EXPECT_FALSE(finished);
    finished = true;
    stream_end = end;
  }

  bool begun = false;
  bool finished = false;
  TimePoint stream_end = 0;
  trace::StreamMeta meta;
  std::vector<trace::StreamEvent> events;
};

StreamScenario shift_at_day(double day, double factor) {
  StreamScenario scenario;
  scenario.shifts.push_back({ticket_window().begin + from_days(day), factor});
  return scenario;
}

// ---- the documented delivery order, materialized by brute force ----

trace::MachineType machine_type_of(const trace::TraceDatabase& db,
                                   trace::ServerId id) {
  return id.valid() && static_cast<std::size_t>(id.value) < db.servers().size()
             ? db.server(id).type
             : trace::MachineType{};
}

// `t` as the feed carries it when delivered at `at`: scalars copied, times
// moved to `at` with the repair time kept, text viewed in place.
trace::StreamTicket feed_ticket(const trace::Ticket& t, TimePoint at) {
  trace::StreamTicket f;
  f.id = t.id;
  f.incident = t.incident;
  f.server = t.server;
  f.subsystem = t.subsystem;
  f.is_crash = t.is_crash;
  f.true_class = t.true_class;
  f.opened = at;
  f.closed = at + t.repair_time();
  f.description = t.description;
  f.resolution = t.resolution;
  return f;
}

// Every event with its `at`, stable-sorted by time, tickets before usage,
// ticket id, then server and week; events before the window (a ticket
// opened before it) or at or past the stream end dropped.
std::vector<trace::StreamEvent> oracle_stream(const trace::TraceDatabase& db,
                                              const StreamScenario& scenario) {
  const ObservationWindow& w = db.window();
  std::vector<trace::StreamEvent> events;
  for (const trace::Ticket& t : db.tickets()) {
    trace::StreamEvent e;
    e.kind = trace::StreamEventKind::kTicket;
    e.at = warp_time(scenario, w, t.opened);
    e.machine_type = machine_type_of(db, t.server);
    e.ticket = feed_ticket(t, e.at);
    events.push_back(e);
  }
  for (const trace::ServerRecord& s : db.servers()) {
    for (const trace::WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      trace::StreamEvent e;
      e.kind = trace::StreamEventKind::kUsage;
      e.at = std::clamp(
          w.begin + (TimePoint{u.week} + 1) * kMinutesPerWeek, w.begin, w.end);
      e.machine_type = s.type;
      e.usage = u;
      events.push_back(std::move(e));
    }
  }
  const auto delivery_less = [](const trace::StreamEvent& a,
                                const trace::StreamEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.kind != b.kind) return a.kind < b.kind;  // tickets first
    if (a.kind == trace::StreamEventKind::kTicket) {
      return a.ticket.id < b.ticket.id;
    }
    return std::tie(a.usage.server, a.usage.week) <
           std::tie(b.usage.server, b.usage.week);
  };
  std::stable_sort(events.begin(), events.end(), delivery_less);
  const TimePoint end = scenario.cutoff > 0 ? scenario.cutoff : w.end;
  std::erase_if(events, [&w, end](const trace::StreamEvent& e) {
    return e.at < w.begin || e.at >= end;
  });
  return events;
}

bool same_ticket(const trace::StreamTicket& a, const trace::StreamTicket& b) {
  return std::tie(a.id, a.incident, a.server, a.subsystem, a.is_crash,
                  a.true_class, a.opened, a.closed, a.description,
                  a.resolution) ==
         std::tie(b.id, b.incident, b.server, b.subsystem, b.is_crash,
                  b.true_class, b.opened, b.closed, b.description,
                  b.resolution);
}

bool same_usage(const trace::WeeklyUsage& a, const trace::WeeklyUsage& b) {
  return std::tie(a.server, a.week, a.cpu_util, a.mem_util, a.disk_util,
                  a.net_kbps) == std::tie(b.server, b.week, b.cpu_util,
                                          b.mem_util, b.disk_util, b.net_kbps);
}

bool same_event(const trace::StreamEvent& a, const trace::StreamEvent& b) {
  return a.kind == b.kind && a.at == b.at && a.machine_type == b.machine_type &&
         same_ticket(a.ticket, b.ticket) && same_usage(a.usage, b.usage);
}

std::string render(const trace::StreamEvent& e) {
  std::ostringstream out;
  out << "kind=" << static_cast<int>(e.kind) << " at=" << e.at
      << " type=" << static_cast<int>(e.machine_type)
      << " ticket{id=" << e.ticket.id.value
      << " server=" << e.ticket.server.value
      << " opened=" << e.ticket.opened << " closed=" << e.ticket.closed
      << " '" << e.ticket.description << "'} usage{server="
      << e.usage.server.value << " week=" << e.usage.week
      << " cpu=" << e.usage.cpu_util << "}";
  return out.str();
}

// The scenarios the oracle is checked on: no shift, x4 at day 180, two
// shifts, a cutoff mid-week and a cutoff exactly on a week end.
std::vector<std::pair<std::string, StreamScenario>> oracle_scenarios() {
  const ObservationWindow w = ticket_window();
  std::vector<std::pair<std::string, StreamScenario>> scenarios;
  scenarios.emplace_back("stationary", StreamScenario{});
  scenarios.emplace_back("x4 at day 180", shift_at_day(180, 4.0));
  StreamScenario two = shift_at_day(90, 3.0);
  two.shifts.push_back({w.begin + from_days(250), 0.5});
  scenarios.emplace_back("two shifts", two);
  StreamScenario mid_week = shift_at_day(180, 4.0);
  mid_week.cutoff = w.begin + 30 * kMinutesPerWeek + from_hours(81.5);
  scenarios.emplace_back("cutoff mid-week", mid_week);
  StreamScenario week_end;
  week_end.cutoff = w.begin + 20 * kMinutesPerWeek;
  scenarios.emplace_back("cutoff on a week end", week_end);
  return scenarios;
}

void expect_matches_oracle(const trace::TraceDatabase& db) {
  for (const auto& [name, scenario] : oracle_scenarios()) {
    SCOPED_TRACE(name);
    RecordingSink sink;
    emit_stream(db, scenario, sink);
    const std::vector<trace::StreamEvent> expected =
        oracle_stream(db, scenario);
    ASSERT_EQ(sink.events.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const trace::StreamEvent& e = sink.events[i];
      ASSERT_TRUE(same_event(e, expected[i]))
          << "event " << i << "\n  got:  " << render(e)
          << "\n  want: " << render(expected[i]);
      // Ticket text is viewed in the database's rows, never copied.
      ASSERT_EQ(e.ticket.description.data(),
                expected[i].ticket.description.data());
      ASSERT_EQ(e.ticket.resolution.data(),
                expected[i].ticket.resolution.data());
      // The payload the kind does not select is default-constructed.
      ASSERT_TRUE(e.kind == trace::StreamEventKind::kTicket
                      ? same_usage(e.usage, trace::WeeklyUsage{})
                      : same_ticket(e.ticket, trace::StreamTicket{}))
          << "event " << i << ": " << render(e);
    }
  }
}

// A crash ticket on `server` opened at exactly `opened`.
void add_crash_at(fa::testing::TinyDbBuilder& b, trace::ServerId server,
                  TimePoint opened) {
  trace::Ticket t;
  t.incident = b.new_incident();
  t.server = server;
  t.subsystem = b.raw().server(server).subsystem;
  t.is_crash = true;
  t.opened = opened;
  t.closed = opened + from_hours(1.0);
  t.description = "edge of the stream";
  b.raw().add_ticket(t);
}

// A hand-built trace full of ties: tickets sharing a minute, a ticket on a
// week-end instant (and on the week-end cutoff), tickets on the first
// minute of the window and on the last minute of each scenario's stream,
// many servers' rows in one week, rows before and after the window, a
// server without usage rows, a ticket before the window (dropped) and a
// background ticket without a server; rows and tickets are added out of
// delivery order.
trace::TraceDatabase tie_heavy_db() {
  fa::testing::TinyDbBuilder b;
  const ObservationWindow w = ticket_window();
  std::vector<trace::ServerId> servers;
  trace::ServerId silent;
  for (int i = 0; i < 6; ++i) {
    servers.push_back(b.add_vm(static_cast<trace::Subsystem>(i % 5)));
    if (i == 3) silent = b.add_pm(1);  // reports no usage
    servers.push_back(b.add_pm(static_cast<trace::Subsystem>(i % 5)));
  }
  b.add_crash(servers[3], 200.25, 4.0);
  b.add_crash(servers[1], 10.5, 2.0);
  b.add_crash(servers[0], 10.5, 3.0);   // same minute as the one above
  b.add_background(servers[2], 10.5);   // and a third
  b.add_crash(servers[4], 35.0, 1.0);   // end of week 4, when its rows land
  b.add_crash(servers[5], 140.0, 1.0);  // on the week-end cutoff (week 20)
  b.add_crash(servers[6], -2.0, 1.0);   // before the window (dropped)
  b.add_background(servers[7], 364.9);
  add_crash_at(b, silent, w.end - 1);   // last minute of the full stream
  add_crash_at(b, servers[8], w.begin + 20 * kMinutesPerWeek - 1);
  add_crash_at(b, silent,               // last minute before the mid-week cut
               w.begin + 30 * kMinutesPerWeek + from_hours(81.5) - 1);
  add_crash_at(b, servers[9], w.begin);  // first minute of the window
  add_crash_at(b, servers[2], w.begin);  // and a tie there
  trace::Ticket orphan;
  orphan.opened = ticket_window().begin + from_days(35.0);
  orphan.closed = orphan.opened + from_hours(5.0);
  orphan.description = "background check without a server";
  b.raw().add_ticket(orphan);
  for (std::size_t s = servers.size(); s-- > 0;) {
    for (int week = 55; week >= -3; --week) {
      trace::WeeklyUsage u;
      u.server = servers[s];
      u.week = week;
      u.cpu_util = static_cast<double>(s) + 0.01 * week;
      u.mem_util = 50.0;
      b.raw().add_weekly_usage(u);
    }
  }
  return b.finish();
}

TEST(EmitStream, DeliveryOrderMatchesOracleOnSimulatedTrace) {
  expect_matches_oracle(fa::testing::small_simulated_db());
}

TEST(EmitStream, DeliveryOrderMatchesOracleOnTieHeavyTrace) {
  expect_matches_oracle(tie_heavy_db());
}

TEST(EmitStream, DeliveryOrderMatchesOracleOnAWindowPast2To22Minutes) {
  // Nine years of tickets: delivery offsets above 2^22 minutes need a third
  // 11-bit radix digit. Rows are added so that the order of the low 22
  // bits alone disagrees with the true order.
  fa::testing::TinyDbBuilder b;
  const ObservationWindow year = ticket_window();
  const ObservationWindow nine_years{year.begin,
                                     year.begin + from_days(9 * 365.0)};
  ASSERT_GT(nine_years.length(), Duration{1} << 22);
  b.raw().set_windows(nine_years,
                      {monitoring_window().begin, nine_years.end},
                      onoff_window());
  const trace::ServerId pm = b.add_pm(0);
  const trace::ServerId vm = b.add_vm(2);
  const TimePoint past = year.begin + (Duration{1} << 22);
  add_crash_at(b, pm, past + 10);
  add_crash_at(b, vm, year.begin + 20);
  add_crash_at(b, vm, past + 10);  // ties with the first
  add_crash_at(b, pm, year.begin + 10);
  add_crash_at(b, pm, nine_years.end - 1);
  add_crash_at(b, vm, past - 1);
  for (double day = 3000.0; day > 0.0; day -= 97.25) {
    b.add_crash(day < 1500.0 ? pm : vm, day, 2.0);
  }
  for (const trace::ServerId s : {pm, vm}) {
    for (int week = 0; week < 9 * 53; week += 5) {
      trace::WeeklyUsage u;
      u.server = s;
      u.week = week;
      u.cpu_util = 0.1 * week;
      b.raw().add_weekly_usage(u);
    }
  }
  expect_matches_oracle(b.finish());
}

TEST(StreamScenario, ChangePointsSkipNoOpShifts) {
  const ObservationWindow w = ticket_window();
  StreamScenario scenario;
  scenario.shifts.push_back({w.begin + from_days(30), 1.0});   // no-op
  scenario.shifts.push_back({w.begin + from_days(90), 4.0});   // change
  scenario.shifts.push_back({w.begin + from_days(180), 4.0});  // no-op
  scenario.shifts.push_back({w.begin + from_days(270), 1.0});  // change back
  const auto points = scenario.change_points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0], w.begin + from_days(90));
  EXPECT_EQ(points[1], w.begin + from_days(270));
}

TEST(WarpTime, IdentityWithoutShiftsOrOutsideWindow) {
  const ObservationWindow w = ticket_window();
  const StreamScenario stationary;
  EXPECT_EQ(warp_time(stationary, w, w.begin + from_days(100)),
            w.begin + from_days(100));
  const StreamScenario shifted = shift_at_day(180, 4.0);
  EXPECT_EQ(warp_time(shifted, w, w.begin - 1), w.begin - 1);
  EXPECT_EQ(warp_time(shifted, w, w.end + 5), w.end + 5);
}

TEST(WarpTime, MonotoneAndMeasurePreserving) {
  const ObservationWindow w = ticket_window();
  const StreamScenario scenario = shift_at_day(180, 4.0);
  // Intensity 1 on the first 180 days, 4 on the remaining 185: total mass
  // 180 + 4*185 = 920 "unit days". The warped image of original fraction u
  // is where the normalized intensity integral reaches u, so the original
  // point at u = 180/920 lands exactly on the shift instant.
  const double u_break = 180.0 / 920.0;
  const TimePoint t_break =
      w.begin + static_cast<TimePoint>(u_break * static_cast<double>(w.length()));
  const TimePoint shift_at = w.begin + from_days(180);
  EXPECT_NEAR(static_cast<double>(warp_time(scenario, w, t_break)),
              static_cast<double>(shift_at), static_cast<double>(from_days(1)));

  TimePoint prev = w.begin;
  for (int day = 0; day <= 364; ++day) {
    const TimePoint t = warp_time(scenario, w, w.begin + from_days(day));
    EXPECT_GE(t, prev);
    EXPECT_GE(t, w.begin);
    EXPECT_LT(t, w.end);
    prev = t;
  }
}

TEST(EmitStream, OrderedCompleteAndMetaPopulated) {
  const auto& db = fa::testing::small_simulated_db();
  RecordingSink sink;
  emit_stream(db, {}, sink);

  EXPECT_TRUE(sink.finished);
  EXPECT_EQ(sink.stream_end, db.window().end);
  EXPECT_EQ(sink.meta.server_count, db.servers().size());
  std::size_t type_total = 0, sys_total = 0;
  for (std::size_t n : sink.meta.servers_by_type) type_total += n;
  for (std::size_t n : sink.meta.servers_by_subsystem) sys_total += n;
  EXPECT_EQ(type_total, db.servers().size());
  EXPECT_EQ(sys_total, db.servers().size());

  std::size_t tickets = 0, usage = 0;
  TimePoint prev = sink.meta.window.begin;
  for (const trace::StreamEvent& e : sink.events) {
    EXPECT_GE(e.at, prev) << "stream must be timestamp-ordered";
    prev = e.at;
    if (e.kind == trace::StreamEventKind::kTicket) {
      ++tickets;
    } else {
      ++usage;
    }
  }
  EXPECT_EQ(tickets, db.tickets().size());
  // A weekly average becomes available at the end of its week; a week that
  // ends at (or past) the stream end is never delivered, everything earlier
  // arrives exactly once.
  const ObservationWindow& w = db.window();
  std::size_t available = 0;
  for (const trace::ServerRecord& s : db.servers()) {
    for (const trace::WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      if (w.begin + static_cast<TimePoint>(u.week + 1) * kMinutesPerWeek <
          w.end) {
        ++available;
      }
    }
  }
  EXPECT_EQ(usage, available);
}

TEST(EmitStream, StationaryReplayPreservesTimestamps) {
  const auto& db = fa::testing::small_simulated_db();
  RecordingSink sink;
  emit_stream(db, {}, sink);
  // Without a warp every ticket keeps its database opening time.
  std::map<std::int32_t, TimePoint> opened;
  for (const trace::Ticket& t : db.tickets()) opened[t.id.value] = t.opened;
  for (const trace::StreamEvent& e : sink.events) {
    if (e.kind != trace::StreamEventKind::kTicket) continue;
    EXPECT_EQ(e.at, opened.at(e.ticket.id.value));
  }
}

TEST(EmitStream, WarpShiftsRatesByTheScriptedFactor) {
  // A hand-built trace with exactly one crash per day: uniform unit
  // intensity, so the warped rate ratio is the scripted factor alone (the
  // simulated fleet has its own growth trend that would confound this).
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);
  for (int day = 0; day < 365; ++day) {
    b.add_crash(pm, day + 0.5, 1.0);
  }
  const auto db = b.finish();
  const StreamScenario scenario = shift_at_day(180, 4.0);
  RecordingSink sink;
  emit_stream(db, scenario, sink);

  const TimePoint shift_at = scenario.shifts[0].at;
  std::size_t tickets = 0, pre = 0, post = 0;
  for (const trace::StreamEvent& e : sink.events) {
    if (e.kind != trace::StreamEventKind::kTicket) continue;
    ++tickets;
    (e.at < shift_at ? pre : post)++;
  }
  // Measure-preserving: the warp moves events around, it never adds or
  // drops any.
  EXPECT_EQ(tickets, 365u);
  // Intensity 1 for 180 days then 4 for 185: mass 920 unit-days, so the
  // pre-shift segment holds 180/920 of the events (71-72 of 365) spread
  // over 180 days while the rest pack into 185 days — a x4 rate step.
  EXPECT_NEAR(static_cast<double>(pre), 365.0 * 180.0 / 920.0, 2.0);
  const double pre_rate = static_cast<double>(pre) / 180.0;
  const double post_rate = static_cast<double>(post) / 185.0;
  EXPECT_NEAR(post_rate / pre_rate, 4.0, 0.25);
}

TEST(EmitStream, WarpMatchesWarpTimePerTicket) {
  const auto& db = fa::testing::small_simulated_db();
  const StreamScenario scenario = shift_at_day(180, 4.0);
  std::map<std::int32_t, TimePoint> opened;
  for (const trace::Ticket& t : db.tickets()) opened[t.id.value] = t.opened;
  RecordingSink sink;
  emit_stream(db, scenario, sink);
  std::size_t tickets = 0;
  for (const trace::StreamEvent& e : sink.events) {
    if (e.kind != trace::StreamEventKind::kTicket) continue;
    ++tickets;
    ASSERT_EQ(e.at,
              warp_time(scenario, db.window(), opened.at(e.ticket.id.value)));
  }
  EXPECT_EQ(tickets, db.tickets().size());
}

TEST(EmitStream, RepairDurationsRideAlongTheWarp) {
  const auto& db = fa::testing::small_simulated_db();
  std::map<std::int32_t, Duration> repair;
  for (const trace::Ticket& t : db.tickets()) {
    repair[t.id.value] = t.repair_time();
  }
  RecordingSink sink;
  emit_stream(db, shift_at_day(180, 4.0), sink);
  for (const trace::StreamEvent& e : sink.events) {
    if (e.kind != trace::StreamEventKind::kTicket) continue;
    EXPECT_EQ(e.ticket.opened, e.at);
    EXPECT_EQ(e.ticket.repair_time(), repair.at(e.ticket.id.value));
  }
}

TEST(EmitStream, CutoffEndsTheStreamEarly) {
  const auto& db = fa::testing::small_simulated_db();
  StreamScenario scenario;
  scenario.cutoff = ticket_window().begin + from_days(100);
  RecordingSink sink;
  emit_stream(db, scenario, sink);
  EXPECT_EQ(sink.stream_end, scenario.cutoff);
  EXPECT_FALSE(sink.events.empty());
  for (const trace::StreamEvent& e : sink.events) {
    EXPECT_LT(e.at, scenario.cutoff);
  }
}

TEST(EmitStream, RejectsInvalidScenarios) {
  const auto& db = fa::testing::small_simulated_db();
  RecordingSink sink;
  StreamScenario outside;
  outside.shifts.push_back({ticket_window().end + 1, 2.0});
  EXPECT_THROW(emit_stream(db, outside, sink), Error);
  StreamScenario negative = shift_at_day(100, -1.0);
  EXPECT_THROW(emit_stream(db, negative, sink), Error);
  StreamScenario unsorted;
  unsorted.shifts.push_back({ticket_window().begin + from_days(200), 2.0});
  unsorted.shifts.push_back({ticket_window().begin + from_days(100), 3.0});
  EXPECT_THROW(emit_stream(db, unsorted, sink), Error);
  StreamScenario bad_cutoff;
  bad_cutoff.cutoff = ticket_window().end + from_days(1);
  EXPECT_THROW(emit_stream(db, bad_cutoff, sink), Error);
}

}  // namespace
}  // namespace fa::sim

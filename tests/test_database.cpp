#include "src/trace/database.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/util/error.h"
#include "tests/test_support.h"

namespace fa::trace {
namespace {

TEST(Database, AssignsContiguousIds) {
  fa::testing::TinyDbBuilder b;
  const ServerId s0 = b.add_pm(0);
  const ServerId s1 = b.add_vm(1);
  EXPECT_EQ(s0.value, 0);
  EXPECT_EQ(s1.value, 1);
}

TEST(Database, QueriesBeforeFinalizeThrow) {
  TraceDatabase db;
  db.add_server(ServerRecord{});
  EXPECT_THROW(db.crash_tickets(), Error);
  EXPECT_THROW(db.weekly_usage_for(ServerId{0}), Error);
}

TEST(Database, MutationAfterFinalizeThrows) {
  TraceDatabase db;
  db.add_server(ServerRecord{});
  db.finalize();
  EXPECT_THROW(db.add_server(ServerRecord{}), Error);
  EXPECT_THROW(db.finalize(), Error);
}

TEST(Database, FinalizeValidatesReferentialIntegrity) {
  TraceDatabase db;
  Ticket t;
  t.is_crash = true;
  t.server = ServerId{42};  // no such server
  t.incident = db.new_incident();
  t.closed = t.opened + 10;
  db.add_ticket(std::move(t));
  EXPECT_THROW(db.finalize(), Error);
}

TEST(Database, FinalizeRejectsNegativeRepair) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_pm(0);
  Ticket t;
  t.is_crash = true;
  t.server = s;
  t.incident = b.raw().new_incident();
  t.opened = 100;
  t.closed = 50;
  b.raw().add_ticket(std::move(t));
  EXPECT_THROW(b.raw().finalize(), Error);
}

TEST(Database, CrashTicketFiltersAndIndex) {
  fa::testing::TinyDbBuilder b;
  const ServerId pm = b.add_pm(0);
  const ServerId vm = b.add_vm(0);
  b.add_crash(pm, 1.0, 2.0);
  b.add_crash(pm, 5.0, 2.0);
  b.add_crash(vm, 7.0, 1.0);
  b.add_background(pm, 2.0);
  const auto db = b.finish();

  EXPECT_EQ(db.tickets().size(), 4u);
  EXPECT_EQ(db.crash_tickets().size(), 3u);
  EXPECT_EQ(db.crash_tickets_for(pm).size(), 2u);
  EXPECT_EQ(db.crash_tickets_for(vm).size(), 1u);
  EXPECT_TRUE(db.crash_tickets_for(ServerId{99}).empty());
}

TEST(Database, ServerCountsByTypeAndSubsystem) {
  fa::testing::TinyDbBuilder b;
  b.add_pm(0);
  b.add_pm(0);
  b.add_pm(1);
  b.add_vm(0);
  const auto db = b.finish();
  EXPECT_EQ(db.server_count(MachineType::kPhysical), 3u);
  EXPECT_EQ(db.server_count(MachineType::kVirtual), 1u);
  EXPECT_EQ(db.server_count(MachineType::kPhysical, 0), 2u);
  EXPECT_EQ(db.servers_of(MachineType::kPhysical, 1).size(), 1u);
}

TEST(Database, IncidentsGroupTickets) {
  fa::testing::TinyDbBuilder b;
  const ServerId s1 = b.add_pm(0);
  const ServerId s2 = b.add_pm(0);
  const auto shared = b.new_incident();
  b.add_crash(s1, 1.0, 2.0, FailureClass::kPower, shared);
  b.add_crash(s2, 1.0, 2.0, FailureClass::kPower, shared);
  b.add_crash(s1, 9.0, 2.0);
  const auto db = b.finish();
  const auto incidents = db.incidents();
  ASSERT_EQ(incidents.size(), 2u);
  const std::size_t sizes[2] = {incidents[0].size(), incidents[1].size()};
  EXPECT_EQ(sizes[0] + sizes[1], 3u);
}

TEST(Database, WeeklyUsageSortedSpan) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_pm(0);
  b.raw().add_weekly_usage({s, 2, 30.0, 40.0, {}, {}});
  b.raw().add_weekly_usage({s, 0, 10.0, 20.0, {}, {}});
  const auto db = b.finish();
  const auto usage = db.weekly_usage_for(s);
  ASSERT_EQ(usage.size(), 2u);
  EXPECT_EQ(usage[0].week, 0);
  EXPECT_EQ(usage[1].week, 2);
  EXPECT_TRUE(db.weekly_usage_for(ServerId{5}).empty());
}

TEST(Database, PowerSeriesReconstructsState) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_vm(0);
  const auto window = onoff_window();
  // Off for the second hour of the window.
  b.raw().add_power_event({s, window.begin + 60, false});
  b.raw().add_power_event({s, window.begin + 120, true});
  const auto db = b.finish();
  const ObservationWindow probe{window.begin, window.begin + 240};
  const auto series = db.power_series_for(s, probe);
  ASSERT_EQ(series.size(), 16u);  // 240 min / 15 min
  EXPECT_TRUE(series[0]);         // on before the off event
  EXPECT_FALSE(series[5]);        // 75 min: off
  EXPECT_TRUE(series[8]);         // 120 min: back on
  EXPECT_TRUE(series[15]);
}

TEST(Database, PowerSeriesDefaultsToOn) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_vm(0);
  const auto db = b.finish();
  const auto window = onoff_window();
  const auto series = db.power_series_for(s, window);
  for (bool on : series) EXPECT_TRUE(on);
}

TEST(Database, ConsolidationAtUsesMonthlySnapshot) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_vm(0);
  b.raw().add_monthly_snapshot({s, 0, BoxId{0}, 8});
  b.raw().add_monthly_snapshot({s, 1, BoxId{0}, 16});
  const auto db = b.finish();
  const TimePoint in_month0 = db.window().begin + from_days(10.0);
  const TimePoint in_month1 = db.window().begin + from_days(40.0);
  EXPECT_EQ(db.consolidation_at(s, in_month0), 8);
  EXPECT_EQ(db.consolidation_at(s, in_month1), 16);
  const TimePoint in_month2 = db.window().begin + from_days(70.0);
  EXPECT_EQ(db.consolidation_at(s, in_month2), 0);  // no snapshot
}

// ---- finalize() and the per-server indexes ----

// finalize()'s Error message, or "" when it does not throw.
std::string finalize_error(TraceDatabase& db) {
  try {
    db.finalize();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Database, FinalizeSortsMonitoringRowsByServerAndKey) {
  fa::testing::TinyDbBuilder b;
  const ServerId s0 = b.add_vm(0);
  const ServerId s1 = b.add_vm(1);
  TraceDatabase& raw = b.raw();
  raw.add_weekly_usage({s1, 3, 1.0, 1.0, {}, {}});
  raw.add_weekly_usage({s0, 2, 2.0, 2.0, {}, {}});
  raw.add_weekly_usage({s1, 0, 3.0, 3.0, {}, {}});
  raw.add_weekly_usage({s0, 1, 4.0, 4.0, {}, {}});
  const TimePoint t0 = onoff_window().begin;
  raw.add_power_event({s1, t0 + 30, true});
  raw.add_power_event({s0, t0 + 45, true});
  raw.add_power_event({s1, t0 + 15, false});
  raw.add_power_event({s0, t0 + 5, false});
  raw.add_monthly_snapshot({s1, 4, BoxId{0}, 2});
  raw.add_monthly_snapshot({s0, 7, BoxId{0}, 3});
  raw.add_monthly_snapshot({s1, 1, BoxId{0}, 4});
  const auto db = b.finish();

  ASSERT_EQ(db.weekly_usage().size(), 4u);
  const std::pair<ServerId, int> usage_order[] = {
      {s0, 1}, {s0, 2}, {s1, 0}, {s1, 3}};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(db.weekly_usage()[i].server, usage_order[i].first) << i;
    EXPECT_EQ(db.weekly_usage()[i].week, usage_order[i].second) << i;
  }
  const auto u0 = db.weekly_usage_for(s0);
  ASSERT_EQ(u0.size(), 2u);
  EXPECT_EQ(u0[0].cpu_util, 4.0);
  EXPECT_EQ(u0[1].cpu_util, 2.0);

  const auto p0 = db.power_events_for(s0);
  const auto p1 = db.power_events_for(s1);
  ASSERT_EQ(p0.size(), 2u);
  ASSERT_EQ(p1.size(), 2u);
  EXPECT_EQ(p0[0].at, t0 + 5);
  EXPECT_EQ(p0[1].at, t0 + 45);
  EXPECT_EQ(p1[0].at, t0 + 15);
  EXPECT_FALSE(p1[0].powered_on);
  EXPECT_EQ(p1[1].at, t0 + 30);

  const auto m0 = db.snapshots_for(s0);
  const auto m1 = db.snapshots_for(s1);
  ASSERT_EQ(m0.size(), 1u);
  ASSERT_EQ(m1.size(), 2u);
  EXPECT_EQ(m0[0].consolidation, 3);
  EXPECT_EQ(m1[0].month, 1);
  EXPECT_EQ(m1[0].consolidation, 4);
  EXPECT_EQ(m1[1].month, 4);
}

TEST(Database, FinalizeNamesTheTableOfADanglingServerId) {
  const std::string prefix = "TraceDatabase::finalize: dangling server id in ";
  // One valid server; -1 and 1 name none.
  for (const ServerId bad : {ServerId{-1}, ServerId{1}}) {
    {
      fa::testing::TinyDbBuilder b;
      b.add_vm(0);
      b.raw().add_weekly_usage({bad, 0, 1.0, 1.0, {}, {}});
      EXPECT_EQ(finalize_error(b.raw()), prefix + "usage");
    }
    {
      fa::testing::TinyDbBuilder b;
      b.add_vm(0);
      b.raw().add_power_event({bad, onoff_window().begin, false});
      EXPECT_EQ(finalize_error(b.raw()), prefix + "power");
    }
    {
      fa::testing::TinyDbBuilder b;
      b.add_vm(0);
      b.raw().add_monthly_snapshot({bad, 0, BoxId{0}, 2});
      EXPECT_EQ(finalize_error(b.raw()), prefix + "snapshot");
    }
    {
      fa::testing::TinyDbBuilder b;
      b.add_vm(0);
      Ticket t;
      t.is_crash = true;
      t.server = bad;
      t.incident = b.new_incident();
      b.raw().add_ticket(std::move(t));
      EXPECT_EQ(finalize_error(b.raw()), prefix + "ticket");
    }
  }
}

TEST(Database, IndexQueriesAreEmptyForServersWithoutRows) {
  fa::testing::TinyDbBuilder b;
  const ServerId busy = b.add_vm(0);
  const ServerId idle = b.add_vm(0);
  b.add_crash(busy, 1.0, 1.0);
  b.raw().add_weekly_usage({busy, 0, 1.0, 1.0, {}, {}});
  b.raw().add_power_event({busy, onoff_window().begin, false});
  b.raw().add_monthly_snapshot({busy, 0, BoxId{0}, 2});
  const auto db = b.finish();

  EXPECT_EQ(db.weekly_usage_for(busy).size(), 1u);
  EXPECT_EQ(db.power_events_for(busy).size(), 1u);
  EXPECT_EQ(db.snapshots_for(busy).size(), 1u);
  EXPECT_EQ(db.crash_tickets_for(busy).size(), 1u);
  // An invalid id, the first id past the fleet, one far past it, and a
  // server without rows.
  for (const ServerId id :
       {ServerId{}, ServerId{2}, ServerId{1000}, idle}) {
    EXPECT_TRUE(db.weekly_usage_for(id).empty()) << id.value;
    EXPECT_TRUE(db.power_events_for(id).empty()) << id.value;
    EXPECT_TRUE(db.snapshots_for(id).empty()) << id.value;
    EXPECT_TRUE(db.crash_tickets_for(id).empty()) << id.value;
  }
}

TEST(Database, CrashTicketsForKeepsTicketOrder) {
  fa::testing::TinyDbBuilder b;
  const ServerId s0 = b.add_pm(0);
  const ServerId s1 = b.add_pm(0);
  // Ticket order differs from time order, and the two servers interleave.
  const TicketId a = b.add_crash(s0, 9.0, 1.0);
  b.add_crash(s1, 4.0, 1.0);
  b.add_background(s0, 2.0);
  const TicketId c = b.add_crash(s0, 1.0, 1.0);
  b.add_crash(s1, 8.0, 1.0);
  const TicketId e = b.add_crash(s0, 5.0, 1.0);
  const auto db = b.finish();

  const auto crashes = db.crash_tickets_for(s0);
  ASSERT_EQ(crashes.size(), 3u);
  EXPECT_EQ(crashes[0]->id, a);
  EXPECT_EQ(crashes[1]->id, c);
  EXPECT_EQ(crashes[2]->id, e);
  EXPECT_EQ(db.crash_tickets_for(s1).size(), 2u);
}

TEST(Database, SnapshotConsolidationValidation) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_vm(0);
  b.raw().add_monthly_snapshot({s, 0, BoxId{0}, 0});  // invalid level
  EXPECT_THROW(b.raw().finalize(), Error);
}

}  // namespace
}  // namespace fa::trace

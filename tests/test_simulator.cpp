// End-to-end simulator integration tests: the scaled-down trace must already
// exhibit the paper's headline phenomena.
#include <cstddef>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/analysis/failure_rates.h"
#include "src/analysis/recurrence.h"
#include "src/sim/simulator.h"
#include "tests/test_support.h"

namespace fa::sim {
namespace {

const trace::TraceDatabase& db() { return fa::testing::small_simulated_db(); }

std::vector<const trace::Ticket*> crashes() {
  return db().crash_tickets();
}

TEST(Simulator, PopulationMatchesScaledTable2) {
  const auto config = SimulationConfig::paper_defaults().scaled(0.15);
  std::size_t pms = 0, vms = 0;
  for (const auto& sys : config.systems) {
    pms += static_cast<std::size_t>(sys.pm_count);
    vms += static_cast<std::size_t>(sys.vm_count);
  }
  EXPECT_EQ(db().server_count(trace::MachineType::kPhysical), pms);
  EXPECT_EQ(db().server_count(trace::MachineType::kVirtual), vms);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto config = SimulationConfig::paper_defaults().scaled(0.05);
  const auto a = simulate(config);
  const auto b = simulate(config);
  ASSERT_EQ(a.tickets().size(), b.tickets().size());
  for (std::size_t i = 0; i < a.tickets().size(); ++i) {
    EXPECT_EQ(a.tickets()[i].opened, b.tickets()[i].opened);
    EXPECT_EQ(a.tickets()[i].server, b.tickets()[i].server);
    EXPECT_EQ(a.tickets()[i].description, b.tickets()[i].description);
  }
}

TEST(Simulator, SeedChangesTrace) {
  auto config = SimulationConfig::paper_defaults().scaled(0.05);
  const auto a = simulate(config);
  config.seed += 1;
  const auto b = simulate(config);
  // Ticket volumes are calibrated (equal), but content must differ.
  ASSERT_EQ(a.tickets().size(), b.tickets().size());
  int differing = 0;
  for (std::size_t i = 0; i < a.tickets().size(); ++i) {
    differing += a.tickets()[i].opened != b.tickets()[i].opened;
  }
  EXPECT_GT(differing, static_cast<int>(a.tickets().size() / 2));
}

TEST(Simulator, PmFailureRateExceedsVmRate) {
  const auto failures = crashes();
  const auto pm = analysis::failure_rate_summary(
      db(), failures, {trace::MachineType::kPhysical, std::nullopt},
      analysis::Granularity::kWeekly);
  const auto vm = analysis::failure_rate_summary(
      db(), failures, {trace::MachineType::kVirtual, std::nullopt},
      analysis::Granularity::kWeekly);
  EXPECT_GT(pm.mean, vm.mean);
  // Paper: roughly 40% higher (we accept a broad band at small scale).
  EXPECT_LT(pm.mean, 4.0 * vm.mean);
}

TEST(Simulator, RecurrenceDominatesRandomFailures) {
  const auto failures = crashes();
  for (int t = 0; t < trace::kMachineTypeCount; ++t) {
    const analysis::Scope scope{static_cast<trace::MachineType>(t),
                                std::nullopt};
    const double ratio = analysis::recurrence_ratio(db(), failures, scope);
    EXPECT_GT(ratio, 10.0) << "type " << t;
    EXPECT_LT(ratio, 200.0) << "type " << t;
  }
}

TEST(Simulator, RecurrentProbabilityGrowsWithWindowSublinearly) {
  const auto failures = crashes();
  const analysis::Scope scope{trace::MachineType::kPhysical, std::nullopt};
  const double day = analysis::recurrent_probability(db(), failures, scope,
                                                     kMinutesPerDay);
  const double week = analysis::recurrent_probability(db(), failures, scope,
                                                      kMinutesPerWeek);
  const double month = analysis::recurrent_probability(db(), failures, scope,
                                                       kMinutesPerMonth);
  EXPECT_LT(day, week);
  EXPECT_LT(week, month);
  // Sub-linear growth: weekly is far less than 7x daily (Section IV-D).
  EXPECT_LT(week, 4.0 * day);
}

TEST(Simulator, CrashTicketsAreMinorityOfAllTickets) {
  std::size_t crash = 0;
  for (const trace::Ticket& t : db().tickets()) crash += t.is_crash;
  const double share = static_cast<double>(crash) / db().tickets().size();
  EXPECT_GT(share, 0.005);
  EXPECT_LT(share, 0.10);  // Table II: 0.85% - 6.9% per system
}

TEST(Simulator, FinalizedAndQueryable) {
  EXPECT_TRUE(db().finalized());
  EXPECT_FALSE(db().incidents().empty());
}

std::size_t total(const trace::ExpectedRows& r) {
  return r.servers + r.tickets + r.weekly_usage + r.power_events +
         r.snapshots;
}

// Keeps the row counts simulate_to announces and counts the rows it then
// emits, table by table.
class RecordingWriter final : public trace::TraceWriter {
 public:
  void expect_rows(const trace::ExpectedRows& rows) override {
    ++announcements;
    rows_before_announcement = total(received);
    announced = rows;
  }
  void set_windows(ObservationWindow, ObservationWindow,
                   ObservationWindow) override {}
  void finish() override {}

  int announcements = 0;
  std::size_t rows_before_announcement = 0;
  trace::ExpectedRows announced;
  trace::ExpectedRows received;

 protected:
  void do_add_server(const trace::ServerRecord&) override {
    ++received.servers;
  }
  void do_add_ticket(trace::Ticket) override { ++received.tickets; }
  void do_add_weekly_usage(const trace::WeeklyUsage&) override {
    ++received.weekly_usage;
  }
  void do_add_power_event(const trace::PowerEvent&) override {
    ++received.power_events;
  }
  void do_add_monthly_snapshot(const trace::MonthlySnapshot&) override {
    ++received.snapshots;
  }
};

TEST(Simulator, AnnouncedRowCountsMatchEmittedRows) {
  for (const double scale : {0.02, 0.1}) {
    for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7}}) {
      SCOPED_TRACE("scale " + std::to_string(scale) + " seed " +
                   std::to_string(seed));
      auto config = SimulationConfig::paper_defaults().scaled(scale);
      config.seed = seed;
      RecordingWriter writer;
      simulate_to(config, writer);
      ASSERT_EQ(writer.announcements, 1);
      EXPECT_EQ(writer.rows_before_announcement, 0u);
      const trace::ExpectedRows& a = writer.announced;
      const trace::ExpectedRows& r = writer.received;
      EXPECT_EQ(a.servers, r.servers);
      EXPECT_EQ(a.weekly_usage, r.weekly_usage);
      EXPECT_EQ(a.snapshots, r.snapshots);
      EXPECT_GT(r.weekly_usage, 0u);
      EXPECT_GT(r.snapshots, 0u);
      // Tickets are announced as the Table II budget. Background tickets
      // fill each subsystem up to it, so only crash tickets overrunning a
      // subsystem's budget could exceed it; at these configs none do.
      EXPECT_EQ(r.tickets, a.tickets);
      // Power events are Poisson draws and stay unannounced.
      EXPECT_EQ(a.power_events, 0u);
    }
  }
}

// simulate() reserves the announced tables once, so none of them carries
// the slack a growing vector leaves.
TEST(Simulator, SimulateSizesItsTablesOnce) {
  const auto db = simulate(SimulationConfig::paper_defaults().scaled(0.1));
  EXPECT_EQ(db.servers().capacity(), db.servers().size());
  EXPECT_EQ(db.tickets().capacity(), db.tickets().size());
  EXPECT_EQ(db.weekly_usage().capacity(), db.weekly_usage().size());
}

}  // namespace
}  // namespace fa::sim

#include "src/analysis/capacity_usage.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/management.h"
#include "tests/test_support.h"

namespace fa::analysis {
namespace {

const CapacityAttribute kCpuCount = [](const trace::ServerRecord& s) {
  return std::optional<double>(s.cpu_count);
};

TEST(CapacityBinned, ExactRatesAndPopulation) {
  fa::testing::TinyDbBuilder b;
  const auto small1 = b.add_pm(0, 2);
  const auto small2 = b.add_pm(0, 2);
  const auto big = b.add_pm(0, 16);
  b.add_crash(small1, 1.0, 1.0);
  b.add_crash(big, 2.0, 1.0);
  b.add_crash(big, 3.0, 1.0);
  (void)small2;
  const auto db = b.finish();
  const auto failures = db.crash_tickets();

  const auto result = capacity_binned_rates(
      db, failures, {}, kCpuCount,
      stats::BinSpec::from_edges({1.0, 8.0, 32.0}));

  ASSERT_EQ(result.population.size(), 2u);
  EXPECT_EQ(result.population[0], 2u);  // two 2-cpu machines
  EXPECT_EQ(result.population[1], 1u);  // one 16-cpu machine
  EXPECT_EQ(result.failure_count[0], 1u);
  EXPECT_EQ(result.failure_count[1], 2u);

  const int weeks = db.window().week_count();
  EXPECT_NEAR(result.overall_rate[0], 1.0 / (2.0 * weeks), 1e-12);
  EXPECT_NEAR(result.overall_rate[1], 2.0 / (1.0 * weeks), 1e-12);
}

TEST(CapacityBinned, MissingAttributeExcluded) {
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);   // no disk data
  const auto vm = b.add_vm(0);   // disk_gb = 128
  b.add_crash(pm, 1.0, 1.0);
  b.add_crash(vm, 2.0, 1.0);
  const auto db = b.finish();

  const CapacityAttribute disk = [](const trace::ServerRecord& s) {
    return s.disk_gb;
  };
  const auto result = capacity_binned_rates(
      db, db.crash_tickets(), {}, disk,
      stats::BinSpec::from_edges({0.0, 1000.0}));
  EXPECT_EQ(result.population[0], 1u);     // only the VM counts
  EXPECT_EQ(result.failure_count[0], 1u);  // the PM failure is excluded
}

TEST(CapacityBinned, MaxMinFactor) {
  BinnedRates r{stats::BinSpec::from_edges({0.0, 1.0, 2.0, 3.0}),
                {1, 1, 1},
                {0, 0, 0},
                {0.001, 0.0, 0.01},
                {}};
  EXPECT_DOUBLE_EQ(r.max_min_rate_factor(), 10.0);  // zero bins ignored
  BinnedRates empty{stats::BinSpec::from_edges({0.0, 1.0}),
                    {0}, {0}, {0.0}, {}};
  EXPECT_DOUBLE_EQ(empty.max_min_rate_factor(), 0.0);
}

TEST(UsageBinned, ServerWeeksBinnedByWeeklyValue) {
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);
  // Week 0 at 5% CPU, week 1 at 50%.
  b.raw().add_weekly_usage({pm, 0, 5.0, 20.0, {}, {}});
  b.raw().add_weekly_usage({pm, 1, 50.0, 20.0, {}, {}});
  // One failure in each week.
  b.add_crash(pm, 1.0, 1.0);
  b.add_crash(pm, 8.0, 1.0);
  const auto db = b.finish();

  const UsageAttribute cpu = [](const trace::WeeklyUsage& u) {
    return std::optional<double>(u.cpu_util);
  };
  const auto result = usage_binned_rates(
      db, db.crash_tickets(), {}, cpu,
      stats::BinSpec::from_edges({0.0, 10.0, 100.0}));

  ASSERT_EQ(result.population.size(), 2u);
  EXPECT_EQ(result.population[0], 1u);  // one low-CPU server-week
  EXPECT_EQ(result.population[1], 1u);
  EXPECT_EQ(result.failure_count[0], 1u);
  EXPECT_EQ(result.failure_count[1], 1u);
  EXPECT_DOUBLE_EQ(result.overall_rate[0], 1.0);  // 1 failure / 1 server-week
  EXPECT_DOUBLE_EQ(result.overall_rate[1], 1.0);
}

TEST(UsageBinned, FailureInWeekWithoutUsageRowIgnored) {
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);
  b.raw().add_weekly_usage({pm, 0, 5.0, 20.0, {}, {}});
  b.add_crash(pm, 10.0, 1.0);  // week 1: no usage row
  const auto db = b.finish();
  const UsageAttribute cpu = [](const trace::WeeklyUsage& u) {
    return std::optional<double>(u.cpu_util);
  };
  const auto result = usage_binned_rates(
      db, db.crash_tickets(), {}, cpu,
      stats::BinSpec::from_edges({0.0, 100.0}));
  EXPECT_EQ(result.failure_count[0], 0u);
  EXPECT_EQ(result.population[0], 1u);
}

TEST(UsageBinned, MissingOptionalUsageExcluded) {
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);  // PMs have no disk_util
  b.raw().add_weekly_usage({pm, 0, 5.0, 20.0, {}, {}});
  const auto db = b.finish();
  const UsageAttribute disk = [](const trace::WeeklyUsage& u) {
    return u.disk_util;
  };
  const auto result = usage_binned_rates(
      db, db.crash_tickets(), {}, disk,
      stats::BinSpec::from_edges({0.0, 100.0}));
  EXPECT_EQ(result.population[0], 0u);
}

// ---- bit-for-bit agreement with the map-based oracles (test_support.h) ----

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_identical(const BinnedRates& got, const BinnedRates& want) {
  ASSERT_EQ(got.spec.bin_count(), want.spec.bin_count());
  for (std::size_t b = 0; b < got.spec.bin_count(); ++b) {
    EXPECT_TRUE(same_bits(got.spec.lower_edge(b), want.spec.lower_edge(b)));
    EXPECT_TRUE(same_bits(got.spec.upper_edge(b), want.spec.upper_edge(b)));
  }
  EXPECT_EQ(got.population, want.population);
  EXPECT_EQ(got.failure_count, want.failure_count);
  ASSERT_EQ(got.overall_rate.size(), want.overall_rate.size());
  ASSERT_EQ(got.weekly_summary.size(), want.weekly_summary.size());
  for (std::size_t b = 0; b < got.overall_rate.size(); ++b) {
    EXPECT_TRUE(same_bits(got.overall_rate[b], want.overall_rate[b]))
        << "bin " << b << ": " << got.overall_rate[b] << " vs "
        << want.overall_rate[b];
    const stats::Summary& g = got.weekly_summary[b];
    const stats::Summary& w = want.weekly_summary[b];
    EXPECT_EQ(g.count, w.count) << "bin " << b;
    for (const auto field :
         {&stats::Summary::mean, &stats::Summary::median, &stats::Summary::p25,
          &stats::Summary::p75, &stats::Summary::min, &stats::Summary::max,
          &stats::Summary::stddev}) {
      EXPECT_TRUE(same_bits(g.*field, w.*field))
          << "bin " << b << ": " << g.*field << " vs " << w.*field;
    }
  }
}

void expect_capacity_matches_oracle(
    const trace::TraceDatabase& db,
    std::span<const trace::Ticket* const> failures, const Scope& scope,
    const CapacityAttribute& attribute, const stats::BinSpec& spec) {
  expect_identical(
      capacity_binned_rates(db, failures, scope, attribute, spec),
      fa::testing::capacity_binned_rates_oracle(db, failures, scope,
                                                attribute, spec));
}

void expect_usage_matches_oracle(
    const trace::TraceDatabase& db,
    std::span<const trace::Ticket* const> failures, const Scope& scope,
    const UsageAttribute& attribute, const stats::BinSpec& spec) {
  expect_identical(usage_binned_rates(db, failures, scope, attribute, spec),
                   fa::testing::usage_binned_rates_oracle(
                       db, failures, scope, attribute, spec));
}

const Scope kPm{trace::MachineType::kPhysical, std::nullopt};
const Scope kVm{trace::MachineType::kVirtual, std::nullopt};

// The six usage attributes: the four measurements of Fig. 8, a difference
// that runs below the first edge, and one that is absent in odd weeks.
std::vector<std::pair<UsageAttribute, stats::BinSpec>> usage_cases() {
  const auto util = stats::BinSpec::from_edges({0, 10, 20, 30, 50, 70, 100});
  return {
      {[](const trace::WeeklyUsage& u) {
         return std::optional<double>(u.cpu_util);
       },
       util},
      {[](const trace::WeeklyUsage& u) {
         return std::optional<double>(u.mem_util);
       },
       util},
      {[](const trace::WeeklyUsage& u) { return u.disk_util; }, util},
      {[](const trace::WeeklyUsage& u) { return u.net_kbps; },
       stats::BinSpec::from_edges({0, 2, 8, 64, 512, 2048, 10000})},
      {[](const trace::WeeklyUsage& u) {
         return std::optional<double>(u.cpu_util - u.mem_util);
       },
       stats::BinSpec::linear(-20.0, 60.0, 8)},
      {[](const trace::WeeklyUsage& u) {
         return u.week % 2 == 0 ? std::optional<double>(u.cpu_util)
                                : std::nullopt;
       },
       stats::BinSpec::linear(0.0, 100.0, 40)},
  };
}

TEST(BinnedRatesOracle, SimulatedUsageMatchesBitForBit) {
  const auto& db = fa::testing::small_simulated_db();
  const auto failures = db.crash_tickets();
  for (const auto& [attribute, spec] : usage_cases()) {
    for (const Scope& scope : {kPm, kVm}) {
      expect_usage_matches_oracle(db, failures, scope, attribute, spec);
    }
  }
}

TEST(BinnedRatesOracle, SimulatedCapacityMatchesBitForBit) {
  // The six Fig. 7 calls of fa_repro.
  const auto& db = fa::testing::small_simulated_db();
  const auto failures = db.crash_tickets();
  using stats::BinSpec;
  const CapacityAttribute memory = [](const trace::ServerRecord& s) {
    return std::optional<double>(s.memory_gb);
  };
  const CapacityAttribute disk_gb = [](const trace::ServerRecord& s) {
    return s.disk_gb;
  };
  const CapacityAttribute disks = [](const trace::ServerRecord& s) {
    return s.disk_count ? std::optional<double>(*s.disk_count)
                        : std::nullopt;
  };
  expect_capacity_matches_oracle(
      db, failures, kPm, kCpuCount,
      BinSpec::from_edges({1, 2, 3, 6, 12, 20, 28, 48, 128}));
  expect_capacity_matches_oracle(db, failures, kVm, kCpuCount,
                                 BinSpec::from_edges({1, 2, 3, 6, 16}));
  expect_capacity_matches_oracle(
      db, failures, kPm, memory, BinSpec::from_edges({1, 6, 48, 96, 192, 512}));
  expect_capacity_matches_oracle(
      db, failures, kVm, memory, BinSpec::from_edges({0.1, 6, 12, 24, 64}));
  expect_capacity_matches_oracle(
      db, failures, kVm, disk_gb, BinSpec::from_edges({1, 12, 24, 48, 8192}));
  expect_capacity_matches_oracle(
      db, failures, kVm, disks, BinSpec::from_edges({1, 2, 3, 4, 5, 6, 7}));
}

TEST(BinnedRatesOracle, SimulatedConsolidationAndOnOffMatchBitForBit) {
  // Figs. 9 and 10 delegate to capacity_binned_rates with these bins.
  const auto& db = fa::testing::small_simulated_db();
  const auto failures = db.crash_tickets();
  expect_identical(
      consolidation_binned_rates(db, failures),
      fa::testing::capacity_binned_rates_oracle(
          db, failures, kVm,
          [&db](const trace::ServerRecord& s) {
            return average_consolidation(db, s.id);
          },
          stats::BinSpec::from_edges({1, 2, 3, 5, 9, 17, 33})));
  expect_identical(
      onoff_binned_rates(db, failures),
      fa::testing::capacity_binned_rates_oracle(
          db, failures, kVm,
          [&db](const trace::ServerRecord& s) {
            return measured_onoff_per_month(db, s.id);
          },
          stats::BinSpec::from_edges({0.0, 0.25, 1.25, 2.25, 4.5, 25.0})));
}

// A hand-built database that reaches every edge case of the binning: values
// on edges, below the first and at the last; absent and NaN values; weeks
// outside [0, week_count()); duplicate (server, week) rows; failures on
// unknown or out-of-scope servers and outside the window; a server without
// usage rows.
struct EdgeCaseDb {
  trace::TraceDatabase db;
  std::vector<trace::Ticket> strays;  // failures naming no known server
  std::vector<const trace::Ticket*> failures;
};

EdgeCaseDb edge_case_db() {
  fa::testing::TinyDbBuilder b;
  const int weeks = ticket_window().week_count();
  const auto pm = b.add_pm(0, 1);       // cpu on the first edge
  const auto pm_low = b.add_pm(1, 0);   // cpu below the first edge
  const auto pm_top = b.add_pm(2, 128); // cpu at the last edge
  const auto vm = b.add_vm(0, 4);       // cpu on an interior edge
  const auto vm_quiet = b.add_vm(1, 2); // no usage rows at all
  auto& raw = b.raw();
  // Rows in (server, week) order, so finalize() keeps duplicates in order.
  raw.add_weekly_usage({pm, -1, 5.0, 5.0, {}, {}});      // before week 0
  raw.add_weekly_usage({pm, 0, 0.0, 10.0, {}, {}});      // on the first edge
  raw.add_weekly_usage({pm, 1, 10.0, 100.0, {}, {}});    // interior / last
  raw.add_weekly_usage({pm, 2, 100.0, 50.0, {}, {}});    // at the last edge
  raw.add_weekly_usage({pm, 3, -0.5, 20.0, {}, {}});     // below the first
  raw.add_weekly_usage({pm, 4, 99.999, 30.0, {}, {}});
  raw.add_weekly_usage({pm, 5, 15.0, 70.0, {}, {}});     // kept: 2nd is out
  raw.add_weekly_usage({pm, 5, 150.0, 75.0, {}, {}});
  raw.add_weekly_usage({pm, 6, 20.0, 40.0, {}, {}});     // replaced by 2nd
  raw.add_weekly_usage({pm, 6, 35.0, 40.0, {}, {}});
  raw.add_weekly_usage({pm, 7, std::nan(""), 0.0, {}, {}});
  raw.add_weekly_usage({pm, weeks - 1, 70.0, 0.0, {}, {}});
  raw.add_weekly_usage({pm, weeks, 50.0, 50.0, {}, {}});  // past the window
  raw.add_weekly_usage({pm, weeks + 3, 50.0, 50.0, {}, {}});
  raw.add_weekly_usage({pm_low, 0, 25.0, 25.0, {}, {}});
  raw.add_weekly_usage({pm_low, 1, 25.0, 25.0, {}, {}});
  raw.add_weekly_usage({pm_top, 2, 60.0, 60.0, {}, {}});
  raw.add_weekly_usage({vm, 0, 30.0, 30.0, 10.0, 2.0});
  raw.add_weekly_usage({vm, 1, 30.0, 30.0, {}, 8.0});    // disk absent
  raw.add_weekly_usage({vm, 2, 50.0, 30.0, 100.0, 9999.0});
  raw.add_weekly_usage({vm, 3, 90.0, 30.0, 0.0, {}});
  // Crashes in weeks 0-7, the last week, and just outside the window.
  for (const double day : {0.5, 7.5, 14.5, 21.5, 28.5, 35.5, 36.0, 42.5,
                           49.5, 364.5, -3.0, 365.0, 400.0}) {
    b.add_crash(pm, day, 1.0);
  }
  for (const double day : {1.0, 8.0, 9.0, 15.0, 22.0, 100.0}) {
    b.add_crash(vm, day, 1.0);
    b.add_crash(pm_low, day, 1.0);
  }
  b.add_crash(pm_top, 15.0, 1.0);
  b.add_crash(vm_quiet, 3.0, 1.0);
  b.add_crash(vm_quiet, 50.0, 1.0);
  b.add_background(vm, 2.0);

  EdgeCaseDb out{b.finish(), {}, {}};
  trace::Ticket unknown;
  unknown.server = trace::ServerId{999};
  unknown.opened = ticket_window().begin + kMinutesPerDay;
  trace::Ticket serverless = unknown;
  serverless.server = trace::ServerId{};
  out.strays = {unknown, serverless};
  for (const trace::Ticket& t : out.db.tickets()) out.failures.push_back(&t);
  for (const trace::Ticket& t : out.strays) out.failures.push_back(&t);
  return out;
}

TEST(BinnedRatesOracle, EdgeCaseUsageMatchesBitForBit) {
  const EdgeCaseDb e = edge_case_db();
  const std::vector<const trace::Ticket*> none;
  for (const auto& [attribute, spec] : usage_cases()) {
    for (const Scope& scope : {Scope{}, kPm, kVm}) {
      expect_usage_matches_oracle(e.db, e.failures, scope, attribute, spec);
      expect_usage_matches_oracle(e.db, none, scope, attribute, spec);
    }
  }
}

TEST(BinnedRatesOracle, EdgeCaseCapacityMatchesBitForBit) {
  const EdgeCaseDb e = edge_case_db();
  const std::vector<const trace::Ticket*> none;
  const CapacityAttribute disk_gb = [](const trace::ServerRecord& s) {
    return s.disk_gb;
  };
  const CapacityAttribute nan_for_pm = [](const trace::ServerRecord& s) {
    return s.type == trace::MachineType::kPhysical
               ? std::optional<double>(std::nan(""))
               : std::optional<double>(s.cpu_count);
  };
  const auto cpu_edges = stats::BinSpec::from_edges({1, 2, 4, 8, 128});
  for (const Scope& scope : {Scope{}, kPm, kVm}) {
    for (const auto& failures : {std::span(e.failures), std::span(none)}) {
      expect_capacity_matches_oracle(e.db, failures, scope, kCpuCount,
                                     cpu_edges);
      expect_capacity_matches_oracle(e.db, failures, scope, kCpuCount,
                                     stats::BinSpec::linear(0.0, 128.0, 40));
      expect_capacity_matches_oracle(e.db, failures, scope, disk_gb,
                                     stats::BinSpec::linear(0.0, 256.0, 3));
      expect_capacity_matches_oracle(e.db, failures, scope, nan_for_pm,
                                     cpu_edges);
    }
  }
}

TEST(BinnedRatesOracle, EdgeCaseUsageCountsWhatTheRulesSay) {
  // PM cpu_util under the Fig. 8 bins, checked by hand so the oracle is not
  // the only witness.
  const EdgeCaseDb e = edge_case_db();
  const UsageAttribute cpu = [](const trace::WeeklyUsage& u) {
    return std::optional<double>(u.cpu_util);
  };
  const auto result = usage_binned_rates(
      e.db, e.failures, kPm, cpu,
      stats::BinSpec::from_edges({0, 10, 20, 30, 50, 70, 100}));
  // pm: weeks 0 (0.0), 1 (10.0), 4 (99.999), 5 (15.0), 6 (20.0 and 35.0),
  // weeks-1 (70.0); pm_low: weeks 0, 1 (25.0); pm_top: week 2 (60.0).
  const std::vector<std::size_t> population = {1, 2, 3, 1, 1, 2};
  EXPECT_EQ(result.population, population);
  // pm: week 0 -> [0, 10), week 1 -> [10, 20), week 4 -> [70, 100),
  // week 5 (twice) -> [10, 20) from the kept first row, week 6 -> [30, 50)
  // from the second row, the last week -> [70, 100); weeks 2, 3 and 7 have
  // no binned row. pm_low: week 0, week 1 (twice) -> [20, 30).
  // pm_top: week 2 -> [50, 70).
  const std::vector<std::size_t> failures = {1, 3, 3, 1, 1, 2};
  EXPECT_EQ(result.failure_count, failures);
}

TEST(CapacityBinned, SimulatedTraceShowsDiskCountTrend) {
  // Fig. 7d: VM failure rate increases with the number of virtual disks.
  const auto& db = fa::testing::small_simulated_db();
  const CapacityAttribute disks = [](const trace::ServerRecord& s) {
    return s.disk_count ? std::optional<double>(*s.disk_count)
                        : std::nullopt;
  };
  const auto result = capacity_binned_rates(
      db, db.crash_tickets(), {trace::MachineType::kVirtual, std::nullopt},
      disks, stats::BinSpec::from_edges({1.0, 2.0, 3.0, 7.0}));
  // Rate for 1 disk < rate for 2 disks < rate for 3+ disks.
  EXPECT_LT(result.overall_rate[0], result.overall_rate[1]);
  EXPECT_LT(result.overall_rate[1], result.overall_rate[2]);
}

}  // namespace
}  // namespace fa::analysis

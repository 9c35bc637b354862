// End-to-end degradation tests: corrupt a clean export at increasing total
// defect rates, sanitize it back, and check that the paper's headline
// artifacts survive — Table II-style populations, the Fig. 2 PM-vs-VM
// failure-rate ordering, and Table IV-style repair-time medians — while
// strict loading keeps failing fast on every corrupted export.
#include <array>
#include <filesystem>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/analysis/failure_rates.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/repair_times.h"
#include "src/inject/corruptor.h"
#include "src/stats/descriptive.h"
#include "src/trace/csv_io.h"
#include "src/trace/sanitize.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace fa {
namespace {

// Six defect classes target tickets.csv, so a per-class rate of total/6
// yields roughly `total` defective ticket rows overall.
inject::DefectMix mix_with_total_rate(double total) {
  return inject::DefectMix::uniform(total / 6.0);
}

struct Headline {
  std::array<std::size_t, trace::kSubsystemCount> tickets_by_subsystem{};
  std::size_t pm_count = 0;
  std::size_t vm_count = 0;
  double pm_weekly_rate = 0.0;
  double vm_weekly_rate = 0.0;
  double pm_repair_median_hours = 0.0;
  double vm_repair_median_hours = 0.0;
};

Headline headline_metrics(const trace::TraceDatabase& db) {
  Headline h;
  for (const trace::Ticket& t : db.tickets()) {
    ++h.tickets_by_subsystem[static_cast<std::size_t>(t.subsystem)];
  }
  h.pm_count = db.server_count(trace::MachineType::kPhysical);
  h.vm_count = db.server_count(trace::MachineType::kVirtual);
  const analysis::AnalysisPipeline pipeline(db);
  const analysis::Scope pm{trace::MachineType::kPhysical, std::nullopt};
  const analysis::Scope vm{trace::MachineType::kVirtual, std::nullopt};
  const auto& failures = pipeline.failures();
  h.pm_weekly_rate =
      analysis::failure_rate_summary(db, failures, pm,
                                     analysis::Granularity::kWeekly)
          .mean;
  h.vm_weekly_rate =
      analysis::failure_rate_summary(db, failures, vm,
                                     analysis::Granularity::kWeekly)
          .mean;
  h.pm_repair_median_hours =
      stats::median(analysis::repair_hours(db, failures, pm));
  h.vm_repair_median_hours =
      stats::median(analysis::repair_hours(db, failures, vm));
  return h;
}

double relative_error(double got, double want) {
  return want == 0.0 ? 0.0 : std::abs(got - want) / std::abs(want);
}

class DegradationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    root_ = (std::filesystem::temp_directory_path() /
             ("fa_degradation_" + std::to_string(::getpid())))
                .string();
    clean_ = root_ + "/clean";
    trace::save_database(fa::testing::small_simulated_db(), clean_);
    baseline_ = new Headline(
        headline_metrics(fa::testing::small_simulated_db()));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(root_);
    delete baseline_;
    baseline_ = nullptr;
  }

  // Corrupts at `total_rate`, checks strict rejection, returns the
  // sanitized database's headline metrics.
  static Headline degrade(double total_rate, std::uint64_t seed) {
    const std::string out =
        root_ + "/rate_" + std::to_string(static_cast<int>(total_rate * 100));
    const auto injected = inject::corrupt_database(
        clean_, out, seed, mix_with_total_rate(total_rate));
    EXPECT_GT(injected.total(), 0u);
    EXPECT_THROW(trace::load_database(out), Error);  // strict fails fast
    auto sanitized = fa::testing::load_lenient(out);
    EXPECT_EQ(sanitized.report.total_defects(), injected.total());
    return headline_metrics(sanitized.db);
  }

  static const Headline& baseline() { return *baseline_; }

  static std::string root_, clean_;
  static Headline* baseline_;
};

std::string DegradationTest::root_;
std::string DegradationTest::clean_;
Headline* DegradationTest::baseline_ = nullptr;

TEST_F(DegradationTest, OnePercentPreservesHeadlineNumbers) {
  const Headline h = degrade(0.01, 41);
  EXPECT_EQ(h.pm_count, baseline().pm_count);
  EXPECT_EQ(h.vm_count, baseline().vm_count);
  for (std::size_t s = 0; s < trace::kSubsystemCount; ++s) {
    EXPECT_LT(relative_error(
                  static_cast<double>(h.tickets_by_subsystem[s]),
                  static_cast<double>(baseline().tickets_by_subsystem[s])),
              0.05)
        << "subsystem " << s;
  }
  EXPECT_GT(h.pm_weekly_rate, h.vm_weekly_rate);  // Fig. 2 ordering
  EXPECT_LT(relative_error(h.pm_repair_median_hours,
                           baseline().pm_repair_median_hours),
            0.2);
  EXPECT_LT(relative_error(h.vm_repair_median_hours,
                           baseline().vm_repair_median_hours),
            0.2);
}

TEST_F(DegradationTest, FivePercentStaysWithinTolerance) {
  const Headline h = degrade(0.05, 42);
  // servers.csv travels verbatim, so Table II populations only move
  // through ticket-row damage.
  EXPECT_EQ(h.pm_count, baseline().pm_count);
  EXPECT_EQ(h.vm_count, baseline().vm_count);
  for (std::size_t s = 0; s < trace::kSubsystemCount; ++s) {
    EXPECT_LT(relative_error(
                  static_cast<double>(h.tickets_by_subsystem[s]),
                  static_cast<double>(baseline().tickets_by_subsystem[s])),
              0.05)
        << "subsystem " << s;
  }
  EXPECT_GT(h.pm_weekly_rate, h.vm_weekly_rate);
  EXPECT_LT(relative_error(h.pm_weekly_rate, baseline().pm_weekly_rate),
            0.15);
  EXPECT_LT(relative_error(h.vm_weekly_rate, baseline().vm_weekly_rate),
            0.15);
  EXPECT_LT(relative_error(h.pm_repair_median_hours,
                           baseline().pm_repair_median_hours),
            0.2);
  EXPECT_LT(relative_error(h.vm_repair_median_hours,
                           baseline().vm_repair_median_hours),
            0.2);
}

TEST_F(DegradationTest, TenPercentStillAnalyzableWithOrderingIntact) {
  // At 10% total damage the populations may drift past the tight bounds,
  // but the pipeline must still run and the paper's qualitative result —
  // physical machines fail more often than virtual ones — must survive.
  const Headline h = degrade(0.10, 43);
  EXPECT_GT(h.pm_weekly_rate, h.vm_weekly_rate);
  EXPECT_GT(h.pm_repair_median_hours, 0.0);
  EXPECT_GT(h.vm_repair_median_hours, 0.0);
}

}  // namespace
}  // namespace fa

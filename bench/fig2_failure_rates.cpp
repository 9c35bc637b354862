// Reproduces Fig. 2: mean weekly failure rates with 25th/75th percentile
// whiskers, for PMs and VMs, over the whole population and per subsystem.
#include <iostream>
#include <optional>

#include "bench/bench_common.h"
#include "src/analysis/failure_rates.h"
#include "src/analysis/report.h"
#include "src/stats/bootstrap.h"
#include "src/stats/descriptive.h"
#include "src/util/strings.h"

int main(int argc, char** argv) {
  fa::bench::init(argc, argv);
  using namespace fa;
  const auto& db = bench::shared_db();
  const auto& failures = bench::shared_pipeline().failures();

  analysis::TextTable table({"scope", "type", "mean weekly rate", "p25",
                             "p75"});
  std::array<double, trace::kMachineTypeCount> all_mean{};
  std::array<std::array<double, trace::kMachineTypeCount>,
             trace::kSubsystemCount>
      sys_mean{};
  for (int t = 0; t < trace::kMachineTypeCount; ++t) {
    const auto type = static_cast<trace::MachineType>(t);
    const auto all = analysis::failure_rate_summary(
        db, failures, {type, std::nullopt}, analysis::Granularity::kWeekly);
    all_mean[static_cast<std::size_t>(t)] = all.mean;
    table.add_row({"All", std::string(trace::to_string(type)),
                   format_double(all.mean, 5), format_double(all.p25, 5),
                   format_double(all.p75, 5)});
    for (trace::Subsystem s = 0; s < trace::kSubsystemCount; ++s) {
      if (db.server_count(type, s) == 0) continue;
      const auto summary = analysis::failure_rate_summary(
          db, failures, {type, s}, analysis::Granularity::kWeekly);
      sys_mean[s][static_cast<std::size_t>(t)] = summary.mean;
      table.add_row({std::string(trace::subsystem_name(s)),
                     std::string(trace::to_string(type)),
                     format_double(summary.mean, 5),
                     format_double(summary.p25, 5),
                     format_double(summary.p75, 5)});
    }
  }
  std::cout << "Fig. 2 (weekly failure rates over one year)\n"
            << table.to_string() << "\n";

  // Bootstrap 95% confidence intervals over the weekly series (weeks
  // resampled), quantifying the sampling uncertainty of the "All" bars.
  {
    Rng rng(17);
    analysis::TextTable ci_table({"type", "mean weekly rate", "95% CI"});
    for (int t = 0; t < trace::kMachineTypeCount; ++t) {
      const auto series = analysis::failure_rate_series(
          db, failures,
          {static_cast<trace::MachineType>(t), std::nullopt},
          analysis::Granularity::kWeekly);
      const auto ci = stats::bootstrap_ci(
          series, [](std::span<const double> xs) { return stats::mean(xs); },
          rng);
      ci_table.add_row(
          {std::string(trace::to_string(static_cast<trace::MachineType>(t))),
           format_double(ci.point, 5),
           '[' + format_double(ci.lo, 5) + ", " + format_double(ci.hi, 5) +
               ']'});
    }
    std::cout << ci_table.to_string() << "\n";
  }

  const double pm_all = all_mean[0];
  const double vm_all = all_mean[1];
  paperref::Comparison cmp("Fig. 2 -- weekly failure rates");
  cmp.add("PM all (paper figure approx)", paperref::kWeeklyRatePmAll, pm_all,
          5);
  cmp.add("VM all (paper figure approx)", paperref::kWeeklyRateVmAll, vm_all,
          5);
  cmp.add("PM/VM ratio", paperref::kWeeklyRatePmAll /
                             paperref::kWeeklyRateVmAll,
          pm_all / vm_all, 2);

  cmp.check("PMs fail more often than VMs overall (the headline finding)",
            pm_all > vm_all);
  cmp.check("PM rate higher by very roughly 40% (band 1.1x-2.2x)",
            pm_all / vm_all > 1.1 && pm_all / vm_all < 2.2);
  cmp.check("Sys IV is the exception where VMs out-fail PMs",
            sys_mean[3][1] > sys_mean[3][0]);
  cmp.check("PM rate exceeds VM rate in every other subsystem with VMs",
            sys_mean[0][0] > sys_mean[0][1] &&
                sys_mean[2][0] > sys_mean[2][1] &&
                sys_mean[4][0] > sys_mean[4][1]);
  return bench::finish(cmp);
}

// fa_repro — reproduces every table and figure of the paper, plus the
// mechanism ablations and the extension analyses, in one process over one
// simulated trace, and gates their shape-check verdicts.
//
//   fa_repro [--threads N] [--no-obs] [--metrics PATH] [--trace-out PATH]
//            [ID...]
//
// stdout is the results part of EXPERIMENTS.md: per experiment a
// "## <paper ref>" heading and the experiment's output in a fenced block.
// IDs (the names in kExperiments) select a subset, run in table order.
// --threads N sets the worker threads (0 = all cores, at most 1024);
// --metrics / --trace-out write the metrics JSON and the Chrome trace, in
// which each experiment is one "repro.<id>" span; --no-obs turns recording
// off. (--threads/--metrics/--trace-out also accept --flag=VALUE.)
//
// Exit codes: 0 every experiment's failed shape checks are exactly its
// known deviations, 1 they are not (each mismatch is listed on stderr) or
// a run/export error, 2 usage error (unknown flag or ID, bad --threads).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <exception>
#include <iostream>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/analysis/age.h"
#include "src/analysis/burstiness.h"
#include "src/analysis/capacity_usage.h"
#include "src/analysis/failure_rates.h"
#include "src/analysis/interfailure.h"
#include "src/analysis/management.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/recurrence.h"
#include "src/analysis/repair_times.h"
#include "src/analysis/report.h"
#include "src/analysis/spatial.h"
#include "src/analysis/transitions.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/paper/comparison.h"
#include "src/paper/reference.h"
#include "src/sim/scenario.h"
#include "src/sim/simulator.h"
#include "src/stats/bootstrap.h"
#include "src/stats/correlation.h"
#include "src/stats/descriptive.h"
#include "src/stats/ecdf.h"
#include "src/stats/fitting.h"
#include "src/stats/hazard_estimate.h"
#include "src/trace/database.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace fa::repro {
namespace {

// The paper-scale trace (5129 PMs, 4292 VMs, one year) simulated once at
// the default configuration, and the crash extraction + classification over
// it. Ablations simulate only their variant and use this as the baseline.
struct Context {
  const trace::TraceDatabase& db;
  const analysis::AnalysisPipeline& pipeline;
};

// Renders a BinnedRates result as a table: bin label, population, mean
// weekly rate with p25/p75 (the paper's bar-and-whisker panels).
std::string render_binned(const std::string& title,
                          const analysis::BinnedRates& rates,
                          std::size_t min_population = 1) {
  analysis::TextTable table(
      {"bin", "population", "failures", "weekly rate", "p25", "p75"});
  for (std::size_t b = 0; b < rates.population.size(); ++b) {
    if (rates.population[b] < min_population) continue;
    const auto& summary = rates.weekly_summary[b];
    table.add_row({rates.spec.label(b), std::to_string(rates.population[b]),
                   std::to_string(rates.failure_count[b]),
                   format_double(summary.mean, 5),
                   format_double(summary.p25, 5),
                   format_double(summary.p75, 5)});
  }
  return title + "\n" + table.to_string();
}

// Reproduces Table II: dataset statistics — PM/VM populations, total problem
// tickets, crash-ticket share of all tickets, and the PM/VM split of crash
// tickets, per subsystem.
paperref::Comparison table2_dataset(const Context& ctx, std::ostream& out) {
  const auto& db = ctx.db;
  const auto& pipeline = ctx.pipeline;

  analysis::TextTable table({"", "Sys I", "Sys II", "Sys III", "Sys IV",
                             "Sys V"});
  std::array<std::size_t, trace::kSubsystemCount> pm_crash{}, vm_crash{};
  for (const trace::Ticket* t : pipeline.failures()) {
    const auto type = db.server(t->server).type;
    (type == trace::MachineType::kPhysical ? pm_crash : vm_crash)
        [t->subsystem]++;
  }

  const auto row = [&](const std::string& label, auto value_fn) {
    std::vector<std::string> cells = {label};
    for (trace::Subsystem s = 0; s < trace::kSubsystemCount; ++s) {
      cells.push_back(value_fn(s));
    }
    table.add_row(std::move(cells));
  };

  row("PMs", [&](trace::Subsystem s) {
    return std::to_string(db.server_count(trace::MachineType::kPhysical, s));
  });
  row("VMs", [&](trace::Subsystem s) {
    return std::to_string(db.server_count(trace::MachineType::kVirtual, s));
  });
  row("All tickets", [&](trace::Subsystem s) {
    return std::to_string(db.ticket_count(s));
  });
  row("% crash tickets", [&](trace::Subsystem s) {
    const double crash =
        static_cast<double>(pm_crash[s] + vm_crash[s]);
    return format_double(100.0 * crash / db.ticket_count(s), 2) + "%";
  });
  row("% crash (PMs)", [&](trace::Subsystem s) {
    const double crash = static_cast<double>(pm_crash[s] + vm_crash[s]);
    if (crash == 0) return std::string("n.a.");
    return format_double(100.0 * pm_crash[s] / crash, 0) + "%";
  });
  row("% crash (VMs)", [&](trace::Subsystem s) {
    const double crash = static_cast<double>(pm_crash[s] + vm_crash[s]);
    if (crash == 0) return std::string("n.a.");
    return format_double(100.0 * vm_crash[s] / crash, 0) + "%";
  });
  out << "Table II (measured on the simulated trace)\n"
      << table.to_string() << "\n";

  paperref::Comparison cmp("Table II -- dataset statistics");
  std::size_t crash_total = pipeline.failures().size();
  cmp.add("total PMs", paperref::kTotalPms,
          static_cast<double>(db.server_count(trace::MachineType::kPhysical)),
          0);
  cmp.add("total VMs", paperref::kTotalVms,
          static_cast<double>(db.server_count(trace::MachineType::kVirtual)),
          0);
  cmp.add("total crash tickets", paperref::kTotalCrashTickets,
          static_cast<double>(crash_total), 0);
  for (trace::Subsystem s = 0; s < trace::kSubsystemCount; ++s) {
    cmp.add(std::string(trace::subsystem_name(s)) + " crash fraction",
            paperref::kTable2[s].crash_ticket_fraction,
            static_cast<double>(pm_crash[s] + vm_crash[s]) /
                static_cast<double>(db.ticket_count(s)));
  }

  cmp.check("populations match Table II exactly",
            db.server_count(trace::MachineType::kPhysical) ==
                    static_cast<std::size_t>(paperref::kTotalPms) &&
                db.server_count(trace::MachineType::kVirtual) ==
                    static_cast<std::size_t>(paperref::kTotalVms));
  cmp.check("crash total within 15% of paper",
            std::abs(static_cast<double>(crash_total) -
                     paperref::kTotalCrashTickets) <
                0.15 * paperref::kTotalCrashTickets);
  cmp.check("Sys II VMs produce no crash tickets", vm_crash[1] == 0);
  cmp.check("PMs hold the crash-ticket majority overall",
            [&] {
              std::size_t pm = 0, vm = 0;
              for (trace::Subsystem s = 0; s < trace::kSubsystemCount; ++s) {
                pm += pm_crash[s];
                vm += vm_crash[s];
              }
              return pm > vm;
            }());
  return cmp;
}

// Reproduces Fig. 1: the distribution of crash tickets across the failure
// classes (hardware, network, power, reboot, software) per subsystem, using
// the k-means classifier exactly as the paper does, plus the "other" shares
// quoted in Section III-A.
paperref::Comparison fig1_ticket_classes(const Context& ctx,
                                         std::ostream& out) {
  const auto& pipeline = ctx.pipeline;

  // Predicted-class counts per subsystem.
  std::array<std::array<std::size_t, trace::kFailureClassCount>,
             trace::kSubsystemCount>
      counts{};
  std::array<std::size_t, trace::kSubsystemCount> totals{};
  for (const trace::Ticket* t : pipeline.failures()) {
    ++counts[t->subsystem][static_cast<std::size_t>(pipeline.class_of(*t))];
    ++totals[t->subsystem];
  }

  analysis::TextTable table({"class", "Sys I", "Sys II", "Sys III", "Sys IV",
                             "Sys V", "All"});
  std::array<std::size_t, trace::kFailureClassCount> all_counts{};
  std::size_t all_total = 0;
  for (trace::Subsystem s = 0; s < trace::kSubsystemCount; ++s) {
    for (std::size_t c = 0; c < trace::kFailureClassCount; ++c) {
      all_counts[c] += counts[s][c];
    }
    all_total += totals[s];
  }
  for (trace::FailureClass c : trace::kAllFailureClasses) {
    std::vector<std::string> row = {std::string(trace::to_string(c))};
    for (trace::Subsystem s = 0; s < trace::kSubsystemCount; ++s) {
      const double share =
          totals[s] ? 100.0 * counts[s][static_cast<std::size_t>(c)] /
                          totals[s]
                    : 0.0;
      row.push_back(format_double(share, 1) + "%");
    }
    row.push_back(format_double(100.0 *
                                    all_counts[static_cast<std::size_t>(c)] /
                                    all_total,
                                1) +
                  "%");
    table.add_row(std::move(row));
  }
  out << "Fig. 1 (class shares of crash tickets, k-means predicted)\n"
      << table.to_string() << "\n";

  const auto share = [&](trace::Subsystem s, trace::FailureClass c) {
    return totals[s] ? static_cast<double>(
                           counts[s][static_cast<std::size_t>(c)]) /
                           totals[s]
                     : 0.0;
  };
  const auto all_share = [&](trace::FailureClass c) {
    return static_cast<double>(all_counts[static_cast<std::size_t>(c)]) /
           all_total;
  };

  paperref::Comparison cmp("Fig. 1 -- ticket distribution across classes");
  cmp.add("classifier accuracy", paperref::kClassificationAccuracy,
          pipeline.classification().accuracy, 3);
  cmp.add("'other' share overall", paperref::kOtherShareOverall,
          all_share(trace::FailureClass::kOther), 3);
  for (trace::Subsystem s = 0; s < trace::kSubsystemCount; ++s) {
    cmp.add(std::string(trace::subsystem_name(s)) + " 'other' share",
            paperref::kOtherShare[s], share(s, trace::FailureClass::kOther),
            3);
  }
  cmp.add("software+reboot share of all crash tickets",
          paperref::kSoftwareRebootShare,
          all_share(trace::FailureClass::kSoftware) +
              all_share(trace::FailureClass::kReboot),
          3);

  cmp.check("classifier accuracy at or above the paper's 87% - 5pp",
            pipeline.classification().accuracy >
                paperref::kClassificationAccuracy - 0.05);
  cmp.check("software and reboot dominate the classified tickets",
            all_share(trace::FailureClass::kSoftware) +
                    all_share(trace::FailureClass::kReboot) >
                all_share(trace::FailureClass::kHardware) +
                    all_share(trace::FailureClass::kNetwork) +
                    all_share(trace::FailureClass::kPower));
  cmp.check("Sys V is power-outage heavy (~29%)",
            share(4, trace::FailureClass::kPower) > 0.15);
  cmp.check("Sys III shows (almost) no power failures",
            share(2, trace::FailureClass::kPower) < 0.03);
  cmp.check("hardware+network prominent in Sys I (~26%+13% prose)",
            share(0, trace::FailureClass::kHardware) +
                    share(0, trace::FailureClass::kNetwork) >
                0.12);
  return cmp;
}

// Reproduces Fig. 2: mean weekly failure rates with 25th/75th percentile
// whiskers, for PMs and VMs, over the whole population and per subsystem.
paperref::Comparison fig2_failure_rates(const Context& ctx, std::ostream& out) {
  const auto& db = ctx.db;
  const auto& failures = ctx.pipeline.failures();

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
  out << "Fig. 2 (weekly failure rates over one year)\n"
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
    out << ci_table.to_string() << "\n";
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
  return cmp;
}

// Reproduces Fig. 3: the CDF of per-server inter-failure times for VMs and
// PMs, with the statistical fit the paper performs (Gamma wins among
// Exponential/Weibull/Gamma/LogNormal by log-likelihood).
paperref::Comparison fig3_interfailure_cdf(const Context& ctx,
                                           std::ostream& out) {
  const auto& db = ctx.db;
  const auto& pipeline = ctx.pipeline;

  std::array<std::vector<double>, 2> gaps;
  for (int t = 0; t < trace::kMachineTypeCount; ++t) {
    gaps[static_cast<std::size_t>(t)] = analysis::per_server_interfailure_days(
        db, pipeline.failures(),
        {static_cast<trace::MachineType>(t), std::nullopt});
  }

  // CDF curves at a few representative quantiles (the Fig. 3 lines).
  analysis::TextTable curve({"percentile", "PM days", "VM days"});
  const stats::Ecdf pm_cdf(gaps[0]);
  const stats::Ecdf vm_cdf(gaps[1]);
  for (double p : {0.10, 0.25, 0.50, 0.75, 0.80, 0.90, 0.95, 0.99}) {
    curve.add_row({format_double(100.0 * p, 0) + "%",
                   format_double(pm_cdf.quantile(p), 2),
                   format_double(vm_cdf.quantile(p), 2)});
  }
  out << "Fig. 3 (inter-failure time distribution, days)\n"
      << curve.to_string() << "\n";

  // Distribution fits, as in the paper.
  analysis::TextTable fits({"type", "family", "parameters", "logL", "KS"});
  std::array<std::string, 2> best_family;
  std::array<double, 2> means{};
  for (int t = 0; t < 2; ++t) {
    const auto& sample = gaps[static_cast<std::size_t>(t)];
    means[static_cast<std::size_t>(t)] = stats::mean(sample);
    const auto candidates = stats::fit_candidates(sample);
    best_family[static_cast<std::size_t>(t)] = candidates.front().dist->name();
    for (const auto& fit : candidates) {
      fits.add_row({t == 0 ? "PM" : "VM", fit.dist->name(),
                    fit.dist->describe(),
                    format_double(fit.log_likelihood, 1),
                    format_double(fit.ks_statistic, 4)});
    }
  }
  out << fits.to_string() << "\n";

  const auto census_vm = analysis::failure_census(
      db, pipeline.failures(), {trace::MachineType::kVirtual, std::nullopt});
  const double single_share =
      census_vm.failing_servers
          ? static_cast<double>(census_vm.single_failure_servers) /
                census_vm.failing_servers
          : 0.0;

  paperref::Comparison cmp("Fig. 3 -- inter-failure times and Gamma fit");
  cmp.add("VM mean inter-failure days", paperref::kVmInterfailureMeanDays,
          means[1], 2);
  cmp.add_text("PM best-fit family", "gamma", best_family[0]);
  cmp.add_text("VM best-fit family", "gamma", best_family[1]);
  cmp.add("share of failing VMs with a single failure",
          paperref::kVmSingleFailureShare, single_share, 3);

  const auto heavy_tailed = [](const std::string& family) {
    return family == "gamma" || family == "weibull" ||
           family == "lognormal";
  };
  cmp.check("PM inter-failure times are NOT exponential (heavy-tailed fit)",
            heavy_tailed(best_family[0]));
  cmp.check("VM inter-failure times are NOT exponential (heavy-tailed fit)",
            heavy_tailed(best_family[1]));
  cmp.check("VM mean inter-failure time within 2x of the paper's 37.22 days",
            means[1] > paperref::kVmInterfailureMeanDays / 2.0 &&
                means[1] < paperref::kVmInterfailureMeanDays * 2.0);
  cmp.check("majority of failing VMs fail only once (paper: ~60%)",
            single_share > 0.45);
  // The paper's Fig. 3 observations: VM gaps run slightly above PM gaps in
  // the body of the distribution (up to ~100 days), and the two tails
  // nearly overlap (with PMs slightly longer beyond the crossover).
  cmp.check("VM gaps exceed PM gaps in the distribution body (median)",
            vm_cdf.quantile(0.5) >= pm_cdf.quantile(0.5));
  cmp.check("tails nearly overlap (p90 within 25%)",
            pm_cdf.quantile(0.9) < 1.25 * vm_cdf.quantile(0.9) &&
                vm_cdf.quantile(0.9) < 1.25 * pm_cdf.quantile(0.9));
  return cmp;
}

// Reproduces Table III: mean/median inter-failure times per failure class,
// from the datacenter operator's view (gaps between any two failures of a
// class) and from the single-server view (gaps per server, pooled).
paperref::Comparison table3_interfailure_by_class(const Context& ctx,
                                                  std::ostream& out) {
  const auto& db = ctx.db;
  const auto& pipeline = ctx.pipeline;
  const auto class_of = pipeline.class_lookup();

  analysis::TextTable table(
      {"view", "metric", "HW", "Net", "Power", "Reboot", "SW", "Other"});
  std::array<double, trace::kFailureClassCount> op_mean{}, op_median{},
      sv_mean{}, sv_median{};
  for (trace::FailureClass c : trace::kAllFailureClasses) {
    const auto idx = static_cast<std::size_t>(c);
    const auto op = analysis::operator_interfailure_days(pipeline.failures(),
                                                         c, class_of);
    const auto sv = analysis::per_server_interfailure_days(
        db, pipeline.failures(), {}, c, class_of);
    if (!op.empty()) {
      op_mean[idx] = stats::mean(op);
      op_median[idx] = stats::median(op);
    }
    if (!sv.empty()) {
      sv_mean[idx] = stats::mean(sv);
      sv_median[idx] = stats::median(sv);
    }
  }
  const auto add_rows = [&](const std::string& view,
                            const std::array<double, 6>& means,
                            const std::array<double, 6>& medians) {
    std::vector<std::string> mean_row = {view, "average"};
    std::vector<std::string> median_row = {view, "median"};
    for (std::size_t c = 0; c < trace::kFailureClassCount; ++c) {
      mean_row.push_back(format_double(means[c], 2));
      median_row.push_back(format_double(medians[c], 2));
    }
    table.add_row(std::move(mean_row));
    table.add_row(std::move(median_row));
  };
  add_rows("operator", op_mean, op_median);
  add_rows("single server", sv_mean, sv_median);
  out << "Table III (inter-failure times in days, by class)\n"
      << table.to_string() << "\n";

  paperref::Comparison cmp("Table III -- inter-failure times by root cause");
  const char* names[] = {"HW", "Net", "Power", "Reboot", "SW", "Other"};
  for (std::size_t c = 0; c < 6; ++c) {
    cmp.add(std::string("operator mean ") + names[c],
            paperref::kTable3Operator[c].mean, op_mean[c], 2);
    cmp.add(std::string("server mean ") + names[c],
            paperref::kTable3SingleServer[c].mean, sv_mean[c], 2);
  }

  bool operator_shorter = true;
  for (std::size_t c = 0; c < trace::kFailureClassCount; ++c) {
    if (op_mean[c] > 0 && sv_mean[c] > 0) {
      operator_shorter &= op_mean[c] < sv_mean[c];
    }
  }
  cmp.check("operator-view gaps are much shorter than per-server gaps",
            operator_shorter);
  const auto sw = static_cast<std::size_t>(trace::FailureClass::kSoftware);
  const auto hw = static_cast<std::size_t>(trace::FailureClass::kHardware);
  const auto net = static_cast<std::size_t>(trace::FailureClass::kNetwork);
  cmp.check("software has the shortest inter-failure times among real "
            "classes (operator view)",
            op_mean[sw] < op_mean[hw] && op_mean[sw] < op_mean[net]);
  // Per-server same-class gap *orderings* between the infrastructure
  // classes swing with seed noise (network has ~50 incidents, so only a
  // handful of same-server pairs exist -- the paper faces the same sparsity).
  // The robust Table III property is the magnitude: same-class re-failures
  // of one server take weeks to months, not days.
  const auto power = static_cast<std::size_t>(trace::FailureClass::kPower);
  const auto reboot = static_cast<std::size_t>(trace::FailureClass::kReboot);
  cmp.check("per-server same-class gaps are tens of days for every class "
            "(paper: 22-66 days)",
            sv_mean[hw] > 14.0 && sv_mean[net] > 14.0 &&
                sv_mean[power] > 14.0 && sv_mean[reboot] > 14.0 &&
                sv_mean[sw] > 14.0);
  cmp.check("per-server software gaps within the paper's order of magnitude",
            sv_mean[sw] > paperref::kTable3SingleServer[sw].mean / 2.0 &&
                sv_mean[sw] < paperref::kTable3SingleServer[sw].mean * 3.0);
  return cmp;
}

// Reproduces Fig. 4: the CDF of repair times for PMs and VMs, with the
// LogNormal fit the paper selects by log-likelihood (PM mean 38.5 h,
// VM mean 19.6 h).
paperref::Comparison fig4_repair_cdf(const Context& ctx, std::ostream& out) {
  const auto& db = ctx.db;
  const auto& pipeline = ctx.pipeline;

  std::array<std::vector<double>, 2> hours;
  for (int t = 0; t < trace::kMachineTypeCount; ++t) {
    hours[static_cast<std::size_t>(t)] = analysis::repair_hours(
        db, pipeline.failures(),
        {static_cast<trace::MachineType>(t), std::nullopt});
  }

  analysis::TextTable curve({"percentile", "PM hours", "VM hours"});
  const stats::Ecdf pm_cdf(hours[0]);
  const stats::Ecdf vm_cdf(hours[1]);
  for (double p : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    curve.add_row({format_double(100.0 * p, 0) + "%",
                   format_double(pm_cdf.quantile(p), 2),
                   format_double(vm_cdf.quantile(p), 2)});
  }
  out << "Fig. 4 (repair time distribution, hours)\n"
      << curve.to_string() << "\n";

  analysis::TextTable fits({"type", "family", "parameters", "logL", "KS"});
  std::array<std::string, 2> best_family;
  std::array<bool, 2> lognormal_competitive{};
  std::array<double, 2> means{};
  for (int t = 0; t < 2; ++t) {
    auto& sample = hours[static_cast<std::size_t>(t)];
    means[static_cast<std::size_t>(t)] = stats::mean(sample);
    const auto candidates = stats::fit_candidates(sample);
    best_family[static_cast<std::size_t>(t)] = candidates.front().dist->name();
    for (const auto& fit : candidates) {
      // "Competitive": within 0.2% log-likelihood of the winner, i.e.
      // statistically indistinguishable on this sample size.
      if (fit.dist->name() == "lognormal" &&
          fit.log_likelihood >
              candidates.front().log_likelihood * 1.002) {
        lognormal_competitive[static_cast<std::size_t>(t)] = true;
      }
      fits.add_row({t == 0 ? "PM" : "VM", fit.dist->name(),
                    fit.dist->describe(),
                    format_double(fit.log_likelihood, 1),
                    format_double(fit.ks_statistic, 4)});
    }
  }
  out << fits.to_string() << "\n";

  // Reboot share of VM failures (the paper's explanation for short VM
  // repairs). We read the paper's "roughly 35%" as a share of the
  // *attributable* (non-"other") VM failures, since over half of all
  // tickets carry no usable class.
  std::size_t vm_classified = 0, vm_reboots = 0;
  for (const trace::Ticket* t : pipeline.failures()) {
    if (db.server(t->server).type != trace::MachineType::kVirtual) continue;
    const auto cls = pipeline.class_of(*t);
    if (cls == trace::FailureClass::kOther) continue;
    ++vm_classified;
    vm_reboots += cls == trace::FailureClass::kReboot;
  }
  const double reboot_share =
      vm_classified ? static_cast<double>(vm_reboots) / vm_classified : 0.0;

  paperref::Comparison cmp("Fig. 4 -- repair times and LogNormal fit");
  cmp.add("PM mean repair hours", paperref::kRepairMeanPmHours, means[0], 1);
  cmp.add("VM mean repair hours", paperref::kRepairMeanVmHours, means[1], 1);
  cmp.add_text("PM best-fit family", "lognormal", best_family[0]);
  cmp.add_text("VM best-fit family", "lognormal", best_family[1]);
  cmp.add("reboot share of classified VM failures", paperref::kVmRebootShare,
          reboot_share, 3);

  cmp.check("PM repairs take distinctly longer than VM repairs "
            "(paper: ~2x; band >= 1.2x)",
            means[0] > 1.2 * means[1]);
  cmp.check("LogNormal is the (statistically) best fit for PM repair times",
            best_family[0] == "lognormal" || lognormal_competitive[0]);
  cmp.check("LogNormal is the (statistically) best fit for VM repair times",
            best_family[1] == "lognormal" || lognormal_competitive[1]);
  cmp.check("PM mean within 2x of the paper's 38.5 h",
            means[0] > paperref::kRepairMeanPmHours / 2.0 &&
                means[0] < paperref::kRepairMeanPmHours * 2.0);
  cmp.check("unexpected reboots are a large share of VM failures (~35%)",
            reboot_share > 0.20);
  return cmp;
}

// Reproduces Table IV: mean and median repair times in hours per failure
// class, including the paper's observations that hardware/network repairs
// take longest and software repairs have the lowest variability.
paperref::Comparison table4_repair_by_class(const Context& ctx,
                                            std::ostream& out) {
  const auto& db = ctx.db;
  const auto& pipeline = ctx.pipeline;
  const auto class_of = pipeline.class_lookup();

  analysis::TextTable table({"metric", "HW", "Net", "Power", "Reboot", "SW"});
  std::array<double, 5> means{}, medians{}, cvs{};
  std::vector<std::string> mean_row = {"mean"}, median_row = {"median"},
                           cv_row = {"coeff. of variation"};
  for (std::size_t c = 0; c < 5; ++c) {
    const auto sample = analysis::repair_hours(
        db, pipeline.failures(), {}, static_cast<trace::FailureClass>(c),
        class_of);
    if (sample.size() >= 2) {
      means[c] = stats::mean(sample);
      medians[c] = stats::median(sample);
      cvs[c] = stats::coefficient_of_variation(sample);
    }
    mean_row.push_back(format_double(means[c], 2));
    median_row.push_back(format_double(medians[c], 2));
    cv_row.push_back(format_double(cvs[c], 2));
  }
  table.add_row(std::move(mean_row));
  table.add_row(std::move(median_row));
  table.add_row(std::move(cv_row));
  out << "Table IV (repair hours per class, k-means predicted)\n"
      << table.to_string() << "\n";

  paperref::Comparison cmp("Table IV -- repair times by class");
  const char* names[] = {"HW", "Net", "Power", "Reboot", "SW"};
  for (std::size_t c = 0; c < 5; ++c) {
    cmp.add(std::string("mean ") + names[c], paperref::kTable4[c].mean,
            means[c], 2);
    cmp.add(std::string("median ") + names[c], paperref::kTable4[c].median,
            medians[c], 2);
  }

  const auto hw = static_cast<std::size_t>(trace::FailureClass::kHardware);
  const auto net = static_cast<std::size_t>(trace::FailureClass::kNetwork);
  const auto power = static_cast<std::size_t>(trace::FailureClass::kPower);
  const auto reboot = static_cast<std::size_t>(trace::FailureClass::kReboot);
  const auto sw = static_cast<std::size_t>(trace::FailureClass::kSoftware);

  cmp.check("means far exceed medians (high repair-time variability)",
            means[hw] > 2.0 * medians[hw] && means[net] > 2.0 * medians[net]);
  cmp.check("power repairs are the fastest (critical severity)",
            medians[power] < medians[hw] && medians[power] < medians[net] &&
                medians[power] < medians[sw]);
  cmp.check("reboots are the second-fastest repairs",
            medians[reboot] < medians[hw] && medians[reboot] < medians[sw]);
  cmp.check("hardware and network repairs take longest on average",
            means[hw] > means[power] && means[hw] > means[reboot] &&
                means[net] > means[power]);
  cmp.check("software repairs have the lowest coefficient of variation",
            cvs[sw] < cvs[hw] && cvs[sw] < cvs[net] && cvs[sw] < cvs[power]);
  return cmp;
}

// Reproduces Fig. 5: recurrent failure probabilities within a day, a week
// and a month, for PMs and VMs.
paperref::Comparison fig5_recurrent_prob(const Context& ctx,
                                         std::ostream& out) {
  const auto& db = ctx.db;
  const auto& failures = ctx.pipeline.failures();

  analysis::TextTable table({"type", "within day", "within week",
                             "within month"});
  std::array<std::array<double, 3>, 2> probs{};
  const Duration windows[3] = {kMinutesPerDay, kMinutesPerWeek,
                               kMinutesPerMonth};
  for (int t = 0; t < trace::kMachineTypeCount; ++t) {
    const analysis::Scope scope{static_cast<trace::MachineType>(t),
                                std::nullopt};
    for (int w = 0; w < 3; ++w) {
      probs[static_cast<std::size_t>(t)][static_cast<std::size_t>(w)] =
          analysis::recurrent_probability(db, failures, scope, windows[w]);
    }
    table.add_row(
        {std::string(trace::to_string(static_cast<trace::MachineType>(t))),
         format_double(probs[static_cast<std::size_t>(t)][0], 3),
         format_double(probs[static_cast<std::size_t>(t)][1], 3),
         format_double(probs[static_cast<std::size_t>(t)][2], 3)});
  }
  out << "Fig. 5 (recurrent failure probabilities)\n"
      << table.to_string() << "\n";

  paperref::Comparison cmp("Fig. 5 -- recurrent failure probabilities");
  cmp.add("PM within day (figure approx)", paperref::kRecurrentDayPm,
          probs[0][0], 3);
  cmp.add("PM within week (Table V)", paperref::kRecurrentWeekPm,
          probs[0][1], 3);
  cmp.add("PM within month (figure approx)", paperref::kRecurrentMonthPm,
          probs[0][2], 3);
  cmp.add("VM within day (figure approx)", paperref::kRecurrentDayVm,
          probs[1][0], 3);
  cmp.add("VM within week (Table V)", paperref::kRecurrentWeekVm,
          probs[1][1], 3);
  cmp.add("VM within month (figure approx)", paperref::kRecurrentMonthVm,
          probs[1][2], 3);

  cmp.check("VM recurrent probabilities below PM in every window",
            probs[1][0] < probs[0][0] && probs[1][1] < probs[0][1] &&
                probs[1][2] < probs[0][2]);
  cmp.check("probabilities grow with the window",
            probs[0][0] < probs[0][1] && probs[0][1] < probs[0][2] &&
                probs[1][0] < probs[1][1] && probs[1][1] < probs[1][2]);
  cmp.check("growth is sub-linear: weekly << 7x daily",
            probs[0][1] < 4.0 * probs[0][0] &&
                probs[1][1] < 4.0 * probs[1][0]);
  cmp.check("PM weekly recurrence within 30% of the paper's 0.22",
            std::abs(probs[0][1] - paperref::kRecurrentWeekPm) <
                0.3 * paperref::kRecurrentWeekPm);
  cmp.check("VM weekly recurrence within 30% of the paper's 0.16",
            std::abs(probs[1][1] - paperref::kRecurrentWeekVm) <
                0.3 * paperref::kRecurrentWeekVm);
  return cmp;
}

// Reproduces Table V: weekly random failure probability vs recurrent
// failure probability within a week, and their ratio, per machine type and
// subsystem. The paper's headline: recurrence exceeds random by ~35x (PM)
// and ~42x (VM).
paperref::Comparison table5_random_vs_recurrent(const Context& ctx,
                                                std::ostream& out) {
  const auto& db = ctx.db;
  const auto& failures = ctx.pipeline.failures();

  std::array<std::array<double, 7>, 2> random{}, recurrent{};  // [type][All+5]
  analysis::TextTable table({"type", "scope", "random", "recurrent",
                             "ratio"});
  for (int t = 0; t < trace::kMachineTypeCount; ++t) {
    const auto type = static_cast<trace::MachineType>(t);
    for (int s = -1; s < trace::kSubsystemCount; ++s) {
      analysis::Scope scope{type, std::nullopt};
      std::string label = "All";
      if (s >= 0) {
        scope.subsystem = static_cast<trace::Subsystem>(s);
        label = std::string(trace::subsystem_name(
            static_cast<trace::Subsystem>(s)));
        if (db.server_count(type, static_cast<trace::Subsystem>(s)) == 0) {
          continue;
        }
      }
      const double rnd = analysis::random_failure_probability(
          db, failures, scope, analysis::Granularity::kWeekly);
      const double rec = analysis::recurrent_probability(
          db, failures, scope, kMinutesPerWeek);
      random[static_cast<std::size_t>(t)][static_cast<std::size_t>(s + 1)] =
          rnd;
      recurrent[static_cast<std::size_t>(t)][static_cast<std::size_t>(s + 1)] =
          rec;
      table.add_row({std::string(trace::to_string(type)), label,
                     format_double(rnd, 4), format_double(rec, 3),
                     rnd > 0 ? format_double(rec / rnd, 1) + "x" : "n.a."});
    }
  }
  out << "Table V (weekly random vs recurrent failures)\n"
      << table.to_string() << "\n";

  paperref::Comparison cmp("Table V -- random vs recurrent probabilities");
  cmp.add("PM All random", paperref::kTable5Pm[0].random, random[0][0], 4);
  cmp.add("PM All recurrent", paperref::kTable5Pm[0].recurrent,
          recurrent[0][0], 3);
  cmp.add("PM All ratio", paperref::kTable5Pm[0].ratio,
          recurrent[0][0] / random[0][0], 1);
  cmp.add("VM All random", paperref::kTable5Vm[0].random, random[1][0], 4);
  cmp.add("VM All recurrent", paperref::kTable5Vm[0].recurrent,
          recurrent[1][0], 3);
  cmp.add("VM All ratio", paperref::kTable5Vm[0].ratio,
          recurrent[1][0] / random[1][0], 1);

  const double pm_ratio = recurrent[0][0] / random[0][0];
  const double vm_ratio = recurrent[1][0] / random[1][0];
  cmp.check("failures are not memoryless: PM ratio above 10x",
            pm_ratio > 10.0);
  cmp.check("failures are not memoryless: VM ratio above 10x",
            vm_ratio > 10.0);
  cmp.check("VM recurrence intensity (ratio) exceeds PM",
            vm_ratio > pm_ratio);
  cmp.check("absolute recurrent probability higher for PM than VM",
            recurrent[0][0] > recurrent[1][0]);
  cmp.check("PM ratio within the paper's order of magnitude (15x-80x)",
            pm_ratio > 15.0 && pm_ratio < 80.0);
  cmp.check("Sys II VMs have zero random failure probability",
            random[1][2] == 0.0);
  return cmp;
}

// Reproduces Table VI: the percentage of failure incidents involving zero,
// one, and two-or-more servers, overall and per machine-type view, plus the
// paper's derived dependency fractions (VMs ~26%, PMs ~16%).
paperref::Comparison table6_spatial_incidents(const Context& ctx,
                                              std::ostream& out) {
  const auto& db = ctx.db;
  const auto& pipeline = ctx.pipeline;

  const auto result = analysis::analyze_spatial(db, pipeline.class_lookup());

  analysis::TextTable table({"view", "0", "1", ">=2", "dependency"});
  const auto add = [&](const std::string& view,
                       const analysis::IncidentTypeBreakdown& b) {
    table.add_row({view, format_double(100.0 * b.zero, 0) + "%",
                   format_double(100.0 * b.one, 0) + "%",
                   format_double(100.0 * b.two_or_more, 0) + "%",
                   format_double(100.0 * b.dependency_fraction(), 0) + "%"});
  };
  add("PM and VM", result.all);
  add("PM only", result.pm_only);
  add("VM only", result.vm_only);
  out << "Table VI (" << result.incident_count
      << " incidents; max servers in one incident: "
      << result.max_servers_in_incident << ")\n"
      << table.to_string() << "\n";

  paperref::Comparison cmp("Table VI -- spatial dependency of failures");
  cmp.add("incidents with one server", paperref::kTable6All.one,
          result.all.one, 3);
  cmp.add("incidents with >=2 servers", paperref::kTable6All.two_or_more,
          result.all.two_or_more, 3);
  cmp.add("VM dependency fraction", paperref::kVmDependencyFraction,
          result.vm_only.dependency_fraction(), 3);
  cmp.add("PM dependency fraction", paperref::kPmDependencyFraction,
          result.pm_only.dependency_fraction(), 3);
  cmp.add("max servers in one incident", paperref::kTable7Other.max,
          result.max_servers_in_incident, 0);

  cmp.check("~78/22 split: most incidents affect a single server",
            result.all.one > 0.65 && result.all.two_or_more < 0.35);
  cmp.check("VMs show stronger spatial dependency than PMs",
            result.vm_only.dependency_fraction() >
                result.pm_only.dependency_fraction());
  cmp.check("largest incident within 2x of the paper's 34 servers",
            result.max_servers_in_incident >= 17 &&
                result.max_servers_in_incident <= 40);
  // Documented deviation: the paper's PM-only/VM-only zero rows imply more
  // VM-involving than PM-involving incidents, which contradicts its own
  // Table II crash split; our trace follows Table II (see EXPERIMENTS.md).
  cmp.check("incidents never involve zero servers overall",
            result.all.zero == 0.0);
  return cmp;
}

// Reproduces Table VII: mean and maximum number of servers involved in
// failure incidents of each class (power incidents are the widest:
// mean 2.7, max 21).
paperref::Comparison table7_incident_size_by_class(const Context& ctx,
                                                   std::ostream& out) {
  const auto& db = ctx.db;
  const auto& pipeline = ctx.pipeline;
  const auto result = analysis::analyze_spatial(db, pipeline.class_lookup());

  analysis::TextTable table({"metric", "HW", "Net", "Power", "Reboot", "SW",
                             "Other"});
  std::vector<std::string> mean_row = {"mean"}, max_row = {"max"},
                           n_row = {"incidents"};
  for (std::size_t c = 0; c < trace::kFailureClassCount; ++c) {
    mean_row.push_back(format_double(result.by_class[c].mean, 2));
    max_row.push_back(std::to_string(result.by_class[c].max));
    n_row.push_back(std::to_string(result.by_class[c].incidents));
  }
  table.add_row(std::move(mean_row));
  table.add_row(std::move(max_row));
  table.add_row(std::move(n_row));
  out << "Table VII (servers per incident by class)\n"
      << table.to_string() << "\n";

  paperref::Comparison cmp("Table VII -- incident sizes by class");
  const char* names[] = {"HW", "Net", "Power", "Reboot", "SW"};
  for (std::size_t c = 0; c < 5; ++c) {
    cmp.add(std::string("mean ") + names[c], paperref::kTable7[c].mean,
            result.by_class[c].mean, 2);
    cmp.add(std::string("max ") + names[c], paperref::kTable7[c].max,
            result.by_class[c].max, 0);
  }
  cmp.add("mean other", paperref::kTable7Other.mean,
          result.by_class[5].mean, 2);
  cmp.add("max other", paperref::kTable7Other.max, result.by_class[5].max,
          0);

  const auto power = static_cast<std::size_t>(trace::FailureClass::kPower);
  const auto sw = static_cast<std::size_t>(trace::FailureClass::kSoftware);
  const auto reboot = static_cast<std::size_t>(trace::FailureClass::kReboot);
  const auto hw = static_cast<std::size_t>(trace::FailureClass::kHardware);
  cmp.check("power incidents affect the most servers on average",
            result.by_class[power].mean > result.by_class[sw].mean &&
                result.by_class[power].mean > result.by_class[hw].mean &&
                result.by_class[power].mean > result.by_class[reboot].mean);
  cmp.check("software is the second-widest real class",
            result.by_class[sw].mean > result.by_class[reboot].mean &&
                result.by_class[sw].mean > result.by_class[hw].mean);
  cmp.check("reboot incidents are among the narrowest (paper: 1.1 vs "
            "hardware 1.2)",
            result.by_class[reboot].mean <= result.by_class[hw].mean + 0.10);
  cmp.check("power incidents stay local (max ~21 servers, not datacenter "
            "scale)",
            result.by_class[power].max >= 8 &&
                result.by_class[power].max <= 30);
  cmp.check("per-class means within 0.6 of the paper's values",
            [&] {
              for (std::size_t c = 0; c < 5; ++c) {
                if (result.by_class[c].incidents == 0) continue;
                if (std::abs(result.by_class[c].mean -
                             paperref::kTable7[c].mean) > 0.6) {
                  return false;
                }
              }
              return true;
            }());
  return cmp;
}

// Reproduces Fig. 6: failures vs VM age. The paper finds the age CDF close
// to the diagonal (no bathtub) with a weak positive trend in the PDF, over
// the ~75% of VMs whose creation date is observable.
paperref::Comparison fig6_vm_age(const Context& ctx, std::ostream& out) {
  const auto& db = ctx.db;
  const auto& pipeline = ctx.pipeline;

  const auto result = analysis::analyze_vm_age(db, pipeline.failures());

  analysis::TextTable curve({"age percentile", "age (days)", "uniform ref"});
  if (!result.failure_age_days.empty()) {
    const stats::Ecdf cdf(result.failure_age_days);
    const double max_age = cdf.sorted_values().back();
    for (double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      curve.add_row({format_double(100.0 * p, 0) + "%",
                     format_double(cdf.quantile(p), 1),
                     format_double(p * max_age, 1)});
    }
  }
  out << "Fig. 6 (failure count vs VM age; CDF vs the diagonal)\n"
      << curve.to_string() << "\n";

  analysis::TextTable pdf({"age bin (30d)", "normalized failure count"});
  for (std::size_t b = 0; b < result.binned_pdf.size(); ++b) {
    pdf.add_row({std::to_string(b), format_double(result.binned_pdf[b], 2)});
  }
  out << pdf.to_string() << "\n";

  paperref::Comparison cmp("Fig. 6 -- VM age vs failures");
  cmp.add("observable VM fraction", paperref::kVmObservableAgeShare,
          result.observable_fraction, 3);
  cmp.add("KS distance of age CDF to uniform", 0.05,
          result.ks_distance_to_uniform, 3);
  cmp.add("PDF trend slope (weakly positive)", 0.01,
          result.pdf_trend_slope, 4);

  cmp.check("~75% of VMs have observable creation dates",
            std::abs(result.observable_fraction -
                     paperref::kVmObservableAgeShare) < 0.10);
  cmp.check("age CDF is close to the diagonal (no bathtub)",
            result.ks_distance_to_uniform < 0.25);
  cmp.check("failures show a weak positive trend with age (slope >= 0)",
            result.pdf_trend_slope > -0.005);
  cmp.check("age sample is non-trivial",
            result.failure_age_days.size() > 100);
  return cmp;
}

// Reproduces Fig. 7: weekly failure rates vs resource capacity — CPU counts
// (PM and VM), memory size (PM and VM), VM disk capacity, and VM disk count.
// The disk panels are VM-only because the dataset (like the paper's) has no
// PM disk information.
paperref::Comparison fig7_capacity(const Context& ctx, std::ostream& out) {
  const auto& db = ctx.db;
  const auto& failures = ctx.pipeline.failures();

  const analysis::Scope pm{trace::MachineType::kPhysical, std::nullopt};
  const analysis::Scope vm{trace::MachineType::kVirtual, std::nullopt};

  const analysis::CapacityAttribute cpu =
      [](const trace::ServerRecord& s) {
        return std::optional<double>(s.cpu_count);
      };
  const analysis::CapacityAttribute memory =
      [](const trace::ServerRecord& s) {
        return std::optional<double>(s.memory_gb);
      };
  const analysis::CapacityAttribute disk_gb =
      [](const trace::ServerRecord& s) { return s.disk_gb; };
  const analysis::CapacityAttribute disk_count =
      [](const trace::ServerRecord& s) {
        return s.disk_count ? std::optional<double>(*s.disk_count)
                            : std::nullopt;
      };

  // (a) CPU counts.
  const auto pm_cpu = analysis::capacity_binned_rates(
      db, failures, pm, cpu,
      stats::BinSpec::from_edges({1, 2, 3, 6, 12, 20, 28, 48, 128}));
  const auto vm_cpu = analysis::capacity_binned_rates(
      db, failures, vm, cpu, stats::BinSpec::from_edges({1, 2, 3, 6, 16}));
  out << render_binned("Fig. 7(a) PM rate vs CPU count", pm_cpu)
      << "\n"
      << render_binned("Fig. 7(a) VM rate vs vCPU count", vm_cpu)
      << "\n";

  // (b) Memory size (GB).
  const auto pm_mem = analysis::capacity_binned_rates(
      db, failures, pm, memory,
      stats::BinSpec::from_edges({1, 6, 48, 96, 192, 512}));
  const auto vm_mem = analysis::capacity_binned_rates(
      db, failures, vm, memory,
      stats::BinSpec::from_edges({0.1, 6, 12, 24, 64}));
  out << render_binned("Fig. 7(b) PM rate vs memory GB", pm_mem)
      << "\n"
      << render_binned("Fig. 7(b) VM rate vs memory GB", vm_mem)
      << "\n";

  // (c)+(d) VM disk capacity and count.
  const auto vm_disk = analysis::capacity_binned_rates(
      db, failures, vm, disk_gb,
      stats::BinSpec::from_edges({1, 12, 24, 48, 8192}));
  const auto vm_disks = analysis::capacity_binned_rates(
      db, failures, vm, disk_count,
      stats::BinSpec::from_edges({1, 2, 3, 4, 5, 6, 7}));
  out << render_binned("Fig. 7(c) VM rate vs disk capacity GB", vm_disk)
      << "\n"
      << render_binned("Fig. 7(d) VM rate vs number of disks", vm_disks)
      << "\n";

  // Trend scores (Kendall-style, +1 = strictly increasing across bins).
  const auto trend = [](const analysis::BinnedRates& rates) {
    std::vector<double> populated;
    for (std::size_t b = 0; b < rates.population.size(); ++b) {
      if (rates.population[b] > 0) populated.push_back(rates.overall_rate[b]);
    }
    return stats::monotonic_trend(populated);
  };
  out << "trend scores: VM disks "
      << format_double(trend(vm_disks), 2) << ", VM vCPUs "
      << format_double(trend(vm_cpu), 2) << ", VM disk capacity "
      << format_double(trend(vm_disk), 2) << "\n\n";

  paperref::Comparison cmp("Fig. 7 -- impact of resource capacity");
  cmp.add("PM CPU factor (max/min rate)", paperref::kPmCpuFactor,
          pm_cpu.max_min_rate_factor(), 1);
  cmp.add("VM CPU factor", paperref::kVmCpuFactor,
          vm_cpu.max_min_rate_factor(), 1);
  cmp.add("PM memory factor", paperref::kPmMemFactor,
          pm_mem.max_min_rate_factor(), 1);
  cmp.add("VM memory factor", paperref::kVmMemFactor,
          vm_mem.max_min_rate_factor(), 1);
  cmp.add("VM disk-count factor", paperref::kVmDiskCountFactor,
          vm_disks.max_min_rate_factor(), 1);
  cmp.add("VM rate at 8 GB disks", paperref::kVmDiskCapLowRate,
          vm_disk.overall_rate[0], 5);
  cmp.add("VM rate at >=32 GB disks", paperref::kVmDiskCapHighRate,
          vm_disk.overall_rate[3], 5);

  // Shape checks mirroring the Section V-A prose.
  const auto& pmc = pm_cpu.overall_rate;
  cmp.check("PM rate rises with CPUs up to 24, then drops at 32/64",
            pmc[5] > pmc[0] && pmc[5] > pmc[1] && pmc[5] > pmc[6] &&
                pmc[5] > pmc[7]);
  cmp.check("VM rate rises ~2.5x from 1 to 8 vCPUs",
            vm_cpu.overall_rate[3] > 1.5 * vm_cpu.overall_rate[0]);
  const auto& pmm = pm_mem.overall_rate;
  cmp.check("PM memory shows a bathtub: high at <=4 GB and at >=128 GB",
            pmm[0] > pmm[1] && pmm[4] > pmm[1] && pmm[3] > pmm[1]);
  const auto& vmm = vm_mem.overall_rate;
  cmp.check("VM memory dips in the 4-8 GB band and rises to 32 GB",
            vmm[1] < vmm[0] && vmm[3] > vmm[1]);
  // The small-disk bins hold only ~200 VMs each (15% of VMs sit below
  // 32 GB, as in the paper), so adjacent bins are noisy; the check compares
  // the ends of the rise and the plateau.
  const auto& vdc = vm_disk.overall_rate;
  cmp.check("VM disk-capacity rate rises below 32 GB, then plateaus",
            vdc[0] < 0.5 * vdc[3] && vdc[1] < vdc[3] &&
                vdc[2] < 1.3 * vdc[3] && vdc[3] < 0.008);
  const auto& vdn = vm_disks.overall_rate;
  cmp.check("VM rate increases monotonically with the number of disks",
            vdn[0] < vdn[1] && vdn[1] < vdn[2] && vdn[2] <= vdn[5] * 1.2);
  cmp.check("disk count is the strongest VM capacity factor (~10x)",
            vm_disks.max_min_rate_factor() >
                    vm_cpu.max_min_rate_factor() &&
                vm_disks.max_min_rate_factor() >
                    vm_mem.max_min_rate_factor());
  return cmp;
}

// Reproduces Fig. 8: weekly failure rates vs resource usage — CPU and
// memory utilization for both machine types, and disk utilization / network
// traffic for VMs (the dataset has no PM disk/network usage, as in the
// paper).
paperref::Comparison fig8_usage(const Context& ctx, std::ostream& out) {
  const auto& db = ctx.db;
  const auto& failures = ctx.pipeline.failures();

  const analysis::Scope pm{trace::MachineType::kPhysical, std::nullopt};
  const analysis::Scope vm{trace::MachineType::kVirtual, std::nullopt};

  const analysis::UsageAttribute cpu = [](const trace::WeeklyUsage& u) {
    return std::optional<double>(u.cpu_util);
  };
  const analysis::UsageAttribute mem = [](const trace::WeeklyUsage& u) {
    return std::optional<double>(u.mem_util);
  };
  const analysis::UsageAttribute disk = [](const trace::WeeklyUsage& u) {
    return u.disk_util;
  };
  const analysis::UsageAttribute net = [](const trace::WeeklyUsage& u) {
    return u.net_kbps;
  };

  const auto util_bins =
      stats::BinSpec::from_edges({0, 10, 20, 30, 50, 70, 100});
  const auto net_bins =
      stats::BinSpec::from_edges({0, 2, 8, 64, 512, 2048, 10000});

  const auto pm_cpu = analysis::usage_binned_rates(db, failures, pm, cpu,
                                                   util_bins);
  const auto vm_cpu = analysis::usage_binned_rates(db, failures, vm, cpu,
                                                   util_bins);
  const auto pm_mem = analysis::usage_binned_rates(db, failures, pm, mem,
                                                   util_bins);
  const auto vm_mem = analysis::usage_binned_rates(db, failures, vm, mem,
                                                   util_bins);
  const auto vm_disk = analysis::usage_binned_rates(db, failures, vm, disk,
                                                    util_bins);
  const auto vm_net = analysis::usage_binned_rates(db, failures, vm, net,
                                                   net_bins);

  out << render_binned("Fig. 8(a) PM rate vs CPU util %", pm_cpu, 100)
      << "\n"
      << render_binned("Fig. 8(a) VM rate vs CPU util %", vm_cpu, 100)
      << "\n"
      << render_binned("Fig. 8(b) PM rate vs memory util %", pm_mem, 100)
      << "\n"
      << render_binned("Fig. 8(b) VM rate vs memory util %", vm_mem, 100)
      << "\n"
      << render_binned("Fig. 8(c) VM rate vs disk util %", vm_disk, 100)
      << "\n"
      << render_binned("Fig. 8(d) VM rate vs network kbps", vm_net, 100)
      << "\n";

  paperref::Comparison cmp("Fig. 8 -- impact of resource usage");
  cmp.add("VM CPU-util factor (max/min)", 10.0,
          vm_cpu.max_min_rate_factor(), 1);
  cmp.add("PM mem-util factor", 4.0, pm_mem.max_min_rate_factor(), 1);
  cmp.add("VM disk-util low rate", 0.001, vm_disk.overall_rate[0], 5);
  cmp.add("VM disk-util high rate", 0.003,
          vm_disk.overall_rate[vm_disk.overall_rate.size() - 1], 5);

  const auto& vc = vm_cpu.overall_rate;
  cmp.check("VM rate increases with CPU utilization over 0-30%",
            vc[0] < vc[1] && vc[1] < vc[2]);
  const auto& pc = pm_cpu.overall_rate;
  cmp.check("PM rate decreases with CPU utilization over 0-30%",
            pc[0] > pc[1] && pc[1] > pc[2]);
  const auto& pmm = pm_mem.overall_rate;
  cmp.check("PM memory-util follows an inverted bathtub (peak mid-range)",
            pmm[2] > pmm[0] && pmm[2] > pmm[5]);
  const auto& vmm = vm_mem.overall_rate;
  cmp.check("VM memory-util follows an inverted bathtub",
            vmm[1] > vmm[0] && vmm[2] > vmm[5]);
  const auto& vd = vm_disk.overall_rate;
  cmp.check("VM rate increases mildly with disk utilization",
            vd[0] < vd[4] && vd[5] > vd[0]);
  // The sub-2-kbps bin holds a few hundred server-weeks only; the trend is
  // judged on the populated bins, as in the paper (45% of VMs at 2-64 kbps).
  const auto& vn = vm_net.overall_rate;
  cmp.check("VM network: rate peaks in the 8-64 kbps band and declines "
            "toward high volumes",
            vn[2] > 1.4 * vn[1] && vn[2] > 1.4 * vn[3] &&
                vn[5] < 0.6 * vn[2]);
  cmp.check("memory utilization dominates PM usage factors",
            pm_mem.max_min_rate_factor() > 1.5);
  return cmp;
}

// Reproduces Fig. 9: the impact of the VM consolidation level (co-located
// VMs per hosting box, averaged monthly) on weekly VM failure rates — the
// paper's finding that failure rates *decrease* with consolidation.
paperref::Comparison fig9_consolidation(const Context& ctx, std::ostream& out) {
  const auto& db = ctx.db;
  const auto& failures = ctx.pipeline.failures();

  const auto result = analysis::consolidation_binned_rates(db, failures);
  out << render_binned(
             "Fig. 9 (VM weekly failure rate vs consolidation level)",
             result)
      << "\n";

  // Population shares across levels (paper: 0.6% at level 1, ~30% and ~32%
  // at 16 and 32).
  std::size_t total = 0;
  for (std::size_t n : result.population) total += n;
  out << "population shares: ";
  for (std::size_t b = 0; b < result.population.size(); ++b) {
    out << result.spec.label(b) << "="
        << format_double(100.0 * result.population[b] / total, 1)
        << "% ";
  }
  out << "\n\n";

  paperref::Comparison cmp("Fig. 9 -- impact of VM consolidation");
  const auto& rates = result.overall_rate;
  const std::size_t last = rates.size() - 1;
  // Statistically meaningful bins only: the level-1 bin holds ~0.6% of VMs
  // (a few dozen machines), exactly as in the paper's population.
  constexpr std::size_t kMinPopulation = 100;
  std::size_t first_solid = 0;
  while (first_solid < last && result.population[first_solid] < kMinPopulation)
    ++first_solid;

  cmp.add("rate at low consolidation", 0.006, rates[first_solid], 5);
  cmp.add("rate at highest consolidation", 0.002, rates[last], 5);
  cmp.add("share of VMs at level >= 9", 0.60,
          static_cast<double>(result.population[last] +
                              result.population[last - 1]) /
              total,
          2);

  bool non_increasing = true;
  for (std::size_t b = first_solid + 1; b < rates.size(); ++b) {
    if (result.population[b] < kMinPopulation ||
        result.population[b - 1] < kMinPopulation) {
      continue;
    }
    non_increasing &= rates[b] <= rates[b - 1] * 1.15;  // small noise band
  }
  cmp.check("failure rate decreases with consolidation level",
            non_increasing);
  cmp.check("high-consolidation VMs fail well below low-consolidation ones "
            "(paper: ~3x; band >= 1.5x)",
            rates[first_solid] > 1.5 * rates[last]);
  cmp.check("population increases with consolidation (Fig. 9 prose)",
            result.population[0] < result.population[last]);
  return cmp;
}

// Reproduces Fig. 10: the impact of the VM on/off frequency (measured from
// the 15-min power data of the two-month tracking window, extrapolated to
// the year) on weekly VM failure rates. The paper finds an increasing trend
// up to ~2 cycles/month and no clear trend beyond.
paperref::Comparison fig10_onoff(const Context& ctx, std::ostream& out) {
  const auto& db = ctx.db;
  const auto& failures = ctx.pipeline.failures();

  const auto result = analysis::onoff_binned_rates(db, failures);
  out << render_binned(
             "Fig. 10 (VM weekly failure rate vs on/off per month)",
             result)
      << "\n";

  std::size_t total = 0;
  for (std::size_t n : result.population) total += n;
  out << "population shares: ";
  for (std::size_t b = 0; b < result.population.size(); ++b) {
    out << result.spec.label(b) << "="
        << format_double(100.0 * result.population[b] / total, 1)
        << "% ";
  }
  out << "\n\n";

  const auto& rates = result.overall_rate;
  const double at_most_once =
      static_cast<double>(result.population[0] + result.population[1]) /
      total;

  paperref::Comparison cmp("Fig. 10 -- impact of VM on/off frequency");
  cmp.add("share of VMs cycling at most once/month",
          paperref::kOnOffAtMostOncePerMonth, at_most_once, 2);
  cmp.add("rate with no cycling", 0.002, rates[0], 5);
  cmp.add("rate around 2 cycles/month", 0.0035, rates[2], 5);

  // The paper reports a rise from 0.002 to 0.0035 over 0 to ~2 cycles and
  // fluctuation without trend beyond; the measured-frequency bins mix
  // nominal rates (two-month Poisson sampling), so the check compares the
  // no-cycling bin against the 0-2 cycle band as a whole.
  cmp.check("rate increases from 0 to ~2 cycles/month",
            rates[0] < rates[1] && rates[0] < rates[2] &&
                rates[0] < 0.8 * std::max(rates[1], rates[2]));
  cmp.check("no strong deterioration at high frequencies (within 1.5x of "
            "the 2/month rate)",
            rates[rates.size() - 1] < 1.5 * rates[2] &&
                rates[rates.size() - 1] > rates[0] * 0.8);
  cmp.check("majority of VMs cycle at most once per month",
            at_most_once > 0.5);
  return cmp;
}

// Ablation: switch off the aftershock (self-excitation) process and show
// that Table V's recurrent-vs-random ratio collapses — i.e. the measured
// non-memorylessness is driven by the recurrence mechanism, not by hazard
// heterogeneity or the analysis pipeline.
paperref::Comparison ablation_recurrence(const Context& ctx,
                                         std::ostream& out) {
  const auto& baseline = ctx.db;
  const auto ablated = sim::simulate(sim::apply_ablation(
      sim::SimulationConfig::paper_defaults(), sim::Ablation::kNoAftershocks));

  analysis::TextTable table({"variant", "type", "random", "recurrent",
                             "ratio"});
  std::array<std::array<double, 2>, 2> ratios{};  // [variant][type]
  const auto add = [&](const trace::TraceDatabase& db,
                       const std::string& name, int variant) {
    const auto failures = db.crash_tickets();
    for (int t = 0; t < trace::kMachineTypeCount; ++t) {
      const analysis::Scope scope{static_cast<trace::MachineType>(t),
                                  std::nullopt};
      const double random = analysis::random_failure_probability(
          db, failures, scope, analysis::Granularity::kWeekly);
      const double recurrent = analysis::recurrent_probability(
          db, failures, scope, kMinutesPerWeek);
      const double ratio = random > 0 ? recurrent / random : 0.0;
      ratios[static_cast<std::size_t>(variant)][static_cast<std::size_t>(t)] =
          ratio;
      table.add_row({name,
                     std::string(trace::to_string(
                         static_cast<trace::MachineType>(t))),
                     format_double(random, 4), format_double(recurrent, 3),
                     format_double(ratio, 1) + "x"});
    }
  };
  add(baseline, "baseline", 0);
  add(ablated, "no-aftershocks", 1);
  out << "Ablation: recurrence mechanism vs Table V ratios\n"
      << table.to_string() << "\n";

  paperref::Comparison cmp("Ablation -- aftershocks drive recurrence");
  cmp.add("baseline PM ratio", paperref::kTable5Pm[0].ratio, ratios[0][0], 1);
  cmp.add("ablated PM ratio", 1.0, ratios[1][0], 1);
  cmp.add("baseline VM ratio", paperref::kTable5Vm[0].ratio, ratios[0][1], 1);
  cmp.add("ablated VM ratio", 1.0, ratios[1][1], 1);
  cmp.check("baseline ratios are tens of x (Table V)",
            ratios[0][0] > 15.0 && ratios[0][1] > 15.0);
  // A small residual VM recurrence survives without aftershocks: box
  // siblings can be co-hit by several independent incidents of their host.
  cmp.check("ablated ratios collapse several-fold",
            ratios[1][0] < 0.30 * ratios[0][0] &&
                ratios[1][1] < 0.35 * ratios[0][1]);
  return cmp;
}

// Ablation: switch off spatial incident expansion and show that Table VI's
// multi-server share vanishes — the measured spatial dependency is produced
// by the propagation mechanism (boxes, power domains, app groups).
paperref::Comparison ablation_propagation(const Context& ctx,
                                          std::ostream& out) {
  const auto ablated = sim::simulate(sim::apply_ablation(
      sim::SimulationConfig::paper_defaults(), sim::Ablation::kNoPropagation));

  analysis::TextTable table(
      {"variant", "1 server", ">=2 servers", "max incident", "VM dep",
       "PM dep"});
  std::array<analysis::SpatialAnalysis, 2> results;
  const auto add = [&](const analysis::AnalysisPipeline& pipeline,
                       const std::string& name, int variant) {
    results[static_cast<std::size_t>(variant)] =
        analysis::analyze_spatial(pipeline.db(), pipeline.class_lookup());
    const auto& r = results[static_cast<std::size_t>(variant)];
    table.add_row({name, format_double(100.0 * r.all.one, 1) + "%",
                   format_double(100.0 * r.all.two_or_more, 1) + "%",
                   std::to_string(r.max_servers_in_incident),
                   format_double(100.0 * r.vm_only.dependency_fraction(), 1) +
                       "%",
                   format_double(100.0 * r.pm_only.dependency_fraction(), 1) +
                       "%"});
  };
  add(ctx.pipeline, "baseline", 0);
  add(analysis::AnalysisPipeline(ablated), "no-propagation", 1);
  out << "Ablation: spatial propagation vs Table VI\n"
      << table.to_string() << "\n";

  paperref::Comparison cmp("Ablation -- propagation drives spatial "
                           "dependency");
  cmp.add("baseline >=2-server share", paperref::kTable6All.two_or_more,
          results[0].all.two_or_more, 3);
  cmp.add("ablated >=2-server share", 0.0, results[1].all.two_or_more, 3);
  cmp.check("baseline shows the paper's multi-server incidents",
            results[0].all.two_or_more > 0.08);
  cmp.check("ablated incidents are all singletons",
            results[1].all.two_or_more == 0.0 &&
                results[1].max_servers_in_incident == 1);
  cmp.check("baseline VM dependency exceeds PM dependency",
            results[0].vm_only.dependency_fraction() >
                results[0].pm_only.dependency_fraction());
  return cmp;
}

// Ablation: flatten all hazard multiplier curves and show that the
// capacity/usage factors of Figs. 7-10 collapse toward 1x — the analysis
// recovers the generator's covariate structure rather than inventing it.
paperref::Comparison ablation_covariates(const Context& ctx,
                                         std::ostream& out) {
  const auto& baseline = ctx.db;
  const auto ablated = sim::simulate(sim::apply_ablation(
      sim::SimulationConfig::paper_defaults(), sim::Ablation::kFlatCovariates));

  const analysis::CapacityAttribute disks = [](const trace::ServerRecord& s) {
    return s.disk_count ? std::optional<double>(*s.disk_count) : std::nullopt;
  };
  const analysis::CapacityAttribute cpu = [](const trace::ServerRecord& s) {
    return std::optional<double>(s.cpu_count);
  };
  const analysis::Scope vm{trace::MachineType::kVirtual, std::nullopt};
  const analysis::Scope pm{trace::MachineType::kPhysical, std::nullopt};

  analysis::TextTable table({"factor", "baseline", "flat-covariates"});
  const auto factor_pair = [&](const trace::TraceDatabase& base_db,
                               const trace::TraceDatabase& flat_db,
                               const analysis::Scope& scope,
                               const analysis::CapacityAttribute& attr,
                               std::vector<double> edges) {
    const auto base_rates = analysis::capacity_binned_rates(
        base_db, base_db.crash_tickets(), scope, attr,
        stats::BinSpec::from_edges(edges));
    const auto flat_rates = analysis::capacity_binned_rates(
        flat_db, flat_db.crash_tickets(), scope, attr,
        stats::BinSpec::from_edges(std::move(edges)));
    return std::pair<double, double>{base_rates.max_min_rate_factor(),
                                     flat_rates.max_min_rate_factor()};
  };

  const auto disk_factors =
      factor_pair(baseline, ablated, vm, disks, {1, 2, 3, 4, 5, 6, 7});
  table.add_row({"VM disk count (paper ~10x)",
                 format_double(disk_factors.first, 1) + "x",
                 format_double(disk_factors.second, 1) + "x"});
  const auto cpu_factors =
      factor_pair(baseline, ablated, pm, cpu,
                  {1, 2, 3, 6, 12, 20, 28, 48, 128});
  table.add_row({"PM CPU count (paper ~5.5x)",
                 format_double(cpu_factors.first, 1) + "x",
                 format_double(cpu_factors.second, 1) + "x"});

  // Consolidation factor (Fig. 9).
  const auto base_consol = analysis::consolidation_binned_rates(
      baseline, baseline.crash_tickets());
  const auto flat_consol =
      analysis::consolidation_binned_rates(ablated, ablated.crash_tickets());
  table.add_row({"VM consolidation (paper ~3x)",
                 format_double(base_consol.max_min_rate_factor(), 1) + "x",
                 format_double(flat_consol.max_min_rate_factor(), 1) + "x"});

  out << "Ablation: covariate curves vs Figs. 7/9 factors\n"
      << table.to_string() << "\n";

  paperref::Comparison cmp("Ablation -- curves drive covariate factors");
  cmp.add("baseline disk-count factor", paperref::kVmDiskCountFactor,
          disk_factors.first, 1);
  cmp.add("ablated disk-count factor", 1.0, disk_factors.second, 1);
  cmp.check("baseline shows strong covariate factors",
            disk_factors.first > 4.0 && cpu_factors.first > 3.0);
  cmp.check("ablated factors collapse toward 1x (within sampling noise)",
            disk_factors.second < 0.4 * disk_factors.first &&
                cpu_factors.second < 0.5 * cpu_factors.first);
  return cmp;
}

// Extension: follow-on failure class transitions. The paper's related-work
// section highlights (citing El-Sayed & Schroeder, DSN'13) that failure
// classes are strongly correlated — power problems induce follow-on
// failures "of any kind". This experiment measures the same-server weekly
// class-transition matrix on our trace and checks the structure the
// generator encodes (software recurs as software; infrastructure classes
// seldom recur as themselves).
paperref::Comparison ext_class_transitions(const Context& ctx,
                                           std::ostream& out) {
  const auto& db = ctx.db;
  const auto& pipeline = ctx.pipeline;

  const auto result = analysis::analyze_transitions(
      db, pipeline.failures(), pipeline.class_lookup(), kMinutesPerWeek);

  analysis::TextTable table({"from \\ to", "HW", "Net", "Power", "Reboot",
                             "SW", "Other", "P(follow-up)"});
  for (trace::FailureClass from : trace::kAllFailureClasses) {
    const auto i = static_cast<std::size_t>(from);
    std::vector<std::string> row = {std::string(trace::to_string(from))};
    for (std::size_t j = 0; j < trace::kFailureClassCount; ++j) {
      row.push_back(format_double(result.probability[i][j], 2));
    }
    row.push_back(format_double(result.followup_probability[i], 3));
    table.add_row(std::move(row));
  }
  out << "Extension: same-server class transitions within a week\n"
      << table.to_string() << "\n";

  const double sw_self =
      result.self_transition(trace::FailureClass::kSoftware);
  const double hw_self =
      result.self_transition(trace::FailureClass::kHardware);
  const double power_follow = result.followup_probability[static_cast<
      std::size_t>(trace::FailureClass::kPower)];

  paperref::Comparison cmp(
      "Extension -- class-transition structure of follow-on failures");
  cmp.add("software self-transition", 0.5, sw_self, 2);
  cmp.add("hardware self-transition", 0.1, hw_self, 2);
  cmp.add("P(follow-up | power failure)", paperref::kRecurrentWeekPm,
          power_follow, 3);
  cmp.check("software problems recur as software far more than hardware "
            "recurs as hardware",
            sw_self > hw_self + 0.1);
  cmp.check("power failures induce follow-on failures of any kind "
            "(no dominant destination class)",
            [&] {
              const auto i =
                  static_cast<std::size_t>(trace::FailureClass::kPower);
              for (std::size_t j = 0; j < trace::kFailureClassCount; ++j) {
                if (result.probability[i][j] > 0.75) return false;
              }
              return power_follow > 0.05;
            }());
  cmp.check("every class's follow-up probability is below the all-class "
            "weekly recurrence ceiling",
            [&] {
              for (double p : result.followup_probability) {
                if (p > 0.6) return false;
              }
              return true;
            }());
  return cmp;
}

// Extension: non-parametric hazard rates of inter-failure times. The
// paper's finding that failures are "not memoryless" (recurrence 35-42x
// random, Gamma shape < 1 fits) predicts a strongly *decreasing* hazard
// rate; an exponential/memoryless process would show a flat one. This
// experiment estimates the Nelson-Aalen hazard over the per-server
// inter-failure gaps and verifies the prediction.
paperref::Comparison ext_failure_hazard(const Context& ctx, std::ostream& out) {
  const auto& db = ctx.db;
  const auto& failures = ctx.pipeline.failures();

  const std::vector<double> edges = {0.0, 1.0, 7.0, 30.0, 90.0, 365.0};
  analysis::TextTable table({"gap range [days]", "PM hazard [1/day]",
                             "VM hazard [1/day]"});
  std::array<std::vector<double>, 2> gaps;
  std::array<std::vector<double>, 2> rates;
  for (int t = 0; t < trace::kMachineTypeCount; ++t) {
    gaps[static_cast<std::size_t>(t)] = analysis::per_server_interfailure_days(
        db, failures, {static_cast<trace::MachineType>(t), std::nullopt});
    rates[static_cast<std::size_t>(t)] =
        stats::binned_hazard_rate(gaps[static_cast<std::size_t>(t)], edges);
  }
  for (std::size_t b = 0; b + 1 < edges.size(); ++b) {
    table.add_row({'[' + format_double(edges[b], 0) + ", " +
                       format_double(edges[b + 1], 0) + ")",
                   format_double(rates[0][b], 4),
                   format_double(rates[1][b], 4)});
  }
  out << "Extension: Nelson-Aalen hazard of inter-failure times\n"
      << table.to_string() << "\n";

  const double pm_factor = stats::hazard_decrease_factor(gaps[0], edges);
  const double vm_factor = stats::hazard_decrease_factor(gaps[1], edges);
  const double pm_dispersion = analysis::dispersion_index(
      db, failures, {trace::MachineType::kPhysical, std::nullopt},
      analysis::Granularity::kDaily);
  const double vm_dispersion = analysis::dispersion_index(
      db, failures, {trace::MachineType::kVirtual, std::nullopt},
      analysis::Granularity::kDaily);

  paperref::Comparison cmp(
      "Extension -- decreasing hazard confirms non-memorylessness");
  cmp.add("PM hazard decrease factor (first/last bin)", 30.0, pm_factor, 1);
  cmp.add("VM hazard decrease factor", 30.0, vm_factor, 1);
  cmp.add("PM daily dispersion index (Poisson = 1)", 2.0, pm_dispersion, 2);
  cmp.add("VM daily dispersion index (Poisson = 1)", 2.0, vm_dispersion, 2);
  cmp.check("PM hazard decreases by more than 10x across the gap range",
            pm_factor > 10.0);
  cmp.check("VM hazard decreases by more than 10x across the gap range",
            vm_factor > 10.0);
  cmp.check("daily failure counts are super-Poissonian (dispersion > 1.3)",
            pm_dispersion > 1.3 && vm_dispersion > 1.3);
  // The final bin is excluded: gaps close to the one-year observation span
  // are right-window artifacts (the at-risk set collapses near the maximum
  // observable gap, inflating the Nelson-Aalen increments).
  cmp.check("hazard decreases monotonically up to the 90-day bin (both "
            "types)",
            [&] {
              for (int t = 0; t < 2; ++t) {
                const auto& r = rates[static_cast<std::size_t>(t)];
                for (std::size_t b = 1; b + 1 < r.size(); ++b) {
                  if (r[b] <= 0.0) continue;  // beyond data
                  if (r[b] > r[b - 1] * 1.05) return false;
                }
              }
              return true;
            }());
  return cmp;
}

struct Experiment {
  std::string_view id;
  std::string_view paper_ref;
  paperref::Comparison (*run)(const Context&, std::ostream&);
  // Shape checks asserted to print [CHECK]; see "Known deviations" in
  // EXPERIMENTS.md.
  std::vector<std::string> known_deviations;
};

const std::array<Experiment, 21> kExperiments = {{
    {"table2_dataset", "Table II — dataset statistics", table2_dataset, {}},
    {"fig1_ticket_classes",
     "Fig. 1 — ticket distribution across failure classes",
     fig1_ticket_classes,
     {}},
    {"fig2_failure_rates", "Fig. 2 — weekly failure rates",
     fig2_failure_rates, {}},
    {"fig3_interfailure_cdf", "Fig. 3 — inter-failure time CDF and Gamma fit",
     fig3_interfailure_cdf, {}},
    {"table3_interfailure_by_class",
     "Table III — inter-failure times by root cause",
     table3_interfailure_by_class,
     {}},
    {"fig4_repair_cdf", "Fig. 4 — repair time CDF and LogNormal fit",
     fig4_repair_cdf, {}},
    {"table4_repair_by_class", "Table IV — repair times by class",
     table4_repair_by_class, {}},
    {"fig5_recurrent_prob", "Fig. 5 — recurrent failure probabilities",
     fig5_recurrent_prob, {}},
    {"table5_random_vs_recurrent",
     "Table V — random vs recurrent probabilities",
     table5_random_vs_recurrent,
     {}},
    {"table6_spatial_incidents", "Table VI — spatial dependency of failures",
     table6_spatial_incidents, {}},
    {"table7_incident_size_by_class", "Table VII — incident sizes by class",
     table7_incident_size_by_class, {}},
    {"fig6_vm_age", "Fig. 6 — VM age vs failures", fig6_vm_age, {}},
    {"fig7_capacity", "Fig. 7 — impact of resource capacity", fig7_capacity,
     {}},
    {"fig8_usage", "Fig. 8 — impact of resource usage", fig8_usage, {}},
    {"fig9_consolidation", "Fig. 9 — impact of VM consolidation",
     fig9_consolidation,
     {"failure rate decreases with consolidation level"}},
    {"fig10_onoff", "Fig. 10 — impact of VM on/off frequency", fig10_onoff,
     {}},
    {"ablation_recurrence", "Ablation A — aftershocks drive recurrence",
     ablation_recurrence, {}},
    {"ablation_propagation",
     "Ablation B — propagation drives spatial dependency",
     ablation_propagation,
     {}},
    {"ablation_covariates",
     "Ablation C — covariate curves drive capacity/usage factors",
     ablation_covariates,
     {"ablated factors collapse toward 1x (within sampling noise)"}},
    {"ext_class_transitions",
     "Extension A — same-server failure class transitions",
     ext_class_transitions,
     {}},
    {"ext_failure_hazard",
     "Extension B — Nelson-Aalen hazard and dispersion of inter-failure "
     "times",
     ext_failure_hazard,
     {}},
}};

int usage_error(const std::string& message) {
  std::cerr << "fa_repro: " << message
            << "\nusage: fa_repro [--threads N] [--no-obs] [--metrics PATH] "
               "[--trace-out PATH] [ID...]\nexperiment IDs:";
  for (const Experiment& e : kExperiments) std::cerr << ' ' << e.id;
  std::cerr << '\n';
  return 2;
}

// Runs the selected experiments, printing each as a markdown section, and
// returns the verdict-gate mismatches prefixed with the experiment ID.
std::vector<std::string> run(const std::vector<bool>& selected) {
  const trace::TraceDatabase db =
      sim::simulate(sim::SimulationConfig::paper_defaults());
  const analysis::AnalysisPipeline pipeline(db);
  const Context ctx{db, pipeline};
  std::vector<std::string> mismatches;
  for (std::size_t i = 0; i < kExperiments.size(); ++i) {
    if (!selected[i]) continue;
    const Experiment& e = kExperiments[i];
    std::cout << "\n## " << e.paper_ref << "\n\nRun: `fa_repro " << e.id
              << "`\n\n````\n";
    obs::Span span("repro." + std::string(e.id));
    const paperref::Comparison cmp = e.run(ctx, std::cout);
    span.close();
    std::cout << cmp.render() << "````\n";
    for (const std::string& m : cmp.deviation_mismatches(e.known_deviations)) {
      mismatches.push_back(std::string(e.id) + ": " + m);
    }
  }
  std::cout << std::flush;
  return mismatches;
}

}  // namespace
}  // namespace fa::repro

int main(int argc, char** argv) {
  using fa::repro::kExperiments;
  using fa::repro::usage_error;
  std::string metrics_path, trace_path;
  std::vector<bool> selected(kExperiments.size(), false);
  bool any_selected = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('=');
        arg.starts_with("--") && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg == "--threads" || arg == "--metrics" ||
               arg == "--trace-out") {
      if (i + 1 == argc) return usage_error(arg + " needs a value");
      value = argv[++i];
    }
    if (arg == "--threads") {
      const auto threads = fa::ThreadPool::parse_thread_count(value);
      if (!threads) {
        return usage_error(
            "invalid --threads value '" + value +
            "' (expected an integer from 0 to " +
            std::to_string(fa::ThreadPool::kMaxThreads) + ")");
      }
      fa::ThreadPool::set_default_thread_count(*threads);
    } else if (arg == "--metrics") {
      metrics_path = value;
    } else if (arg == "--trace-out") {
      trace_path = value;
    } else if (arg == "--no-obs") {
      fa::obs::set_enabled(false);
    } else if (arg.starts_with("-")) {
      return usage_error("unknown argument '" + arg + "'");
    } else {
      std::size_t e = 0;
      while (e < kExperiments.size() && kExperiments[e].id != arg) ++e;
      if (e == kExperiments.size()) {
        return usage_error("unknown experiment '" + arg + "'");
      }
      selected[e] = any_selected = true;
    }
  }
  if (!any_selected) selected.assign(kExperiments.size(), true);

  std::vector<std::string> mismatches;
  try {
    mismatches = fa::repro::run(selected);
  } catch (const std::exception& e) {
    std::cerr << "fa_repro: error: " << e.what() << "\n";
    return 1;
  }
  if (!fa::obs::export_registry_files(metrics_path, trace_path)) return 1;
  for (const std::string& m : mismatches) {
    std::cerr << "fa_repro: " << m << "\n";
  }
  return mismatches.empty() ? 0 : 1;
}

// Workload `repro`: the paper's reproduction path at scale 1.0 in memory.
// One pass simulates the trace, runs crash extraction + TF-IDF + sparse
// k-means classification (AnalysisPipeline), then the public analysis calls
// behind Tables II-VII and Figs. 1-10. The check is a digest of the trace,
// the predicted classes and every analysis result, which must not change
// between passes or thread counts.
#include <array>
#include <optional>
#include <sstream>
#include <vector>

#include "perfbench/sinks.h"
#include "perfbench/workloads.h"
#include "src/analysis/age.h"
#include "src/analysis/capacity_usage.h"
#include "src/analysis/failure_rates.h"
#include "src/analysis/interfailure.h"
#include "src/analysis/management.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/recurrence.h"
#include "src/analysis/reliability.h"
#include "src/analysis/repair_times.h"
#include "src/analysis/spatial.h"
#include "src/analysis/transitions.h"
#include "src/sim/config.h"
#include "src/sim/simulator.h"
#include "src/stats/fitting.h"
#include "src/stats/histogram.h"

namespace perfbench {

namespace {

using fa::analysis::Scope;
namespace trace = fa::trace;

void add_summary(Digest& d, const fa::stats::Summary& s) {
  d.add(static_cast<std::uint64_t>(s.count));
  for (double v : {s.mean, s.median, s.p25, s.p75, s.min, s.max, s.stddev}) {
    d.add(v);
  }
}

void add_binned(Digest& d, const fa::analysis::BinnedRates& rates) {
  for (std::size_t b = 0; b < rates.population.size(); ++b) {
    d.add(static_cast<std::uint64_t>(rates.population[b]));
    d.add(static_cast<std::uint64_t>(rates.failure_count[b]));
    d.add(rates.overall_rate[b]);
    add_summary(d, rates.weekly_summary[b]);
  }
}

void add_fit(Digest& d, const fa::stats::FitResult& fit) {
  d.add(fit.dist->describe());
  d.add(fit.log_likelihood);
  d.add(fit.aic);
  d.add(fit.ks_statistic);
}

// stats::fit_candidates under its own span (the stats layer inside the
// tables phase).
void add_fits(Digest& d, const std::vector<double>& sample, Tracer* tracer) {
  if (sample.size() < 2) return;
  Span span(tracer, "stats.fit");
  for (const auto& fit : fa::stats::fit_candidates(sample)) add_fit(d, fit);
}

Scope type_scope(int t) {
  return {static_cast<trace::MachineType>(t), std::nullopt};
}

// The analysis calls behind the paper's tables and figures, in the
// arguments the reproduction binaries under bench/ use; every result is
// folded into the returned digest.
std::uint64_t paper_tables(const trace::TraceDatabase& db,
                           const fa::analysis::AnalysisPipeline& pipeline,
                           Tracer* tracer) {
  namespace an = fa::analysis;
  const auto& failures = pipeline.failures();
  const auto class_of = pipeline.class_lookup();
  Digest d;

  // Table II / Fig. 1: failures per subsystem, machine type and class.
  std::array<std::array<std::uint64_t, trace::kFailureClassCount>,
             trace::kSubsystemCount * trace::kMachineTypeCount>
      counts{};
  for (const trace::Ticket* t : failures) {
    const auto type = static_cast<std::size_t>(db.server(t->server).type);
    counts[t->subsystem * trace::kMachineTypeCount + type]
          [static_cast<std::size_t>(pipeline.class_of(*t))]++;
  }
  for (const auto& row : counts) {
    for (std::uint64_t n : row) d.add(n);
  }

  for (int t = 0; t < trace::kMachineTypeCount; ++t) {
    // Fig. 2: weekly failure rates per type and per subsystem.
    add_summary(d, an::failure_rate_summary(db, failures, type_scope(t),
                                            an::Granularity::kWeekly));
    for (trace::Subsystem s = 0; s < trace::kSubsystemCount; ++s) {
      add_summary(d, an::failure_rate_summary(
                         db, failures,
                         {static_cast<trace::MachineType>(t), s},
                         an::Granularity::kWeekly));
    }
    // Figs. 3-4: inter-failure and repair times with distribution fits.
    const auto gaps =
        an::per_server_interfailure_days(db, failures, type_scope(t));
    d.add(gaps);
    add_fits(d, gaps, tracer);
    const auto census = an::failure_census(db, failures, type_scope(t));
    d.add(static_cast<std::uint64_t>(census.failing_servers));
    d.add(static_cast<std::uint64_t>(census.single_failure_servers));
    const auto hours = an::repair_hours(db, failures, type_scope(t));
    d.add(hours);
    add_fits(d, hours, tracer);
    // Fig. 5 / Table V: recurrent vs random failure probabilities.
    for (fa::Duration window :
         {fa::kMinutesPerDay, fa::kMinutesPerWeek, fa::kMinutesPerMonth}) {
      d.add(an::recurrent_probability(db, failures, type_scope(t), window));
    }
    for (int s = -1; s < trace::kSubsystemCount; ++s) {
      Scope scope = type_scope(t);
      if (s >= 0) scope.subsystem = static_cast<trace::Subsystem>(s);
      if (s >= 0 && db.server_count(*scope.type, *scope.subsystem) == 0) {
        continue;
      }
      d.add(an::random_failure_probability(db, failures, scope,
                                           an::Granularity::kWeekly));
      d.add(an::recurrent_probability(db, failures, scope,
                                      fa::kMinutesPerWeek));
    }
    // Reliability summary (MTBF, MTTR, availability, fits).
    const auto report = an::reliability_report(db, failures, type_scope(t));
    for (double v : {report.mtbf_days, report.mttr_hours,
                     report.annualized_failure_rate, report.availability}) {
      d.add(v);
    }
    if (report.interfailure_fit) add_fit(d, *report.interfailure_fit);
    if (report.repair_fit) add_fit(d, *report.repair_fit);
  }

  // Tables III-IV: inter-failure and repair times per predicted class.
  for (trace::FailureClass c : trace::kAllFailureClasses) {
    d.add(an::operator_interfailure_days(failures, c, class_of));
    d.add(an::per_server_interfailure_days(db, failures, {}, c, class_of));
    d.add(an::repair_hours(db, failures, {}, c, class_of));
  }

  // Tables VI-VII: spatial dependency and incident sizes.
  const auto spatial = an::analyze_spatial(db, class_of);
  d.add(static_cast<std::uint64_t>(spatial.incident_count));
  for (const auto& b : {spatial.all, spatial.pm_only, spatial.vm_only}) {
    d.add(b.zero);
    d.add(b.one);
    d.add(b.two_or_more);
  }
  for (const auto& c : spatial.by_class) {
    d.add(c.mean);
    d.add(c.max);
    d.add(static_cast<std::uint64_t>(c.incidents));
  }

  // Fig. 6: VM age.
  const auto age = an::analyze_vm_age(db, failures);
  d.add(age.observable_fraction);
  d.add(age.failure_age_days);
  d.add(age.ks_distance_to_uniform);
  d.add(age.pdf_trend_slope);
  d.add(age.binned_pdf);

  // Fig. 7: capacity. Fig. 8: usage. Figs. 9-10: consolidation, on/off.
  using fa::stats::BinSpec;
  const Scope pm = type_scope(0);
  const Scope vm = type_scope(1);
  const an::CapacityAttribute cpus = [](const trace::ServerRecord& s) {
    return std::optional<double>(s.cpu_count);
  };
  const an::CapacityAttribute memory = [](const trace::ServerRecord& s) {
    return std::optional<double>(s.memory_gb);
  };
  const an::CapacityAttribute disk_gb = [](const trace::ServerRecord& s) {
    return s.disk_gb;
  };
  const an::CapacityAttribute disks = [](const trace::ServerRecord& s) {
    return s.disk_count ? std::optional<double>(*s.disk_count) : std::nullopt;
  };
  add_binned(d, an::capacity_binned_rates(
                    db, failures, pm, cpus,
                    BinSpec::from_edges({1, 2, 3, 6, 12, 20, 28, 48, 128})));
  add_binned(d, an::capacity_binned_rates(
                    db, failures, vm, cpus,
                    BinSpec::from_edges({1, 2, 3, 6, 16})));
  add_binned(d, an::capacity_binned_rates(
                    db, failures, pm, memory,
                    BinSpec::from_edges({1, 6, 48, 96, 192, 512})));
  add_binned(d, an::capacity_binned_rates(
                    db, failures, vm, memory,
                    BinSpec::from_edges({0.1, 6, 12, 24, 64})));
  add_binned(d, an::capacity_binned_rates(
                    db, failures, vm, disk_gb,
                    BinSpec::from_edges({1, 12, 24, 48, 8192})));
  add_binned(d, an::capacity_binned_rates(
                    db, failures, vm, disks,
                    BinSpec::from_edges({1, 2, 3, 4, 5, 6, 7})));

  const an::UsageAttribute cpu_util = [](const trace::WeeklyUsage& u) {
    return std::optional<double>(u.cpu_util);
  };
  const an::UsageAttribute mem_util = [](const trace::WeeklyUsage& u) {
    return std::optional<double>(u.mem_util);
  };
  const an::UsageAttribute disk_util = [](const trace::WeeklyUsage& u) {
    return u.disk_util;
  };
  const an::UsageAttribute net = [](const trace::WeeklyUsage& u) {
    return u.net_kbps;
  };
  const auto util_bins = BinSpec::from_edges({0, 10, 20, 30, 50, 70, 100});
  add_binned(d, an::usage_binned_rates(db, failures, pm, cpu_util, util_bins));
  add_binned(d, an::usage_binned_rates(db, failures, vm, cpu_util, util_bins));
  add_binned(d, an::usage_binned_rates(db, failures, pm, mem_util, util_bins));
  add_binned(d, an::usage_binned_rates(db, failures, vm, mem_util, util_bins));
  add_binned(d, an::usage_binned_rates(db, failures, vm, disk_util, util_bins));
  add_binned(d, an::usage_binned_rates(
                    db, failures, vm, net,
                    BinSpec::from_edges({0, 2, 8, 64, 512, 2048, 10000})));
  add_binned(d, an::consolidation_binned_rates(db, failures));
  add_binned(d, an::onoff_binned_rates(db, failures));

  // Class transitions (extension experiment).
  const auto transitions =
      an::analyze_transitions(db, failures, class_of, fa::kMinutesPerWeek);
  for (const auto& row : transitions.probability) {
    for (double p : row) d.add(p);
  }
  for (double p : transitions.followup_probability) d.add(p);
  return d.value();
}

// Every row of every table, field by field.
void add_trace(Digest& d, const trace::TraceDatabase& db) {
  for (const trace::ServerRecord& s : db.servers()) {
    d.add(s.id.value);
    d.add(static_cast<int>(s.type));
    d.add(static_cast<int>(s.subsystem));
    d.add(s.cpu_count);
    d.add(s.memory_gb);
    d.add(s.disk_gb.value_or(-1.0));
    d.add(s.disk_count.value_or(-1));
    d.add(s.host_box.value);
    d.add(static_cast<std::int64_t>(s.first_record));
    for (const trace::WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      d.add(u.week);
      d.add(u.cpu_util);
      d.add(u.mem_util);
      d.add(u.disk_util.value_or(-1.0));
      d.add(u.net_kbps.value_or(-1.0));
    }
    for (const trace::PowerEvent& e : db.power_events_for(s.id)) {
      d.add(static_cast<std::int64_t>(e.at));
      d.add(static_cast<int>(e.powered_on));
    }
    for (const trace::MonthlySnapshot& m : db.snapshots_for(s.id)) {
      d.add(m.month);
      d.add(m.box.value);
      d.add(m.consolidation);
    }
  }
  for (const trace::Ticket& t : db.tickets()) {
    d.add(t.id.value);
    d.add(t.incident.value);
    d.add(t.server.value);
    d.add(static_cast<int>(t.subsystem));
    d.add(static_cast<int>(t.is_crash));
    d.add(static_cast<int>(t.true_class));
    d.add(static_cast<std::int64_t>(t.opened));
    d.add(static_cast<std::int64_t>(t.closed));
    d.add(t.description);
    d.add(t.resolution);
  }
}

std::uint64_t trace_rows(const trace::TraceDatabase& db) {
  std::uint64_t rows = db.servers().size() + db.tickets().size();
  for (const trace::ServerRecord& s : db.servers()) {
    rows += db.weekly_usage_for(s.id).size() +
            db.power_events_for(s.id).size() + db.snapshots_for(s.id).size();
  }
  return rows;
}

class Repro final : public Workload {
 public:
  explicit Repro(const RunOptions& options) : options_(options) {}

  void generate_inputs() override {
    config_ = fa::sim::SimulationConfig::paper_defaults();
    config_.seed = options_.seed;
  }

  PassResult run_pass(Tracer* tracer, bool plant_fault) override {
    PassResult result;
    result.attempted = 1;
    std::optional<trace::TraceDatabase> db;
    std::optional<fa::analysis::AnalysisPipeline> pipeline;
    std::uint64_t tables = 0;
    CallTimer sink;
    result.phases.push_back(timed_phase("pass", tracer, [&] {
      if (tracer == nullptr) {
        db = fa::sim::simulate(config_);
      } else {
        // sim::simulate() spelled out, so that the in-memory writer's time
        // (the trace layer) can be told apart from the simulator's.
        db.emplace();
        {
          Span span(tracer, "sim.simulate");
          trace::DatabaseTraceWriter inner(*db);
          TimedTraceWriter writer(inner, sink);
          fa::sim::simulate_to(config_, writer);
          tracer->add_folded(span.id(), "trace.database", sink);
        }
        Span span(tracer, "trace.finalize");
        db->finalize();
      }
      {
        Span span(tracer, "analysis.pipeline");
        pipeline.emplace(*db);
      }
      Span span(tracer, "analysis.tables");
      tables = paper_tables(*db, *pipeline, tracer);
    }));

    Digest digest;
    add_trace(digest, *db);
    for (fa::trace::FailureClass c : pipeline->classification().predicted) {
      digest.add(static_cast<int>(c));
    }
    digest.add(tables);
    std::uint64_t value = digest.value();
    if (plant_fault) value ^= 1;
    if (!reference_) reference_ = value;
    if (value != *reference_) {
      std::ostringstream why;
      why << "repro: output digest " << std::hex << value
          << " differs from the first pass's " << *reference_;
      result.fail(why.str());
    }

    const auto& classification = pipeline->classification();
    const auto& kmeans = classification.clustering.stats;
    figures_ = {
        {"sim.tickets", static_cast<double>(db->tickets().size())},
        {"sim.events", static_cast<double>(trace_rows(*db))},
        {"analysis.accuracy", classification.accuracy},
        {"analysis.kmeans_distances",
         static_cast<double>(kmeans.distances_attempted())},
        {"analysis.kmeans_iterations",
         static_cast<double>(kmeans.total_iterations())},
        {"analysis.kmeans_prune_ratio", kmeans.prune_ratio()},
    };
    if (tracer != nullptr) add_call_figures(figures_, "trace.write", sink);
    return result;
  }

  Figures figures() const override { return figures_; }

  void describe(std::ostream& out) const override {
    out << "inputs: paper-scale fleet (scale 1.0), simulation seed "
        << options_.seed << ", pipeline seed 7, in memory\n";
  }

 private:
  RunOptions options_;
  fa::sim::SimulationConfig config_;
  std::optional<std::uint64_t> reference_;
  Figures figures_;
};

}  // namespace

std::unique_ptr<Workload> make_repro(const RunOptions& options) {
  return std::make_unique<Repro>(options);
}

}  // namespace perfbench

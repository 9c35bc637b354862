// Shared helpers for the test suite: a builder for small hand-crafted trace
// databases, a cached scaled-down simulation for integration tests, a
// brute-force Lloyd oracle for the k-means tests, and map-based oracles for
// the binned failure rates.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/capacity_usage.h"
#include "src/sim/config.h"
#include "src/sim/simulator.h"
#include "src/stats/kmeans.h"
#include "src/stats/sparse_matrix.h"
#include "src/trace/database.h"
#include "src/util/error.h"

namespace fa::testing {

// Builder for tiny, fully explicit trace databases used by the analysis
// unit tests (times given in days from the ticket-window start).
class TinyDbBuilder {
 public:
  TinyDbBuilder() : year_(ticket_window()) {}

  trace::ServerId add_pm(trace::Subsystem sys, int cpu = 4,
                         double memory_gb = 8.0) {
    trace::ServerRecord s;
    s.type = trace::MachineType::kPhysical;
    s.subsystem = sys;
    s.cpu_count = cpu;
    s.memory_gb = memory_gb;
    s.first_record = monitoring_window().begin;
    return db_.add_server(s);
  }

  trace::ServerId add_vm(trace::Subsystem sys, int cpu = 2,
                         double memory_gb = 2.0, double disk_gb = 128.0,
                         int disk_count = 2,
                         std::optional<double> created_days_after_db_start =
                             std::nullopt) {
    trace::ServerRecord s;
    s.type = trace::MachineType::kVirtual;
    s.subsystem = sys;
    s.cpu_count = cpu;
    s.memory_gb = memory_gb;
    s.disk_gb = disk_gb;
    s.disk_count = disk_count;
    s.host_box = trace::BoxId{0};
    s.first_record =
        monitoring_window().begin +
        (created_days_after_db_start
             ? from_days(*created_days_after_db_start)
             : 0);
    return db_.add_server(s);
  }

  // Crash ticket `days` after the ticket-window start, repaired after
  // `repair_hours`. A fresh incident is allocated unless one is passed.
  trace::TicketId add_crash(trace::ServerId server, double days,
                            double repair_hours,
                            trace::FailureClass cls =
                                trace::FailureClass::kSoftware,
                            std::optional<trace::IncidentId> incident =
                                std::nullopt,
                            const std::string& description =
                                "server unresponsive") {
    trace::Ticket t;
    t.incident = incident ? *incident : db_.new_incident();
    t.server = server;
    t.subsystem = db_.server(server).subsystem;
    t.is_crash = true;
    t.true_class = cls;
    t.opened = year_.begin + from_days(days);
    t.closed = t.opened + from_hours(repair_hours);
    t.description = description;
    t.resolution = "fixed";
    return db_.add_ticket(std::move(t));
  }

  trace::TicketId add_background(trace::ServerId server, double days) {
    trace::Ticket t;
    t.server = server;
    t.subsystem = db_.server(server).subsystem;
    t.is_crash = false;
    t.opened = year_.begin + from_days(days);
    t.closed = t.opened + from_hours(1.0);
    t.description = "cpu utilization warning";
    t.resolution = "closed after review";
    return db_.add_ticket(std::move(t));
  }

  trace::IncidentId new_incident() { return db_.new_incident(); }
  trace::TraceDatabase& raw() { return db_; }

  trace::TraceDatabase finish() {
    db_.finalize();
    return std::move(db_);
  }

 private:
  trace::TraceDatabase db_;
  ObservationWindow year_;
};

// A scaled-down full simulation, built once and shared across integration
// tests in a binary (simulation is deterministic, so sharing is safe).
inline const trace::TraceDatabase& small_simulated_db() {
  static const trace::TraceDatabase db = [] {
    auto config = sim::SimulationConfig::paper_defaults().scaled(0.15);
    return sim::simulate(config);
  }();
  return db;
}

// CSR copy of equal-length dense rows, keeping only their nonzero entries.
inline stats::SparseMatrix to_csr(
    const std::vector<std::vector<double>>& rows) {
  stats::SparseMatrix matrix(rows.front().size());
  for (const auto& row : rows) {
    std::vector<std::uint32_t> indices;
    std::vector<double> values;
    for (std::size_t d = 0; d < row.size(); ++d) {
      if (row[d] == 0.0) continue;
      indices.push_back(static_cast<std::uint32_t>(d));
      values.push_back(row[d]);
    }
    matrix.append_row(indices, values);
  }
  return matrix;
}

struct LloydResult {
  std::vector<int> assignment;
  std::vector<std::vector<double>> centroids;
  double inertia = 0.0;
  int iterations = 0;
};

// Reference for stats::kmeans: plain Lloyd iterations over the densified
// rows, with every point-to-centroid distance summed term by term and no
// pruning. It starts from options.anchors, which must hold all k centroids,
// so stats::kmeans draws nothing from its RNG either, and it stops by the
// same rule (inertia improved by at most tolerance x the previous
// inertia). An emptied cluster throws: stats::kmeans would reseed it from
// its RNG, which the oracle does not model.
inline LloydResult lloyd_oracle(const stats::SparseMatrix& points,
                                const stats::KMeansOptions& options) {
  require(options.anchors.size() == static_cast<std::size_t>(options.k),
          "lloyd_oracle: needs k anchors");
  const auto x = points.to_dense();
  LloydResult r;
  r.centroids = options.anchors;
  r.assignment.assign(x.size(), -1);
  double previous = std::numeric_limits<double>::infinity();
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    r.iterations = iter;
    r.inertia = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < r.centroids.size(); ++c) {
        double sq = 0.0;
        for (std::size_t d = 0; d < x[i].size(); ++d) {
          const double diff = x[i][d] - r.centroids[c][d];
          sq += diff * diff;
        }
        if (sq < best) {
          best = sq;
          r.assignment[i] = static_cast<int>(c);
        }
      }
      r.inertia += best;
    }
    std::vector<std::vector<double>> sums(
        r.centroids.size(), std::vector<double>(points.cols(), 0.0));
    std::vector<std::size_t> counts(r.centroids.size(), 0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const auto c = static_cast<std::size_t>(r.assignment[i]);
      ++counts[c];
      for (std::size_t d = 0; d < x[i].size(); ++d) sums[c][d] += x[i][d];
    }
    for (std::size_t c = 0; c < r.centroids.size(); ++c) {
      require(counts[c] > 0, "lloyd_oracle: a cluster emptied");
      for (std::size_t d = 0; d < sums[c].size(); ++d) {
        r.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
    if (iter > 1 && previous - r.inertia <= options.tolerance * previous) {
      break;
    }
    previous = r.inertia;
  }
  return r;
}

// Reference for analysis::capacity_binned_rates: server bins in a hash map
// keyed by server id, failures counted per (bin, week) as doubles.
inline analysis::BinnedRates capacity_binned_rates_oracle(
    const trace::TraceDatabase& db,
    std::span<const trace::Ticket* const> failures,
    const analysis::Scope& scope,
    const analysis::CapacityAttribute& attribute, stats::BinSpec spec) {
  const std::size_t bins = spec.bin_count();
  const int weeks = db.window().week_count();

  // Bin assignment per server.
  std::unordered_map<trace::ServerId, std::size_t> server_bin;
  std::vector<std::size_t> population(bins, 0);
  for (const trace::ServerRecord& s : db.servers()) {
    if (!scope.matches(s)) continue;
    const auto value = attribute(s);
    if (!value) continue;
    const auto bin = spec.index_of(*value);
    if (!bin) continue;
    server_bin.emplace(s.id, *bin);
    ++population[*bin];
  }

  // Failures per (bin, week).
  std::vector<std::vector<double>> weekly_failures(
      bins, std::vector<double>(static_cast<std::size_t>(weeks), 0.0));
  std::vector<std::size_t> failure_count(bins, 0);
  for (const trace::Ticket* t : failures) {
    const auto it = server_bin.find(t->server);
    if (it == server_bin.end()) continue;
    const int w = db.window().week_index(t->opened);
    if (w < 0) continue;
    weekly_failures[it->second][static_cast<std::size_t>(w)] += 1.0;
    ++failure_count[it->second];
  }

  analysis::BinnedRates result{std::move(spec), std::move(population),
                               std::move(failure_count), {}, {}};
  result.overall_rate.resize(bins, 0.0);
  result.weekly_summary.resize(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    if (result.population[b] == 0) continue;
    auto& series = weekly_failures[b];
    for (double& v : series) v /= static_cast<double>(result.population[b]);
    result.weekly_summary[b] = stats::summarize(series);
    result.overall_rate[b] =
        static_cast<double>(result.failure_count[b]) /
        (static_cast<double>(result.population[b]) * weeks);
  }
  return result;
}

// Reference for analysis::usage_binned_rates: one week -> bin vector per
// in-scope server in a hash map, populations and failures counted per
// (bin, week) as doubles.
inline analysis::BinnedRates usage_binned_rates_oracle(
    const trace::TraceDatabase& db,
    std::span<const trace::Ticket* const> failures,
    const analysis::Scope& scope, const analysis::UsageAttribute& attribute,
    stats::BinSpec spec) {
  const std::size_t bins = spec.bin_count();
  const int weeks = db.window().week_count();

  // Bin of each (server, week) from the monitoring rows.
  std::unordered_map<trace::ServerId, std::vector<int>> week_bin;
  std::vector<std::vector<double>> weekly_population(
      bins, std::vector<double>(static_cast<std::size_t>(weeks), 0.0));
  std::vector<std::size_t> population(bins, 0);  // server-weeks
  for (const trace::ServerRecord& s : db.servers()) {
    if (!scope.matches(s)) continue;
    auto& slots = week_bin[s.id];
    slots.assign(static_cast<std::size_t>(weeks), -1);
    for (const trace::WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      if (u.week < 0 || u.week >= weeks) continue;
      const auto value = attribute(u);
      if (!value) continue;
      const auto bin = spec.index_of(*value);
      if (!bin) continue;
      slots[static_cast<std::size_t>(u.week)] = static_cast<int>(*bin);
      weekly_population[*bin][static_cast<std::size_t>(u.week)] += 1.0;
      ++population[*bin];
    }
  }

  std::vector<std::vector<double>> weekly_failures(
      bins, std::vector<double>(static_cast<std::size_t>(weeks), 0.0));
  std::vector<std::size_t> failure_count(bins, 0);
  for (const trace::Ticket* t : failures) {
    const auto it = week_bin.find(t->server);
    if (it == week_bin.end()) continue;
    const int w = db.window().week_index(t->opened);
    if (w < 0) continue;
    const int bin = it->second[static_cast<std::size_t>(w)];
    if (bin < 0) continue;
    weekly_failures[static_cast<std::size_t>(bin)]
                   [static_cast<std::size_t>(w)] += 1.0;
    ++failure_count[static_cast<std::size_t>(bin)];
  }

  analysis::BinnedRates result{std::move(spec), std::move(population),
                               std::move(failure_count), {}, {}};
  result.overall_rate.resize(bins, 0.0);
  result.weekly_summary.resize(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    if (result.population[b] == 0) continue;
    // Weekly rate series over weeks with population in this bin.
    std::vector<double> rates;
    for (int w = 0; w < weeks; ++w) {
      const double pop = weekly_population[b][static_cast<std::size_t>(w)];
      if (pop <= 0.0) continue;
      rates.push_back(weekly_failures[b][static_cast<std::size_t>(w)] / pop);
    }
    if (!rates.empty()) result.weekly_summary[b] = stats::summarize(rates);
    result.overall_rate[b] = static_cast<double>(result.failure_count[b]) /
                             static_cast<double>(result.population[b]);
  }
  return result;
}

}  // namespace fa::testing

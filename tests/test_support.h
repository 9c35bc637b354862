// Shared helpers for the test suite: a builder for small hand-crafted trace
// databases, a cached scaled-down simulation for integration tests, and a
// brute-force Lloyd oracle for the k-means tests.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

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

}  // namespace fa::testing

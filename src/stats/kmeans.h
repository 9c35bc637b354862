// K-means (k-means++ seeding, Lloyd iterations with Hamerly bounds) over a
// sparse CSR matrix.
//
// Section III-A of the paper classifies problem tickets by running k-means on
// the description and resolution text; this is the clustering engine behind
// fa::analysis::TicketClassifier.
#pragma once

#include <cstdint>
#include <vector>

#include "src/stats/sparse_matrix.h"
#include "src/util/rng.h"

namespace fa::stats {

// Work accounting across all restarts of one kmeans() call. All fields are
// deterministic for a fixed input at any thread count: iteration counts and
// Hamerly-prune decisions depend only on per-point state, never on the
// schedule (see docs/PERF.md), so the prune ratio is a stable, continuously
// checkable figure rather than a one-off measurement.
struct IterationStats {
  // Lloyd iterations each restart ran (index = restart index).
  std::vector<int> iterations_per_restart;
  // Point-to-centroid distance evaluations performed in the assignment
  // steps of every restart, and evaluations skipped by the Hamerly bound
  // test.
  std::uint64_t distances_computed = 0;
  std::uint64_t distances_pruned = 0;

  // Evaluations a prune-free assignment step would have performed.
  std::uint64_t distances_attempted() const {
    return distances_computed + distances_pruned;
  }
  double prune_ratio() const {
    const std::uint64_t attempted = distances_attempted();
    return attempted == 0
               ? 0.0
               : static_cast<double>(distances_pruned) /
                     static_cast<double>(attempted);
  }
  int total_iterations() const {
    int total = 0;
    for (int i : iterations_per_restart) total += i;
    return total;
  }
};

struct KMeansResult {
  std::vector<std::vector<double>> centroids;  // k x dim
  std::vector<int> assignment;                 // one entry per point
  double inertia = 0.0;                        // sum of squared distances
  int iterations = 0;                          // winning restart's iterations
  bool converged = false;
  // Aggregated over all restarts (not just the winner).
  IterationStats stats;
};

struct KMeansOptions {
  int k = 2;
  int max_iterations = 100;
  // Restarts with different seedings; the lowest-inertia run is returned
  // (ties broken by restart index, so the result is schedule-independent).
  int restarts = 4;
  double tolerance = 1e-7;  // relative inertia improvement to keep iterating
  // Optional deterministic seed centroids (at most k, dense, same
  // dimensionality as the points). Every restart starts from these;
  // k-means++ draws only the remaining k - anchors.size() centroids. Used
  // to pin a centroid onto a known small mode that random seeding would
  // miss (e.g. the ~2% crash tickets among all problem tickets).
  std::vector<std::vector<double>> anchors;
};

// Clusters the rows of a CSR document-term matrix. Requires rows() >= k,
// cols() >= 1, max_iterations >= 1 and at most k anchors. Centroids stay
// dense. Point-to-centroid distances use the
// ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 expansion over only the row's
// nonzeros, and the assignment step keeps Hamerly-style upper/lower bounds
// so points whose nearest centroid cannot have changed skip the full
// centroid scan; the scan takes the row's dots with all k centroids in one
// kernel call over a term-major copy of the centroids, bit-identical to
// one dot per centroid. The assignment step is chunk-parallel with chunk
// boundaries fixed by n alone and a serial in-order reduction, so the
// result is bit-identical at any thread count (see docs/PERF.md). Restarts
// run serially.
KMeansResult kmeans(const SparseMatrix& points, const KMeansOptions& options,
                    Rng& rng);

}  // namespace fa::stats

#include "src/stats/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/obs/metrics.h"
#include "src/stats/simd.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace fa::stats {
namespace {

// Distances use ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 over each row's
// nonzeros; the assignment step keeps Hamerly-style bounds and runs over
// chunks whose boundaries depend only on n, with a serial in-order
// reduction, so results are bit-identical at any thread count. A full scan
// takes the row's dots with every centroid in one simd::sparse_dot_block
// call over a term-major copy of the centroids; that kernel is
// bit-identical to simd::sparse_dot, which the single-centroid distances
// (the Hamerly recompute and seeding) use.

double dense_dot(const std::vector<double>& a, const std::vector<double>& b) {
  return simd::dot(a, b);
}

double squared_distance(const std::vector<double>& a,
                        const std::vector<double>& b) {
  return simd::squared_distance(a, b);
}

// ||x_i - c||^2 from the row's dot with c; both distance paths share it.
double expand_sq_dist(const SparseMatrix& points, std::size_t i, double dot,
                      double centroid_norm_sq) {
  const double d = points.row_norm_sq(i) - 2.0 * dot + centroid_norm_sq;
  return d > 0.0 ? d : 0.0;  // the expansion can go negative by rounding
}

double sparse_sq_dist(const SparseMatrix& points, std::size_t i,
                      const std::vector<double>& centroid,
                      double centroid_norm_sq) {
  return expand_sq_dist(points, i, points.dot_dense(i, centroid),
                        centroid_norm_sq);
}

// Fixed-size chunking for parallel loops over points: boundaries are a
// function of n alone (never of the thread count), which is what keeps the
// parallel assignment step deterministic.
constexpr std::size_t kAssignChunk = 2048;

void parallel_chunks(std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t chunks = (n + kAssignChunk - 1) / kAssignChunk;
  parallel_for(chunks, [&](std::size_t c) {
    body(c * kAssignChunk, std::min(n, (c + 1) * kAssignChunk));
  });
}

std::vector<std::vector<double>> seed_plus_plus_sparse(
    const SparseMatrix& points, const KMeansOptions& options, Rng& rng) {
  const int k = options.k;
  std::vector<std::vector<double>> centroids;
  centroids.reserve(static_cast<std::size_t>(k));
  const auto n = static_cast<std::int64_t>(points.rows());
  std::vector<double> d2(points.rows(),
                         std::numeric_limits<double>::infinity());
  const auto lower_onto = [&](const std::vector<double>& c) {
    const double cn = dense_dot(c, c);
    parallel_chunks(points.rows(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        d2[i] = std::min(d2[i], sparse_sq_dist(points, i, c, cn));
      }
    });
  };
  if (options.anchors.empty()) {
    centroids.push_back(
        points.row_dense(static_cast<std::size_t>(rng.uniform_int(0, n - 1))));
  } else {
    // Anchors first; k-means++ continues conditioned on them. Anchors
    // filling all k centroids leave nothing to draw, so no d2 pass runs.
    centroids = options.anchors;
  }
  // d2 is lowered onto each centroid once, when the next draw needs it.
  std::size_t lowered = 0;
  while (static_cast<int>(centroids.size()) < k) {
    for (; lowered < centroids.size(); ++lowered) {
      lower_onto(centroids[lowered]);
    }
    double total = 0.0;
    for (double d : d2) total += d;
    if (total <= 0.0) {
      // All remaining points coincide with chosen centroids; duplicate one.
      centroids.push_back(centroids.back());
      continue;
    }
    double r = rng.uniform() * total;
    std::size_t chosen = points.rows() - 1;
    for (std::size_t i = 0; i < points.rows(); ++i) {
      r -= d2[i];
      if (r < 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points.row_dense(chosen));
  }
  return centroids;
}

KMeansResult run_once_sparse(const SparseMatrix& points,
                             const KMeansOptions& options, Rng& rng) {
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  const auto k = static_cast<std::size_t>(options.k);
  KMeansResult result;
  result.centroids = seed_plus_plus_sparse(points, options, rng);
  result.assignment.assign(n, -1);

  // Hamerly state, on Euclidean (not squared) distances. upper[i] is made
  // exact every iteration (the recomputation is only O(nnz(x)) and its
  // square is the point's inertia term); lower[i] bounds the distance to
  // the runner-up centroid from below; half_sep[c] is half the distance
  // from centroid c to its nearest other centroid. Invariant between
  // iterations: upper[i] >= d(x_i, c_assigned), lower[i] <= d(x_i, c) for
  // every c != assigned.
  std::vector<double> upper(n, 0.0), lower(n, 0.0), d_sq(n, 0.0);
  std::vector<double> centroid_norm_sq(k, 0.0);
  std::vector<double> half_sep(k, 0.0);
  std::vector<double> moved(k, 0.0);
  std::vector<double> sums(k * dim, 0.0);  // cluster c's sum at [c * dim]
  std::vector<std::size_t> counts(k, 0);
  // The centroids term-major for the full scan: block[d * stride + c] is
  // coordinate d of centroid c, each term's row padded with zeros to the
  // kernel's multiple of 4.
  const std::size_t stride = (k + 3) / 4 * 4;
  std::vector<double> block(dim * stride, 0.0);

  // Prune accounting: per-chunk slots written only by the chunk's worker,
  // summed serially after the loop, so the totals are schedule-independent
  // (and integer, so they are bit-identical at any thread count).
  const std::size_t chunk_count = (n + kAssignChunk - 1) / kAssignChunk;
  std::vector<std::uint64_t> computed_per_chunk(chunk_count, 0);
  std::vector<std::uint64_t> pruned_per_chunk(chunk_count, 0);

  double prev_inertia = std::numeric_limits<double>::infinity();
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations = iter;
    for (std::size_t c = 0; c < k; ++c) {
      centroid_norm_sq[c] =
          dense_dot(result.centroids[c], result.centroids[c]);
      for (std::size_t d = 0; d < dim; ++d) {
        block[d * stride + c] = result.centroids[c][d];
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      double nearest = std::numeric_limits<double>::infinity();
      for (std::size_t o = 0; o < k; ++o) {
        if (o == c) continue;
        nearest = std::min(
            nearest, squared_distance(result.centroids[c], result.centroids[o]));
      }
      half_sep[c] = 0.5 * std::sqrt(nearest);
    }

    // Assignment step: chunk-parallel, every write lands in a per-point slot.
    parallel_chunks(n, [&](std::size_t b, std::size_t e) {
      std::uint64_t computed = 0, pruned = 0;
      std::vector<double> dots(stride);
      for (std::size_t i = b; i < e; ++i) {
        const int a = result.assignment[i];
        if (a >= 0) {
          const auto ac = static_cast<std::size_t>(a);
          const double sq = sparse_sq_dist(points, i, result.centroids[ac],
                                           centroid_norm_sq[ac]);
          const double d_a = std::sqrt(sq);
          upper[i] = d_a;
          d_sq[i] = sq;
          ++computed;  // the exactness recompute against the assigned centroid
          // Hamerly test: the assigned centroid is certainly still nearest
          // when its exact distance is within both the runner-up lower
          // bound and half the separation to the nearest other centroid.
          if (d_a <= std::max(lower[i], half_sep[ac])) {
            pruned += k - 1;  // skipped the scan over every other centroid
            continue;
          }
        }
        computed += k;
        const auto row = points.row(i);
        simd::sparse_dot_block(row.values.data(), row.indices.data(),
                               row.size(), block.data(), stride, dots.data());
        double best_sq = std::numeric_limits<double>::infinity();
        double second_sq = std::numeric_limits<double>::infinity();
        int best_c = 0;
        for (std::size_t c = 0; c < k; ++c) {
          const double sq =
              expand_sq_dist(points, i, dots[c], centroid_norm_sq[c]);
          if (sq < best_sq) {
            second_sq = best_sq;
            best_sq = sq;
            best_c = static_cast<int>(c);
          } else if (sq < second_sq) {
            second_sq = sq;
          }
        }
        result.assignment[i] = best_c;
        upper[i] = std::sqrt(best_sq);
        lower[i] = std::sqrt(second_sq);
        d_sq[i] = best_sq;
      }
      computed_per_chunk[b / kAssignChunk] += computed;
      pruned_per_chunk[b / kAssignChunk] += pruned;
    });

    // Serial in-order reduction: inertia plus cluster sums/counts. This is
    // O(total nonzeros), and its fixed order is what makes the result
    // thread-count independent.
    double inertia = 0.0;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      inertia += d_sq[i];
      const auto c = static_cast<std::size_t>(result.assignment[i]);
      ++counts[c];
      const auto row = points.row(i);
      double* sum = sums.data() + c * dim;
      for (std::size_t e = 0; e < row.size(); ++e) {
        sum[row.indices[e]] += row.values[e];
      }
    }
    result.inertia = inertia;

    // Update step, tracking how far each centroid moved.
    double max_moved = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      auto& centroid = result.centroids[c];
      double moved_sq = 0.0;
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point; the movement
        // bookkeeping below keeps the bounds valid even for this jump.
        auto reseeded = points.row_dense(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
        moved_sq = squared_distance(centroid, reseeded);
        centroid = std::move(reseeded);
      } else {
        const double* sum = sums.data() + c * dim;
        for (std::size_t d = 0; d < dim; ++d) {
          const double mean = sum[d] / static_cast<double>(counts[c]);
          const double diff = mean - centroid[d];
          moved_sq += diff * diff;
          centroid[d] = mean;
        }
      }
      moved[c] = std::sqrt(moved_sq);
      max_moved = std::max(max_moved, moved[c]);
    }

    // iter 1 has no previous inertia to compare against (inf - x <= tol*inf
    // holds, which would declare convergence after a single Lloyd step).
    if (iter > 1 && prev_inertia - inertia <=
                        options.tolerance * std::max(prev_inertia, 1e-300)) {
      result.converged = true;
      break;
    }
    prev_inertia = inertia;

    // Carry the bounds across the centroid move: the assigned centroid
    // moved by moved[a], every other centroid by at most max_moved.
    for (std::size_t i = 0; i < n; ++i) {
      upper[i] += moved[static_cast<std::size_t>(result.assignment[i])];
      lower[i] -= max_moved;
    }
  }
  for (std::uint64_t c : computed_per_chunk) {
    result.stats.distances_computed += c;
  }
  for (std::uint64_t p : pruned_per_chunk) result.stats.distances_pruned += p;
  return result;
}

// Records one kmeans() call's aggregated work accounting into the metrics
// registry (fa.kmeans.* families; all deterministic).
void record_kmeans_metrics(const IterationStats& stats) {
  static obs::Counter& runs = obs::counter("fa.kmeans.runs");
  static obs::Counter& restarts = obs::counter("fa.kmeans.restarts");
  static obs::Counter& iterations = obs::counter("fa.kmeans.iterations");
  static obs::Counter& computed =
      obs::counter("fa.kmeans.distances_computed");
  static obs::Counter& pruned = obs::counter("fa.kmeans.distances_pruned");
  runs.add(1);
  restarts.add(stats.iterations_per_restart.size());
  iterations.add(static_cast<std::uint64_t>(stats.total_iterations()));
  computed.add(stats.distances_computed);
  pruned.add(stats.distances_pruned);
}

}  // namespace

KMeansResult kmeans(const SparseMatrix& points, const KMeansOptions& options,
                    Rng& rng) {
  require(options.k >= 1, "kmeans: k must be >= 1");
  require(points.rows() >= static_cast<std::size_t>(options.k),
          "kmeans: need at least k points");
  require(options.restarts >= 1, "kmeans: need at least one restart");
  require(options.max_iterations >= 1,
          "kmeans: need at least one iteration");
  require(points.cols() >= 1, "kmeans: zero-dimensional points");
  require(options.anchors.size() <= static_cast<std::size_t>(options.k),
          "kmeans: more anchors than clusters");
  for (const auto& anchor : options.anchors) {
    require(anchor.size() == points.cols(),
            "kmeans: anchor dimensionality mismatch");
  }

  // Restart RNGs are forked serially up front and the winner is picked by
  // (inertia, restart index), so the result does not depend on the
  // schedule. The restarts themselves run serially: the parallelism lives
  // inside the chunked assignment step, and nested parallel regions are
  // unsupported.
  std::vector<Rng> restart_rngs;
  restart_rngs.reserve(static_cast<std::size_t>(options.restarts));
  for (int r = 0; r < options.restarts; ++r) {
    restart_rngs.push_back(rng.fork(static_cast<std::uint64_t>(r)));
  }
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  IterationStats stats;
  stats.iterations_per_restart.reserve(restart_rngs.size());
  for (std::size_t r = 0; r < restart_rngs.size(); ++r) {
    auto run = run_once_sparse(points, options, restart_rngs[r]);
    stats.iterations_per_restart.push_back(run.iterations);
    stats.distances_computed += run.stats.distances_computed;
    stats.distances_pruned += run.stats.distances_pruned;
    if (r == 0 || run.inertia < best.inertia) best = std::move(run);
  }
  best.stats = std::move(stats);
  record_kmeans_metrics(best.stats);
  return best;
}

}  // namespace fa::stats

#include "src/stats/kmeans.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/error.h"
#include "tests/test_support.h"

namespace fa::stats {
namespace {

using fa::testing::to_csr;

// Three well-separated 2-D blobs.
SparseMatrix blobs(Rng& rng, int per_cluster) {
  const std::vector<std::vector<double>> centers = {
      {0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  std::vector<std::vector<double>> points;
  for (const auto& c : centers) {
    for (int i = 0; i < per_cluster; ++i) {
      points.push_back({c[0] + rng.normal(0.0, 0.5),
                        c[1] + rng.normal(0.0, 0.5)});
    }
  }
  return to_csr(points);
}

TEST(KMeans, RecoversSeparatedClusters) {
  Rng rng(1);
  const auto points = blobs(rng, 50);
  KMeansOptions options;
  options.k = 3;
  const auto result = kmeans(points, options, rng);

  // Each ground-truth blob maps to exactly one cluster.
  std::set<int> first(result.assignment.begin(), result.assignment.begin() + 50);
  std::set<int> second(result.assignment.begin() + 50,
                       result.assignment.begin() + 100);
  std::set<int> third(result.assignment.begin() + 100,
                      result.assignment.end());
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_EQ(third.size(), 1u);
  EXPECT_NE(*first.begin(), *second.begin());
  EXPECT_NE(*second.begin(), *third.begin());
  EXPECT_TRUE(result.converged);
}

TEST(KMeans, AssignmentsInRangeAndComplete) {
  Rng rng(2);
  const auto points = blobs(rng, 20);
  KMeansOptions options;
  options.k = 4;
  const auto result = kmeans(points, options, rng);
  ASSERT_EQ(result.assignment.size(), points.rows());
  for (int a : result.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, options.k);
  }
  EXPECT_EQ(result.centroids.size(), 4u);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(3);
  const auto points = blobs(rng, 40);
  KMeansOptions k2, k6;
  k2.k = 2;
  k6.k = 6;
  Rng r1(4), r2(4);
  const double inertia2 = kmeans(points, k2, r1).inertia;
  const double inertia6 = kmeans(points, k6, r2).inertia;
  EXPECT_LT(inertia6, inertia2);
}

TEST(KMeans, KEqualsNGivesZeroInertia) {
  const auto points = to_csr({{0.0}, {5.0}, {9.0}});
  KMeansOptions options;
  options.k = 3;
  Rng rng(5);
  const auto result = kmeans(points, options, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeans, HandlesDuplicatePoints) {
  // More clusters than distinct points: must not crash or loop forever.
  const auto points =
      to_csr({{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}});
  KMeansOptions options;
  options.k = 3;
  Rng rng(6);
  const auto result = kmeans(points, options, rng);
  ASSERT_EQ(result.assignment.size(), 4u);
  EXPECT_LE(result.inertia, 1e-9);
}

TEST(KMeans, RejectsBadArguments) {
  Rng rng(7);
  const auto points = to_csr({{1.0}, {2.0}});
  KMeansOptions options;
  options.k = 3;  // more clusters than points
  EXPECT_THROW(kmeans(points, options, rng), Error);

  options.k = 0;
  EXPECT_THROW(kmeans(points, options, rng), Error);

  options.k = 1;
  options.anchors = {{1.0, 2.0}};  // anchor dimensionality mismatch
  EXPECT_THROW(kmeans(points, options, rng), Error);

  options.anchors = {{1.0}, {2.0}};  // more anchors than clusters
  EXPECT_THROW(kmeans(points, options, rng), Error);

  options.anchors.clear();
  options.max_iterations = 0;
  EXPECT_THROW(kmeans(points, options, rng), Error);
}

TEST(KMeans, AnchorsFillingAllClustersSeedEveryCentroid) {
  // k anchors leave nothing for k-means++ to draw; seeding must use them
  // as-is (and skip its distance-initialization pass entirely).
  const auto points =
      to_csr({{0.0, 0.0}, {0.5, 0.0}, {10.0, 0.0}, {10.5, 0.0}});
  KMeansOptions options;
  options.k = 2;
  options.restarts = 1;
  options.anchors = {{0.0, 0.0}, {10.0, 0.0}};
  Rng rng(10);
  const auto result = kmeans(points, options, rng);
  EXPECT_EQ(result.assignment, (std::vector<int>{0, 0, 1, 1}));
  EXPECT_TRUE(result.converged);
}

TEST(KMeans, RestartsPickLowestInertia) {
  Rng rng(8);
  const auto points = blobs(rng, 30);
  KMeansOptions one, many;
  one.k = many.k = 3;
  one.restarts = 1;
  many.restarts = 10;
  Rng r1(9), r2(9);
  const double single = kmeans(points, one, r1).inertia;
  const double best = kmeans(points, many, r2).inertia;
  EXPECT_LE(best, single + 1e-9);
}

}  // namespace
}  // namespace fa::stats

// Sparse classification fast path: CSR feature extraction and the
// bound-pruned sparse k-means overload must reproduce the dense reference
// implementation exactly — same nonzero weights, same cluster assignments,
// same labels and accuracy — at any thread count.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/classification.h"
#include "src/stats/kmeans.h"
#include "src/stats/sparse_matrix.h"
#include "src/text/features.h"
#include "src/text/vocabulary.h"
#include "src/util/error.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace fa {
namespace {

const std::vector<std::string> kCorpus = {
    "disk failed disk replaced",
    "disk error on server",
    "network switch rebooted",
    "network cable replaced",
    "quantum blockchain nonsense",  // no vocabulary word at mdf >= 2
};

text::Vectorizer fit_corpus(int min_df = 2) {
  text::VectorizerOptions options;
  options.min_document_frequency = min_df;
  return text::Vectorizer::fit(kCorpus, options);
}

TEST(SparseMatrix, RoundTripAndNorms) {
  stats::SparseMatrix m(5);
  const std::vector<std::uint32_t> idx = {1, 4};
  const std::vector<double> val = {2.0, -3.0};
  m.append_row(idx, val);
  m.append_row({}, {});  // empty row
  ASSERT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.nonzeros(), 2u);
  EXPECT_DOUBLE_EQ(m.row_norm_sq(0), 13.0);
  EXPECT_DOUBLE_EQ(m.row_norm_sq(1), 0.0);
  EXPECT_EQ(m.row(1).size(), 0u);
  const auto dense = m.row_dense(0);
  EXPECT_EQ(dense, (std::vector<double>{0.0, 2.0, 0.0, 0.0, -3.0}));
  const std::vector<double> y = {1.0, 10.0, 100.0, 1000.0, 10000.0};
  EXPECT_DOUBLE_EQ(m.dot_dense(0, y), 2.0 * 10.0 - 3.0 * 10000.0);
}

TEST(SparseMatrix, RejectsMalformedRows) {
  stats::SparseMatrix m(3);
  const std::vector<double> one = {1.0};
  EXPECT_THROW(m.append_row(std::vector<std::uint32_t>{3}, one), Error);
  EXPECT_THROW(m.append_row(std::vector<std::uint32_t>{1, 1},
                            std::vector<double>{1.0, 2.0}),
               Error);
  EXPECT_THROW(m.append_row(std::vector<std::uint32_t>{2, 1},
                            std::vector<double>{1.0, 2.0}),
               Error);
  EXPECT_THROW(m.append_row(std::vector<std::uint32_t>{0, 1}, one), Error);
}

TEST(SparseFeatures, CsrMatchesDenseTransformBitForBit) {
  const auto v = fit_corpus();
  const auto dense = v.transform_all(kCorpus);
  const auto sparse = v.transform_all_sparse(kCorpus);
  ASSERT_EQ(sparse.rows(), kCorpus.size());
  ASSERT_EQ(sparse.cols(), v.dimension());
  const auto round_trip = sparse.to_dense();
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(round_trip[i].size(), dense[i].size());
    for (std::size_t d = 0; d < dense[i].size(); ++d) {
      // Bit-identical, not just close: the sparse path must be a drop-in
      // replacement wherever the dense weights fed comparisons.
      EXPECT_EQ(round_trip[i][d], dense[i][d]) << "doc " << i << " dim " << d;
    }
  }
}

TEST(SparseFeatures, RowNormsMatchWeights) {
  const auto v = fit_corpus();
  const auto sparse = v.transform_all_sparse(kCorpus);
  for (std::size_t i = 0; i < sparse.rows(); ++i) {
    const auto row = sparse.row(i);
    double norm_sq = 0.0;
    for (std::size_t e = 0; e < row.size(); ++e) {
      norm_sq += row.values[e] * row.values[e];
    }
    EXPECT_DOUBLE_EQ(sparse.row_norm_sq(i), norm_sq);
    // L2-normalized documents have unit norm; empty documents zero.
    if (row.size() > 0) {
      EXPECT_NEAR(sparse.row_norm_sq(i), 1.0, 1e-12);
    }
  }
}

TEST(SparseFeatures, EmptyDocumentYieldsEmptyRow) {
  const auto v = fit_corpus();
  EXPECT_TRUE(v.transform_sparse("quantum blockchain nonsense").empty());
  EXPECT_TRUE(v.transform_sparse("").empty());
  const auto sparse = v.transform_all_sparse(kCorpus);
  EXPECT_EQ(sparse.row(4).size(), 0u);
  EXPECT_DOUBLE_EQ(sparse.row_norm_sq(4), 0.0);
}

// Sparse k-means on well-separated sparse blobs must agree with the dense
// overload run on the densified matrix.
TEST(SparseKMeans, MatchesDenseOnSeparatedSparseBlobs) {
  Rng data_rng(17);
  stats::SparseMatrix points(12);
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 40; ++i) {
      const std::vector<std::uint32_t> idx = {
          static_cast<std::uint32_t>(3 * c),
          static_cast<std::uint32_t>(3 * c + 1)};
      const std::vector<double> val = {5.0 + data_rng.normal(0.0, 0.3),
                                       5.0 + data_rng.normal(0.0, 0.3)};
      points.append_row(idx, val);
    }
  }
  const auto dense = points.to_dense();
  stats::KMeansOptions options;
  options.k = 4;
  Rng r1(23), r2(23);
  const auto dense_run = stats::kmeans(dense, options, r1);
  const auto sparse_run = stats::kmeans(points, options, r2);
  EXPECT_EQ(dense_run.assignment, sparse_run.assignment);
  EXPECT_NEAR(dense_run.inertia, sparse_run.inertia,
              1e-9 * (1.0 + dense_run.inertia));
  ASSERT_EQ(dense_run.centroids.size(), sparse_run.centroids.size());
  for (std::size_t c = 0; c < dense_run.centroids.size(); ++c) {
    for (std::size_t d = 0; d < dense_run.centroids[c].size(); ++d) {
      EXPECT_NEAR(dense_run.centroids[c][d], sparse_run.centroids[c][d], 1e-9);
    }
  }
}

// The anchored 24-cluster crash-extraction configuration, dense vs sparse,
// on the simulated corpus: identical assignments at 1, 2 and 8 threads.
TEST(SparseKMeans, CrashExtractionConfigurationMatchesDense) {
  const auto& db = fa::testing::small_simulated_db();
  std::vector<std::string> corpus;
  corpus.reserve(db.tickets().size());
  for (const auto& t : db.tickets()) corpus.push_back(t.description);
  text::VectorizerOptions vec_options;
  vec_options.min_document_frequency = 3;
  const auto vectorizer = text::Vectorizer::fit(corpus, vec_options);
  const auto dense = vectorizer.transform_all(corpus);
  const auto sparse = vectorizer.transform_all_sparse(corpus);

  stats::KMeansOptions km;
  km.k = 24;
  km.restarts = 3;
  km.anchors.push_back(dense.front());  // anchored, as in crash extraction

  Rng dense_rng(31);
  const auto reference = stats::kmeans(dense, km, dense_rng);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool::set_default_thread_count(threads);
    Rng sparse_rng(31);
    const auto run = stats::kmeans(sparse, km, sparse_rng);
    EXPECT_EQ(run.assignment, reference.assignment) << threads << " threads";
    EXPECT_NEAR(run.inertia, reference.inertia, 1e-9 * (1.0 + reference.inertia))
        << threads << " threads";
  }
  ThreadPool::set_default_thread_count(0);
}

// Dense reference implementation of classify_tickets (the pre-sparse code
// path: dense TF-IDF + dense k-means + identical labeling), used to pin
// that the production sparse path produces the same labels and accuracy.
analysis::ClassificationResult dense_reference_classify(
    std::span<const trace::Ticket* const> tickets,
    const analysis::ClassifierOptions& options, Rng& rng) {
  std::vector<std::string> corpus;
  corpus.reserve(tickets.size());
  for (const trace::Ticket* t : tickets) {
    corpus.push_back(t->description + " " + t->resolution);
  }
  text::VectorizerOptions vec_options;
  vec_options.min_document_frequency = options.min_document_frequency;
  const auto vectorizer = text::Vectorizer::fit(corpus, vec_options);
  const auto features = vectorizer.transform_all(corpus);

  stats::KMeansOptions km;
  km.k = options.clusters;
  km.restarts = options.kmeans_restarts;
  analysis::ClassificationResult result;
  result.clustering = stats::kmeans(features, km, rng);

  std::vector<std::array<int, trace::kFailureClassCount>> votes(
      static_cast<std::size_t>(options.clusters));
  for (auto& v : votes) v.fill(0);
  std::array<double, trace::kFailureClassCount> global{};
  std::size_t labeled = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (!rng.bernoulli(options.labeled_fraction)) continue;
    ++labeled;
    global[static_cast<std::size_t>(tickets[i]->true_class)] += 1.0;
    const auto cluster =
        static_cast<std::size_t>(result.clustering.assignment[i]);
    ++votes[cluster][static_cast<std::size_t>(tickets[i]->true_class)];
  }
  for (double& g : global) g = std::max(g / static_cast<double>(labeled), 1e-9);

  std::vector<trace::FailureClass> cluster_label(
      static_cast<std::size_t>(options.clusters), trace::FailureClass::kOther);
  for (std::size_t c = 0; c < votes.size(); ++c) {
    int cluster_total = 0;
    for (int v : votes[c]) cluster_total += v;
    if (cluster_total == 0) continue;
    double best_lift = 1.5;
    for (std::size_t k = 0; k < trace::kFailureClassCount; ++k) {
      if (static_cast<trace::FailureClass>(k) == trace::FailureClass::kOther) {
        continue;
      }
      const double share = static_cast<double>(votes[c][k]) / cluster_total;
      const double lift = share / global[k];
      if (lift > best_lift && share >= 0.40) {
        best_lift = lift;
        cluster_label[c] = static_cast<trace::FailureClass>(k);
      }
    }
  }

  int correct = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto cluster =
        static_cast<std::size_t>(result.clustering.assignment[i]);
    result.predicted.push_back(cluster_label[cluster]);
    correct += result.predicted.back() == tickets[i]->true_class;
  }
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(tickets.size());
  return result;
}

TEST(SparseClassification, LabelsAndAccuracyMatchDenseReference) {
  const auto& db = fa::testing::small_simulated_db();
  const auto tickets = analysis::extract_crash_tickets(db);
  Rng dense_rng(8);
  const auto reference = dense_reference_classify(tickets, {}, dense_rng);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool::set_default_thread_count(threads);
    Rng sparse_rng(8);
    const auto result = analysis::classify_tickets(tickets, {}, sparse_rng);
    EXPECT_EQ(result.clustering.assignment, reference.clustering.assignment)
        << threads << " threads";
    EXPECT_EQ(result.predicted, reference.predicted) << threads << " threads";
    EXPECT_DOUBLE_EQ(result.accuracy, reference.accuracy)
        << threads << " threads";
  }
  ThreadPool::set_default_thread_count(0);
}

TEST(SparseClassification, ClusteredExtractionThreadCountInvariant) {
  const auto& db = fa::testing::small_simulated_db();
  ThreadPool::set_default_thread_count(1);
  Rng r1(11);
  const auto reference = analysis::extract_crash_tickets_clustered(db, r1);
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool::set_default_thread_count(threads);
    Rng rng(11);
    const auto run = analysis::extract_crash_tickets_clustered(db, rng);
    EXPECT_EQ(run.crash_tickets, reference.crash_tickets)
        << threads << " threads";
    EXPECT_DOUBLE_EQ(run.accuracy, reference.accuracy) << threads << " threads";
    EXPECT_DOUBLE_EQ(run.precision, reference.precision)
        << threads << " threads";
    EXPECT_DOUBLE_EQ(run.recall, reference.recall) << threads << " threads";
  }
  ThreadPool::set_default_thread_count(0);
}

// The anchors-fill-k fast path must behave like plain anchored seeding:
// every centroid starts at its anchor and no k-means++ draw happens.
TEST(SparseKMeans, AnchorsFillingAllClustersSkipSeedingDraws) {
  stats::SparseMatrix points(2);
  for (int i = 0; i < 8; ++i) {
    const std::vector<std::uint32_t> idx = {0, 1};
    const std::vector<double> val = {static_cast<double>(i % 2) * 10.0,
                                     static_cast<double>(i / 4) * 10.0};
    points.append_row(idx, val);
  }
  stats::KMeansOptions options;
  options.k = 2;
  options.restarts = 1;
  options.anchors = {{0.0, 0.0}, {10.0, 0.0}};
  Rng r1(5), r2(5);
  const auto sparse_run = stats::kmeans(points, options, r1);
  const auto dense_run = stats::kmeans(points.to_dense(), options, r2);
  EXPECT_EQ(sparse_run.assignment, dense_run.assignment);
  EXPECT_NEAR(sparse_run.inertia, dense_run.inertia, 1e-9);
}

}  // namespace
}  // namespace fa

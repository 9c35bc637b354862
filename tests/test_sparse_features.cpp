// Classification path: CSR TF-IDF features must carry the hand-computed
// weights, and the bound-pruned k-means must reproduce a brute-force Lloyd
// oracle exactly — same assignments, same iteration count — at any thread
// count.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/classification.h"
#include "src/stats/kmeans.h"
#include "src/stats/sparse_matrix.h"
#include "src/text/features.h"
#include "src/util/error.h"
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

// Every weight is tf x idf / ||tf x idf||, with the smoothed
// idf = ln((1 + N) / (1 + df)) + 1 over N = 5 documents.
TEST(SparseFeatures, WeightsMatchHandComputedTfIdf) {
  const auto v = fit_corpus(/*min_df=*/1);
  const double idf1 = std::log(6.0 / 2.0) + 1.0;  // df 1
  const double idf2 = std::log(6.0 / 3.0) + 1.0;  // disk, network, replaced
  const auto weights = [&](std::vector<std::pair<std::string, double>> tf_idf) {
    double norm = 0.0;
    for (const auto& [word, w] : tf_idf) norm += w * w;
    std::map<std::string, double> out;
    for (const auto& [word, w] : tf_idf) out[word] = w / std::sqrt(norm);
    return out;
  };
  const std::vector<std::map<std::string, double>> expected = {
      weights({{"disk", 2 * idf2}, {"failed", idf1}, {"replaced", idf2}}),
      weights({{"disk", idf2}, {"error", idf1}, {"on", idf1},
               {"server", idf1}}),
      weights({{"network", idf2}, {"rebooted", idf1}, {"switch", idf1}}),
      weights({{"cable", idf1}, {"network", idf2}, {"replaced", idf2}}),
      weights({{"blockchain", idf1}, {"nonsense", idf1}, {"quantum", idf1}}),
  };
  const auto sparse = v.transform_all_sparse(kCorpus);
  ASSERT_EQ(sparse.rows(), kCorpus.size());
  ASSERT_EQ(sparse.cols(), v.dimension());
  for (std::size_t i = 0; i < kCorpus.size(); ++i) {
    const auto row = sparse.row(i);
    ASSERT_EQ(row.size(), expected[i].size()) << "doc " << i;
    for (std::size_t e = 0; e < row.size(); ++e) {
      const std::string& word = v.vocabulary()[row.indices[e]];
      ASSERT_TRUE(expected[i].contains(word)) << "doc " << i << " " << word;
      EXPECT_DOUBLE_EQ(row.values[e], expected[i].at(word))
          << "doc " << i << " " << word;
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

void expect_matches_oracle(const stats::KMeansResult& run,
                           const testing::LloydResult& oracle) {
  EXPECT_EQ(run.assignment, oracle.assignment);
  EXPECT_EQ(run.iterations, oracle.iterations);
  EXPECT_NEAR(run.inertia, oracle.inertia, 1e-9 * oracle.inertia);
  // Equal assignments sum the same nonzeros in the same order.
  EXPECT_EQ(run.centroids, oracle.centroids);
}

// Against the dense brute-force oracle: four well-separated sparse blobs,
// all k centroids anchored inside the first blob so Lloyd has to walk three
// of them out.
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
  stats::KMeansOptions options;
  options.k = 4;
  for (std::size_t i = 0; i < 4; ++i) {
    options.anchors.push_back(points.row_dense(i));
  }
  Rng rng(23);
  expect_matches_oracle(stats::kmeans(points, options, rng),
                        testing::lloyd_oracle(points, options));
}

// The crash-extraction shape — TF-IDF over every ticket description of the
// simulated trace, 24 clusters, 3 restarts — against the dense brute-force
// oracle. The rows span 9 assignment chunks, so 2 and 8 threads split the
// Hamerly-pruned scan. The centroids start at the first 24 distinct
// documents, anchor j scaled by 1 + j/100: unit-length anchors are all at
// distance exactly 2 from a document that shares no word with them, which
// would leave the nearest one to rounding.
TEST(SparseKMeans, CrashExtractionConfigurationMatchesDense) {
  const auto& db = fa::testing::small_simulated_db();
  std::vector<std::string> corpus;
  corpus.reserve(db.tickets().size());
  for (const auto& t : db.tickets()) corpus.emplace_back(t.description);
  text::VectorizerOptions vec_options;
  vec_options.min_document_frequency = 3;
  const auto vectorizer = text::Vectorizer::fit(corpus, vec_options);
  const auto features = vectorizer.transform_all_sparse(corpus);

  stats::KMeansOptions km;
  km.k = 24;
  km.restarts = 3;
  for (std::size_t i = 0; km.anchors.size() < 24; ++i) {
    auto row = features.row_dense(i);
    if (std::find(km.anchors.begin(), km.anchors.end(), row) ==
        km.anchors.end()) {
      km.anchors.push_back(std::move(row));
    }
  }
  for (std::size_t j = 0; j < km.anchors.size(); ++j) {
    for (double& w : km.anchors[j]) w *= 1.0 + 0.01 * static_cast<double>(j);
  }
  const auto oracle = testing::lloyd_oracle(features, km);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool::set_default_thread_count(threads);
    Rng rng(31);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_matches_oracle(stats::kmeans(features, km, rng), oracle);
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

// FNV-1a over the assignments' 32-bit little-endian bytes.
std::uint64_t assignment_digest(const std::vector<int>& assignment) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const int a : assignment) {
    const auto v = static_cast<std::uint32_t>(a);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// The paper's classifier shape — description + resolution of every
// lexicon-extracted crash ticket, min document frequency 2, 32 clusters, 6
// k-means++ restarts — pinned to constants recorded from the
// one-dot-per-centroid scan that preceded the block kernel, in an AVX2 and
// in a FA_SIMD=OFF build (both gave these values). The other k-means tests
// compare two paths of one build; this one catches a change that moves the
// clustering the same way at every thread count.
TEST(SparseKMeans, ClassifierCorpusResultPinned) {
  const auto& db = fa::testing::small_simulated_db();
  std::vector<std::string> corpus;
  for (const trace::Ticket* t : analysis::extract_crash_tickets(db)) {
    corpus.push_back(std::string(t->description) + " " +
                     std::string(t->resolution));
  }
  text::VectorizerOptions vec_options;
  vec_options.min_document_frequency = 2;
  const auto features =
      text::Vectorizer::fit(corpus, vec_options).transform_all_sparse(corpus);
  stats::KMeansOptions km;
  km.k = 32;
  km.restarts = 6;
  for (const std::size_t threads : {1u, 8u}) {
    ThreadPool::set_default_thread_count(threads);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Rng rng(7);
    const auto run = stats::kmeans(features, km, rng);
    EXPECT_EQ(run.stats.iterations_per_restart,
              (std::vector<int>{9, 13, 11, 12, 10, 9}));
    EXPECT_EQ(run.stats.distances_computed, 526708u);
    EXPECT_EQ(run.stats.distances_pruned, 277264u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(run.inertia),
              0x4067591a9be62867ULL);  // 186.78449816658687
    EXPECT_EQ(assignment_digest(run.assignment), 0xf8f5e70d3d6fe6ULL);
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
  Rng rng(5);
  expect_matches_oracle(stats::kmeans(points, options, rng),
                        testing::lloyd_oracle(points, options));
}

}  // namespace
}  // namespace fa

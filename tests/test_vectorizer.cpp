#include "src/text/features.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/error.h"

namespace fa::text {
namespace {

const std::vector<std::string> kCorpus = {
    "disk failed disk replaced",
    "disk error on server",
    "network switch rebooted",
    "network cable replaced",
};

TEST(Vectorizer, VocabularyRespectsMinDocumentFrequency) {
  VectorizerOptions options;
  options.min_document_frequency = 2;
  const auto v = Vectorizer::fit(kCorpus, options);
  const auto& vocab = v.vocabulary();
  // "disk" (3 docs), "network" (2), "replaced" (2) survive; "switch" (1)
  // does not.
  EXPECT_NE(std::find(vocab.begin(), vocab.end(), "disk"), vocab.end());
  EXPECT_NE(std::find(vocab.begin(), vocab.end(), "network"), vocab.end());
  EXPECT_NE(std::find(vocab.begin(), vocab.end(), "replaced"), vocab.end());
  EXPECT_EQ(std::find(vocab.begin(), vocab.end(), "switch"), vocab.end());
}

// Weight of `word` in a transform_sparse() result (0 when absent).
double weight(const Vectorizer& v,
              const std::vector<std::pair<std::uint32_t, double>>& entries,
              const std::string& word) {
  for (const auto& [index, value] : entries) {
    if (v.vocabulary()[index] == word) return value;
  }
  return 0.0;
}

TEST(Vectorizer, TransformDimensionMatchesVocabulary) {
  VectorizerOptions options;
  options.min_document_frequency = 1;
  const auto v = Vectorizer::fit(kCorpus, options);
  EXPECT_EQ(v.transform_all_sparse(kCorpus).cols(), v.dimension());
  for (const auto& [index, value] : v.transform_sparse(kCorpus[0])) {
    EXPECT_LT(index, v.dimension());
  }
}

TEST(Vectorizer, L2NormalizationUnitLength) {
  VectorizerOptions options;
  options.min_document_frequency = 1;
  const auto v = Vectorizer::fit(kCorpus, options);
  double norm = 0.0;
  for (const auto& [index, value] : v.transform_sparse("disk error network")) {
    norm += value * value;
  }
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-12);
}

TEST(Vectorizer, UnseenWordsIgnored) {
  VectorizerOptions options;
  options.min_document_frequency = 1;
  const auto v = Vectorizer::fit(kCorpus, options);
  EXPECT_TRUE(v.transform_sparse("quantum blockchain nonsense").empty());
}

TEST(Vectorizer, IdfDownweightsCommonWords) {
  // "disk" appears in 2 of 4 docs, "cable" in 1: with IDF the rare word
  // should get more weight for equal term frequency.
  VectorizerOptions options;
  options.min_document_frequency = 1;
  const auto v = Vectorizer::fit(kCorpus, options);
  const auto entries = v.transform_sparse("disk cable");
  EXPECT_GT(weight(v, entries, "cable"), weight(v, entries, "disk"));
  EXPECT_GT(weight(v, entries, "disk"), 0.0);
}

TEST(Vectorizer, RepeatedWordsIncreaseTermFrequency) {
  // Normalization scales a document's weights together, so the ratio of
  // two words' weights moves with their term frequencies alone.
  VectorizerOptions options;
  options.min_document_frequency = 1;
  const auto v = Vectorizer::fit(kCorpus, options);
  const auto once = v.transform_sparse("disk cable");
  const auto twice = v.transform_sparse("disk disk cable");
  EXPECT_DOUBLE_EQ(weight(v, twice, "disk") / weight(v, twice, "cable"),
                   2.0 * weight(v, once, "disk") / weight(v, once, "cable"));
}

TEST(Vectorizer, DeterministicVocabularyOrder) {
  VectorizerOptions options;
  options.min_document_frequency = 1;
  const auto a = Vectorizer::fit(kCorpus, options);
  const auto b = Vectorizer::fit(kCorpus, options);
  EXPECT_EQ(a.vocabulary(), b.vocabulary());
}

TEST(Vectorizer, RejectsDegenerateInput) {
  VectorizerOptions options;
  EXPECT_THROW(Vectorizer::fit({}, options), fa::Error);
  options.min_document_frequency = 100;
  EXPECT_THROW(Vectorizer::fit(kCorpus, options), fa::Error);
}

}  // namespace
}  // namespace fa::text

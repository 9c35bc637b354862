// Bag-of-words / TF-IDF feature extraction for ticket text, feeding the
// k-means ticket classifier (paper Section III-A).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/stats/sparse_matrix.h"

namespace fa::text {

struct VectorizerOptions {
  // Drop words occurring in fewer than min_document_frequency documents.
  int min_document_frequency = 2;
};

// Learns a vocabulary from a corpus and maps documents to sparse TF-IDF
// vectors: term count x smoothed IDF, ln((1 + N) / (1 + df)) + 1, then
// L2-normalized. Words unseen at fit() time are ignored when transforming.
class Vectorizer {
 public:
  static Vectorizer fit(std::span<const std::string> documents,
                        const VectorizerOptions& options);

  // (vocabulary index, weight) entries sorted by index. A document with no
  // in-vocabulary word yields an empty row.
  std::vector<std::pair<std::uint32_t, double>> transform_sparse(
      const std::string& document) const;
  // CSR matrix with one row per document and dimension() columns, built
  // without a dense intermediate. Documents are transformed in parallel
  // into per-document slots and committed in corpus order (deterministic at
  // any thread count).
  stats::SparseMatrix transform_all_sparse(
      std::span<const std::string> documents) const;

  std::size_t dimension() const { return vocabulary_.size(); }
  const std::vector<std::string>& vocabulary() const { return vocabulary_; }

 private:
  Vectorizer() = default;

  // Transparent hash: terms are looked up by the tokenizer's string_views.
  struct TermHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename V>
  using TermMap = std::unordered_map<std::string, V, TermHash, std::equal_to<>>;

  std::vector<std::string> vocabulary_;
  TermMap<std::size_t> index_;
  std::vector<double> idf_;
};

}  // namespace fa::text

#include "src/text/features.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/error.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace fa::text {

Vectorizer Vectorizer::fit(std::span<const std::string> documents,
                           const VectorizerOptions& options) {
  require(!documents.empty(), "Vectorizer::fit: empty corpus");
  require(options.min_document_frequency >= 1,
          "Vectorizer::fit: min_document_frequency must be >= 1");

  // Document frequency per word in one hash-map pass: `last_doc` dedups
  // repeated words within a document without sorting each document's token
  // list. The vocabulary order is fixed by a single sort at the end, so it
  // stays deterministic (and identical to the former std::map-based pass).
  struct WordStat {
    int df = 0;
    std::size_t last_doc = std::numeric_limits<std::size_t>::max();
  };
  TermMap<WordStat> doc_freq;
  std::string lowered;
  std::vector<std::string_view> words;
  for (std::size_t doc = 0; doc < documents.size(); ++doc) {
    fa::tokenize_words_into(documents[doc], lowered, words);
    for (std::string_view w : words) {
      auto it = doc_freq.find(w);
      if (it == doc_freq.end()) it = doc_freq.emplace(w, WordStat{}).first;
      WordStat& stat = it->second;
      if (stat.last_doc != doc) {
        stat.last_doc = doc;
        ++stat.df;
      }
    }
  }
  std::vector<std::pair<std::string, int>> kept;  // (word, df)
  kept.reserve(doc_freq.size());
  for (auto& [word, stat] : doc_freq) {
    if (stat.df >= options.min_document_frequency) {
      kept.emplace_back(word, stat.df);
    }
  }
  std::sort(kept.begin(), kept.end());

  Vectorizer v;
  v.vocabulary_.reserve(kept.size());
  v.idf_.reserve(kept.size());
  for (const auto& [word, df] : kept) {
    v.index_.emplace(word, v.vocabulary_.size());
    v.vocabulary_.push_back(word);
    // Smoothed IDF: ln((1+N)/(1+df)) + 1, never negative.
    const double n = static_cast<double>(documents.size());
    v.idf_.push_back(std::log((1.0 + n) / (1.0 + df)) + 1.0);
  }
  require(!v.vocabulary_.empty(),
          "Vectorizer::fit: no word passed the document-frequency filter");
  return v;
}

std::vector<std::pair<std::uint32_t, double>> Vectorizer::transform_sparse(
    const std::string& document) const {
  // Per-thread scratch: transform_all_sparse calls this from every worker.
  thread_local std::string lowered;
  thread_local std::vector<std::string_view> words;
  fa::tokenize_words_into(document, lowered, words);
  std::vector<std::pair<std::uint32_t, double>> entries;
  for (std::string_view w : words) {
    const auto it = index_.find(w);
    if (it != index_.end()) {
      entries.emplace_back(static_cast<std::uint32_t>(it->second), 1.0);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Merge duplicate indices by summing counts.
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (out > 0 && entries[out - 1].first == entries[i].first) {
      entries[out - 1].second += entries[i].second;
    } else {
      entries[out++] = entries[i];
    }
  }
  entries.resize(out);
  for (auto& [index, value] : entries) value *= idf_[index];
  double norm = 0.0;
  for (const auto& [index, value] : entries) norm += value * value;
  if (norm > 0.0) {
    norm = std::sqrt(norm);
    for (auto& [index, value] : entries) value /= norm;
  }
  return entries;
}

stats::SparseMatrix Vectorizer::transform_all_sparse(
    std::span<const std::string> documents) const {
  std::vector<std::vector<std::pair<std::uint32_t, double>>> rows(
      documents.size());
  parallel_for(documents.size(), [&](std::size_t i) {
    rows[i] = transform_sparse(documents[i]);
  });
  stats::SparseMatrix matrix(dimension());
  std::vector<std::uint32_t> indices;
  std::vector<double> values;
  for (const auto& row : rows) {
    indices.clear();
    values.clear();
    indices.reserve(row.size());
    values.reserve(row.size());
    for (const auto& [index, value] : row) {
      indices.push_back(index);
      values.push_back(value);
    }
    matrix.append_row(indices, values);
  }
  return matrix;
}

}  // namespace fa::text

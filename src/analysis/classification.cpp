#include "src/analysis/classification.h"

#include <algorithm>
#include <set>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/text/features.h"
#include "src/text/vocabulary.h"
#include "src/util/error.h"
#include "src/util/strings.h"

namespace fa::analysis {

std::vector<const trace::Ticket*> extract_crash_tickets(
    const trace::TraceDatabase& db) {
  const auto symptoms = text::crash_symptoms();
  std::vector<const trace::Ticket*> out;
  std::string description;  // reused across tickets; lowering is the hot loop
  for (const trace::Ticket& t : db.tickets()) {
    to_lower_into(t.description, description);
    for (std::string_view symptom : symptoms) {
      if (description.find(symptom) != std::string::npos) {
        out.push_back(&t);
        break;
      }
    }
  }
  return out;
}

CrashExtractionResult extract_crash_tickets_clustered(
    const trace::TraceDatabase& db, Rng& rng) {
  obs::Span span("analysis.extract_crash_tickets_clustered");
  require(!db.tickets().empty(),
          "extract_crash_tickets_clustered: empty ticket database");
  // Features over descriptions only: resolutions of non-crash tickets reuse
  // the vague resolution pool and would blur the cluster boundary.
  std::vector<std::string> corpus;
  corpus.reserve(db.tickets().size());
  for (const trace::Ticket& t : db.tickets()) {
    corpus.emplace_back(t.description);
  }
  text::VectorizerOptions vec_options;
  vec_options.min_document_frequency = 3;
  const auto vectorizer = text::Vectorizer::fit(corpus, vec_options);
  // CSR features (no dense intermediate) and bound-pruned k-means;
  // tests/test_sparse_features.cpp pins the clustering of this corpus to a
  // brute-force Lloyd oracle.
  const auto features = vectorizer.transform_all_sparse(corpus);

  // Distinctive symptom vocabulary: words of the symptom phrases that are
  // not generic datacenter jargon ("server", "host", "monitoring" appear in
  // background tickets too and must not count).
  std::set<std::string> symptom_words;
  for (std::string_view phrase : text::crash_symptoms()) {
    for (auto& word : fa::tokenize_words(phrase)) {
      symptom_words.insert(std::move(word));
    }
  }
  for (std::string_view generic : text::generic_words()) {
    symptom_words.erase(std::string(generic));
  }
  std::vector<bool> symptom_dim(vectorizer.vocabulary().size(), false);
  for (std::size_t d = 0; d < vectorizer.vocabulary().size(); ++d) {
    symptom_dim[d] = symptom_words.contains(vectorizer.vocabulary()[d]);
  }

  // Crash tickets are a small minority (~2% of all tickets, Table II), so a
  // two-way split would divide the dominant background mass instead. Use a
  // generous cluster budget and label each cluster by how strongly its
  // centroid loads on unresponsive/unreachable symptom words. Random
  // k-means++ seeding routinely misses a 2% mode entirely (and inertia does
  // not reward finding it), so one centroid is anchored at the document with
  // the highest symptom share. Anchoring at a real document (not a mean of
  // documents) matters: a mean over diverse documents has a small norm,
  // which makes it spuriously close to everything and lets it absorb
  // background tickets during Lloyd iterations.
  std::size_t anchor_doc = 0;
  double anchor_share = 0.0;
  for (std::size_t i = 0; i < features.rows(); ++i) {
    double symptom = 0.0, total = 0.0;
    const auto row = features.row(i);
    for (std::size_t e = 0; e < row.size(); ++e) {
      total += row.values[e];
      if (symptom_dim[row.indices[e]]) symptom += row.values[e];
    }
    const double share = total > 0.0 ? symptom / total : 0.0;
    if (share > anchor_share) {
      anchor_share = share;
      anchor_doc = i;
    }
  }
  stats::KMeansOptions km;
  km.k = 24;
  km.restarts = 3;
  if (anchor_share > 0.0) km.anchors.push_back(features.row_dense(anchor_doc));
  const auto clustering = stats::kmeans(features, km, rng);

  // Symptom share of each centroid's total mass. The share (rather than the
  // absolute symptom mass) is what separates crash clusters from a large
  // background cluster that absorbed a few stray crash tickets: the latter
  // carries symptom words, but they are a sliver of its mass.
  std::vector<double> symptom_mass(static_cast<std::size_t>(km.k), 0.0);
  std::vector<double> total_mass(static_cast<std::size_t>(km.k), 0.0);
  for (std::size_t d = 0; d < vectorizer.vocabulary().size(); ++d) {
    const bool symptom = symptom_dim[d];
    for (int c = 0; c < km.k; ++c) {
      const double w = clustering.centroids[static_cast<std::size_t>(c)][d];
      total_mass[static_cast<std::size_t>(c)] += w;
      if (symptom) symptom_mass[static_cast<std::size_t>(c)] += w;
    }
  }
  std::vector<double> symptom_share(static_cast<std::size_t>(km.k), 0.0);
  for (int c = 0; c < km.k; ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (total_mass[i] > 0.0) symptom_share[i] = symptom_mass[i] / total_mass[i];
  }
  const double max_share =
      *std::max_element(symptom_share.begin(), symptom_share.end());
  require(max_share > 0.0,
          "extract_crash_tickets_clustered: no symptom vocabulary found");
  // Precision-focused flagging: only clusters dominated by symptom share
  // count as crash clusters.
  std::vector<bool> crash_cluster(static_cast<std::size_t>(km.k), false);
  for (int c = 0; c < km.k; ++c) {
    crash_cluster[static_cast<std::size_t>(c)] =
        symptom_share[static_cast<std::size_t>(c)] > 0.5 * max_share;
  }

  CrashExtractionResult result;
  std::size_t correct = 0, true_crashes = 0, flagged_true = 0;
  for (std::size_t i = 0; i < db.tickets().size(); ++i) {
    const bool predicted_crash =
        crash_cluster[static_cast<std::size_t>(clustering.assignment[i])];
    const bool is_crash = db.tickets()[i].is_crash;
    true_crashes += is_crash;
    if (predicted_crash) {
      result.crash_tickets.push_back(&db.tickets()[i]);
      flagged_true += is_crash;
    }
    correct += predicted_crash == is_crash;
  }
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(db.tickets().size());
  if (!result.crash_tickets.empty()) {
    result.precision = static_cast<double>(flagged_true) /
                       static_cast<double>(result.crash_tickets.size());
  }
  if (true_crashes > 0) {
    result.recall =
        static_cast<double>(flagged_true) / static_cast<double>(true_crashes);
  }
  return result;
}

ClassificationResult classify_tickets(
    std::span<const trace::Ticket* const> tickets,
    const ClassifierOptions& options, Rng& rng) {
  require(!tickets.empty(), "classify_tickets: no tickets");
  require(options.clusters >= 1, "classify_tickets: clusters must be >= 1");
  require(options.labeled_fraction > 0.0 && options.labeled_fraction <= 1.0,
          "classify_tickets: labeled_fraction must be in (0, 1]");

  // TF-IDF features over description + resolution, as in the paper.
  std::vector<std::string> corpus;
  corpus.reserve(tickets.size());
  for (const trace::Ticket* t : tickets) {
    std::string& document = corpus.emplace_back();
    document.reserve(t->description.size() + 1 + t->resolution.size());
    document.append(t->description).append(" ").append(t->resolution);
  }
  text::VectorizerOptions vec_options;
  vec_options.min_document_frequency = options.min_document_frequency;
  obs::Span vectorize_span("analysis.vectorize");
  const auto vectorizer = text::Vectorizer::fit(corpus, vec_options);
  const auto features = vectorizer.transform_all_sparse(corpus);
  vectorize_span.close();
  obs::counter("fa.analysis.vectorized_documents").add(corpus.size());
  obs::counter("fa.analysis.vocabulary_terms")
      .add(vectorizer.vocabulary().size());

  stats::KMeansOptions km;
  km.k = options.clusters;
  km.restarts = options.kmeans_restarts;
  ClassificationResult result;
  {
    obs::Span kmeans_span("analysis.kmeans");
    result.clustering = stats::kmeans(features, km, rng);
  }

  // Name clusters from the manually-labeled subset. Raw majority voting
  // would assign nearly every mixed cluster to "other" (it holds ~53% of
  // the mass), starving the small hardware/network/power classes, so
  // clusters are named by *lift*: the class whose share within the cluster
  // most exceeds its global share. A cluster must still hold a meaningful
  // over-representation (lift > 1) to claim a non-"other" name.
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
  require(labeled > 0, "classify_tickets: labeled subset came up empty");
  for (double& g : global) g = std::max(g / static_cast<double>(labeled), 1e-9);

  std::vector<trace::FailureClass> cluster_label(
      static_cast<std::size_t>(options.clusters),
      trace::FailureClass::kOther);
  for (std::size_t c = 0; c < votes.size(); ++c) {
    int cluster_total = 0;
    for (int v : votes[c]) cluster_total += v;
    if (cluster_total == 0) continue;
    double best_lift = 1.5;  // weak over-representation: stay "other"
    for (std::size_t k = 0; k < trace::kFailureClassCount; ++k) {
      if (static_cast<trace::FailureClass>(k) == trace::FailureClass::kOther) {
        continue;
      }
      const double share =
          static_cast<double>(votes[c][k]) / cluster_total;
      const double lift = share / global[k];
      // Require both over-representation and a non-trivial share.
      if (lift > best_lift && share >= 0.40) {
        best_lift = lift;
        cluster_label[c] = static_cast<trace::FailureClass>(k);
      }
    }
  }

  result.predicted.reserve(tickets.size());
  int correct = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto cluster =
        static_cast<std::size_t>(result.clustering.assignment[i]);
    const trace::FailureClass predicted = cluster_label[cluster];
    result.predicted.push_back(predicted);
    const auto truth = static_cast<std::size_t>(tickets[i]->true_class);
    ++result.confusion[truth][static_cast<std::size_t>(predicted)];
    correct += predicted == tickets[i]->true_class;
  }
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(tickets.size());
  return result;
}

std::unordered_map<trace::TicketId, trace::FailureClass> prediction_map(
    std::span<const trace::Ticket* const> tickets,
    const ClassificationResult& result) {
  require(tickets.size() == result.predicted.size(),
          "prediction_map: tickets/result size mismatch");
  std::unordered_map<trace::TicketId, trace::FailureClass> map;
  map.reserve(tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    map.emplace(tickets[i]->id, result.predicted[i]);
  }
  return map;
}

}  // namespace fa::analysis

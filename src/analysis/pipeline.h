// End-to-end analysis pipeline: crash extraction + ticket classification run
// once over a trace database, with the derived lookups every downstream
// analysis (and every fa_repro experiment) consumes.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/classification.h"
#include "src/analysis/interfailure.h"
#include "src/trace/database.h"
#include "src/trace/sanitize.h"

namespace fa::analysis {

class AnalysisPipeline {
 public:
  // Runs crash extraction and classification; `seed` controls the k-means
  // restarts and the labeled-subset draw.
  explicit AnalysisPipeline(const trace::TraceDatabase& db,
                            std::uint64_t seed = 7,
                            ClassifierOptions options = {});

  const trace::TraceDatabase& db() const { return *db_; }
  // Extracted crash tickets (the paper's "server failures").
  const std::vector<const trace::Ticket*>& failures() const {
    return failures_;
  }
  const ClassificationResult& classification() const {
    return classification_;
  }

  // Predicted class of a crash ticket.
  trace::FailureClass class_of(const trace::Ticket& ticket) const;
  // The same, as a reusable lookup for the analysis APIs.
  ClassLookup class_lookup() const;

 private:
  const trace::TraceDatabase* db_;
  std::vector<const trace::Ticket*> failures_;
  ClassificationResult classification_;
  std::unordered_map<trace::TicketId, trace::FailureClass> predicted_;
};

// Result of the lenient (sanitizing) analysis entry point: the cleaned
// database, the pipeline run over it, and the sanitization accounting —
// in particular how many ticket rows never reached crash extraction /
// classification because they were quarantined or dropped by repair rules.
struct LenientAnalysisResult {
  std::shared_ptr<const trace::TraceDatabase> db;
  std::shared_ptr<const AnalysisPipeline> pipeline;
  trace::SanitizationReport report;
  // Ticket rows present in tickets.csv that were dropped before the
  // pipeline saw them (quarantines + dedup/orphan drops + cascades).
  std::size_t tickets_dropped = 0;
};

// Loads `directory` with a lenient trace::load_database instead of a strict
// one, then runs the standard pipeline on the repaired database. Strict
// loading stays the default everywhere else; call this for exports known
// (or suspected) to be dirty.
LenientAnalysisResult analyze_lenient(const std::string& directory,
                                      std::uint64_t seed = 7,
                                      ClassifierOptions options = {});

}  // namespace fa::analysis

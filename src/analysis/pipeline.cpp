#include "src/analysis/pipeline.h"

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/trace/csv_io.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace fa::analysis {

AnalysisPipeline::AnalysisPipeline(const trace::TraceDatabase& db,
                                   std::uint64_t seed,
                                   ClassifierOptions options)
    : db_(&db) {
  obs::Span pipeline_span("analysis.pipeline");
  {
    obs::Span stage("analysis.extract_crash_tickets");
    failures_ = extract_crash_tickets(db);
  }
  obs::counter("fa.analysis.crash_tickets").add(failures_.size());
  require(!failures_.empty(), "AnalysisPipeline: no crash tickets in trace");
  Rng rng(seed);
  {
    obs::Span stage("analysis.classify_tickets");
    classification_ = classify_tickets(failures_, options, rng);
  }
  predicted_ = prediction_map(failures_, classification_);
}

trace::FailureClass AnalysisPipeline::class_of(
    const trace::Ticket& ticket) const {
  const auto it = predicted_.find(ticket.id);
  require(it != predicted_.end(),
          "AnalysisPipeline::class_of: ticket was not classified");
  return it->second;
}

ClassLookup AnalysisPipeline::class_lookup() const {
  return [this](const trace::Ticket& t) { return class_of(t); };
}

LenientAnalysisResult analyze_lenient(const std::string& directory,
                                      std::uint64_t seed,
                                      ClassifierOptions options) {
  LenientAnalysisResult result;
  result.db = std::make_shared<const trace::TraceDatabase>(
      trace::load_database(directory, &result.report));
  result.tickets_dropped = result.report.rows_dropped(trace::kTicketsFile);
  result.pipeline =
      std::make_shared<const AnalysisPipeline>(*result.db, seed, options);
  return result;
}

}  // namespace fa::analysis

// Chunk-at-a-time analysis over columnar trace files.
//
// The in-memory pipeline (pipeline.h) joins whole tables; this path streams
// a columnar file chunk by chunk, keeping O(one chunk + one byte per
// server) of state, so Table II-class populations and Fig. 2-class failure
// rates compute on fleets far larger than RAM. Results are checked against
// the in-memory counterpart in tests and bench/perf_toolkit.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "src/trace/columnar_io.h"
#include "src/trace/database.h"

namespace fa::analysis {

// Aggregates for one (machine type, subsystem) stratum.
struct ScopeSummary {
  std::uint64_t servers = 0;
  std::uint64_t crash_tickets = 0;  // opened within the ticket window
  // Fig. 2-style mean weekly failure rate: crash tickets in the window
  // divided by (servers x weeks). 0 when the stratum is empty.
  double mean_weekly_failure_rate = 0.0;

  bool operator==(const ScopeSummary&) const = default;
};

struct OutOfCoreSummary {
  std::uint64_t servers = 0;
  std::uint64_t tickets = 0;
  std::uint64_t crash_tickets = 0;
  std::uint64_t weekly_usage_rows = 0;
  std::uint64_t power_events = 0;
  std::uint64_t snapshots = 0;
  // Indexed [machine type][subsystem]: the Table II population layout.
  std::array<std::array<ScopeSummary, trace::kSubsystemCount>,
             trace::kMachineTypeCount>
      by_scope{};
  // Per machine type over all subsystems (the Fig. 2 "All" bars).
  std::array<ScopeSummary, trace::kMachineTypeCount> by_type{};

  bool operator==(const OutOfCoreSummary&) const = default;
};

// Streams `path` chunk-at-a-time: one pass over the server chunks builds a
// one-byte-per-server scope index, one pass over the ticket chunks counts
// crash tickets per stratum; monitoring-table volumes come straight from
// the footer. Peak memory is one chunk plus the scope index — independent
// of fleet size. With a non-null `report` the read degrades gracefully:
// damaged chunks are skipped (skipped server chunks keep their positional
// slots in the scope index, so later server ids stay aligned) and the
// summary covers only the rows actually read — check report->degraded()
// before treating the result as complete.
OutOfCoreSummary summarize_columnar(const std::string& path,
                                    bool use_mmap = true,
                                    trace::DegradedReadReport* report =
                                        nullptr);

// The same aggregates from a finalized in-memory database, for
// equivalence checks against the streaming path.
OutOfCoreSummary summarize_database(const trace::TraceDatabase& db);

}  // namespace fa::analysis

// Top-level simulation entry point: turns a SimulationConfig into a fully
// populated trace — either the classic in-memory TraceDatabase or any
// streaming trace::TraceWriter sink (e.g. a columnar file on disk).
#pragma once

#include "src/sim/config.h"
#include "src/trace/database.h"
#include "src/trace/trace_writer.h"

namespace fa::sim {

// Runs the full pipeline into `writer`: fleet construction, hazard
// calibration, failure generation, ticketing (crash + background), and
// monitoring-DB content, then calls writer.finish(). Deterministic for a
// given config (including its seed) at any thread count; peak memory is
// bounded by the fleet plus one render block, not by the emitted tables,
// so large fleets can stream straight to disk via ColumnarTraceWriter.
// Before the first record it announces the table sizes through
// writer.expect_rows().
void simulate_to(const SimulationConfig& config, trace::TraceWriter& writer);

// Convenience wrapper: simulate into an in-memory database, whose tables
// are reserved once from the announced sizes, and finalize it.
trace::TraceDatabase simulate(const SimulationConfig& config);

}  // namespace fa::sim

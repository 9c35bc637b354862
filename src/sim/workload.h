// Monitoring-database content: weekly resource-usage rollups for every
// machine, monthly placement snapshots for VMs, and the power on/off events
// a 15-min sampler would record during the paper's two-month fine-grained
// window (March-April 2013).
#pragma once

#include "src/sim/config.h"
#include "src/sim/fleet.h"
#include "src/trace/trace_writer.h"
#include "src/util/rng.h"

namespace fa::sim {

// Weekly usage rows over the ticket year, jittered around each machine's
// static mean profile. Disk/network columns are filled for VMs only,
// mirroring the gaps in the paper's dataset. One RNG stream per server,
// generated in parallel blocks and committed serially; row order stays
// (server, week) and memory stays one block of rows.
void emit_weekly_usage(const SimulationConfig& config, const Fleet& fleet,
                       trace::TraceWriter& writer);

// Monthly (box, consolidation) snapshots for every VM existing that month.
void emit_monthly_snapshots(const Fleet& fleet, trace::TraceWriter& writer);

// The rows emit_weekly_usage and emit_monthly_snapshots write for `fleet`,
// counted by the visibility rule the two emitters apply, so a writer can
// be told the table sizes before generation (TraceWriter::expect_rows).
std::size_t weekly_usage_rows(const Fleet& fleet);
std::size_t snapshot_rows(const Fleet& fleet);

// Power off/on event pairs for VMs inside the fine-grained on/off window,
// with Poisson cycle counts matching each VM's monthly on/off frequency.
// One RNG stream per server, generated in parallel blocks.
void emit_power_events(const SimulationConfig& config, const Fleet& fleet,
                       trace::TraceWriter& writer);

}  // namespace fa::sim

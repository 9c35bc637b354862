#include "src/analysis/out_of_core.h"

#include <vector>

#include "src/obs/span.h"
#include "src/util/error.h"

namespace fa::analysis {
namespace {

using trace::columnar::ChunkView;
using trace::columnar::Table;

constexpr std::uint8_t kUnknownScope = 0xff;

std::uint8_t pack_scope(trace::MachineType type, trace::Subsystem sys) {
  return static_cast<std::uint8_t>(static_cast<int>(type) *
                                       trace::kSubsystemCount +
                                   sys);
}

void finish_rates(OutOfCoreSummary& summary, int weeks) {
  for (int t = 0; t < trace::kMachineTypeCount; ++t) {
    ScopeSummary& type_total = summary.by_type[t];
    for (int s = 0; s < trace::kSubsystemCount; ++s) {
      ScopeSummary& scope = summary.by_scope[t][s];
      if (scope.servers > 0 && weeks > 0) {
        scope.mean_weekly_failure_rate =
            static_cast<double>(scope.crash_tickets) /
            (static_cast<double>(scope.servers) * weeks);
      }
      type_total.servers += scope.servers;
      type_total.crash_tickets += scope.crash_tickets;
    }
    if (type_total.servers > 0 && weeks > 0) {
      type_total.mean_weekly_failure_rate =
          static_cast<double>(type_total.crash_tickets) /
          (static_cast<double>(type_total.servers) * weeks);
    }
  }
}

}  // namespace

OutOfCoreSummary summarize_columnar(const std::string& path, bool use_mmap,
                                    trace::DegradedReadReport* report) {
  obs::Span span("analysis.out_of_core.summarize");
  trace::ChunkReader reader(path, use_mmap);
  OutOfCoreSummary summary;
  const ObservationWindow window = reader.window();
  const int weeks = window.week_count();

  // Pass 1 — servers: one packed (type, subsystem) byte per server. In
  // lenient mode a skipped server chunk must still occupy its positional
  // slots (ids are row positions), so it pads the index with unknown
  // scopes instead of shifting later servers.
  std::vector<std::uint8_t> scope_of;
  scope_of.reserve(reader.row_count(Table::kServers));
  trace::for_each_chunk(
      reader, Table::kServers, report,
      [&](const ChunkView& view, std::int64_t first_row) {
        scope_of.resize(static_cast<std::size_t>(first_row), kUnknownScope);
        const trace::ServerRows rows(view, first_row);
        for (std::uint32_t r = 0; r < view.rows(); ++r) {
          const auto type = static_cast<trace::MachineType>(rows.type[r]);
          const trace::Subsystem sys = rows.subsystem[r];
          ++summary.by_scope[static_cast<int>(type)][sys].servers;
          scope_of.push_back(pack_scope(type, sys));
        }
        summary.servers += view.rows();
      });

  // Pass 2 — tickets: crash volumes per stratum, window-clipped.
  trace::for_each_chunk(
      reader, Table::kTickets, report,
      [&](const ChunkView& view, std::int64_t first_row) {
        const trace::TicketRows rows(view, first_row);
        summary.tickets += view.rows();
        for (std::uint32_t r = 0; r < view.rows(); ++r) {
          if (rows.is_crash[r] == 0) continue;
          ++summary.crash_tickets;
          const TimePoint at = rows.opened[r];
          if (at < window.begin || at >= window.end) continue;
          const std::int32_t sid = rows.server[r];
          if (sid < 0 || static_cast<std::size_t>(sid) >= scope_of.size()) {
            continue;
          }
          const std::uint8_t packed = scope_of[static_cast<std::size_t>(sid)];
          if (packed == kUnknownScope) continue;
          ++summary.by_scope[packed / trace::kSubsystemCount]
                            [packed % trace::kSubsystemCount]
                                .crash_tickets;
        }
      });

  // Monitoring-table volumes come straight from the footer.
  summary.weekly_usage_rows = reader.row_count(Table::kWeeklyUsage);
  summary.power_events = reader.row_count(Table::kPowerEvents);
  summary.snapshots = reader.row_count(Table::kSnapshots);

  finish_rates(summary, weeks);
  return summary;
}

OutOfCoreSummary summarize_database(const trace::TraceDatabase& db) {
  OutOfCoreSummary summary;
  const ObservationWindow window = db.window();
  const int weeks = window.week_count();

  summary.servers = db.servers().size();
  for (const trace::ServerRecord& s : db.servers()) {
    ++summary.by_scope[static_cast<int>(s.type)][s.subsystem].servers;
  }
  summary.tickets = db.tickets().size();
  for (const trace::Ticket& t : db.tickets()) {
    if (!t.is_crash) continue;
    ++summary.crash_tickets;
    if (t.opened < window.begin || t.opened >= window.end) continue;
    if (!t.server.valid()) continue;
    const trace::ServerRecord& s = db.server(t.server);
    ++summary.by_scope[static_cast<int>(s.type)][s.subsystem].crash_tickets;
  }
  for (const trace::ServerRecord& s : db.servers()) {
    summary.weekly_usage_rows += db.weekly_usage_for(s.id).size();
    summary.power_events += db.power_events_for(s.id).size();
    summary.snapshots += db.snapshots_for(s.id).size();
  }

  finish_rates(summary, weeks);
  return summary;
}

}  // namespace fa::analysis

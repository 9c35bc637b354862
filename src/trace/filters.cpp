#include "src/trace/filters.h"

#include "src/obs/metrics.h"

namespace fa::trace {

TicketFilter& TicketFilter::crash_only(bool value) {
  crash_only_ = value;
  return *this;
}

TicketFilter& TicketFilter::subsystem(Subsystem sys) {
  subsystem_ = sys;
  return *this;
}

TicketFilter& TicketFilter::machine_type(MachineType type) {
  machine_type_ = type;
  return *this;
}

TicketFilter& TicketFilter::opened_between(TimePoint begin, TimePoint end) {
  opened_begin_ = begin;
  opened_end_ = end;
  return *this;
}

TicketFilter& TicketFilter::repair_at_least(Duration duration) {
  min_repair_ = duration;
  return *this;
}

TicketFilter& TicketFilter::server(ServerId id) {
  server_ = id;
  return *this;
}

bool TicketFilter::matches(const TraceDatabase& db,
                           const Ticket& ticket) const {
  if (crash_only_ && !ticket.is_crash) return false;
  if (subsystem_ && ticket.subsystem != *subsystem_) return false;
  if (machine_type_) {
    if (!ticket.server.valid()) return false;
    if (db.server(ticket.server).type != *machine_type_) return false;
  }
  if (opened_begin_ && ticket.opened < *opened_begin_) return false;
  if (opened_end_ && ticket.opened >= *opened_end_) return false;
  if (min_repair_ && ticket.repair_time() < *min_repair_) return false;
  if (server_ && ticket.server != *server_) return false;
  return true;
}

std::vector<const Ticket*> TicketFilter::apply(
    const TraceDatabase& db) const {
  std::vector<const Ticket*> out;
  for (const Ticket& t : db.tickets()) {
    if (matches(db, t)) out.push_back(&t);
  }
  return out;
}

std::vector<const Ticket*> TicketFilter::apply(
    const TraceDatabase& db, std::span<const Ticket* const> tickets) const {
  std::vector<const Ticket*> out;
  for (const Ticket* t : tickets) {
    if (matches(db, *t)) out.push_back(t);
  }
  return out;
}

bool TicketFilter::chunk_may_match(const columnar::ChunkInfo& info) const {
  using namespace columnar::col;
  const auto& opened = info.columns[kTicketOpened].stats;
  if (opened.has_minmax) {
    if (opened_begin_ && opened.max < *opened_begin_) return false;
    if (opened_end_ && opened.min >= *opened_end_) return false;
  }
  const auto& server = info.columns[kTicketServer].stats;
  if (server_ && server.has_minmax &&
      (server_->value < server.min || server_->value > server.max)) {
    return false;
  }
  const auto& crash = info.columns[kTicketIsCrash].stats;
  if (crash_only_ && crash.has_minmax && crash.max == 0) return false;
  const auto& sys = info.columns[kTicketSubsystem].stats;
  if (subsystem_ && sys.has_minmax &&
      (*subsystem_ < sys.min || *subsystem_ > sys.max)) {
    return false;
  }
  const auto& closed = info.columns[kTicketClosed].stats;
  if (min_repair_ && opened.has_minmax && closed.has_minmax &&
      closed.max - opened.min < *min_repair_) {
    return false;
  }
  return true;
}

ScannedTickets TicketFilter::scan_columnar(
    const ChunkReader& reader) const {
  static obs::Counter& skipped =
      obs::counter("fa.trace.pushdown.chunks_skipped");
  static obs::Counter& scanned =
      obs::counter("fa.trace.pushdown.chunks_scanned");

  // A machine-type predicate is the one row check that needs server-side
  // context; gather just the types (one byte per server) in a single pass.
  std::vector<std::uint8_t> server_types;
  if (machine_type_) {
    server_types.reserve(reader.row_count(columnar::Table::kServers));
    for_each_chunk(reader, columnar::Table::kServers, nullptr,
                   [&](const columnar::ChunkView& view, std::int64_t) {
                     const auto types =
                         view.column(columnar::col::kServerType).u8_span();
                     server_types.insert(server_types.end(), types.begin(),
                                         types.end());
                   });
  }

  ScannedTickets out;
  std::int64_t first_row = 0;
  const std::size_t chunks = reader.chunk_count(columnar::Table::kTickets);
  for (std::size_t i = 0; i < chunks; ++i) {
    const columnar::ChunkInfo& info =
        reader.chunk_info(columnar::Table::kTickets, i);
    if (!chunk_may_match(info)) {
      skipped.add(1);
      first_row += info.rows;
      continue;
    }
    scanned.add(1);
    const columnar::ChunkView view =
        reader.chunk(columnar::Table::kTickets, i);
    const TicketRows rows(view, first_row);
    for (std::uint32_t r = 0; r < view.rows(); ++r) {
      // Cheap column probes first; decode the full row (strings) last.
      if (crash_only_ && rows.is_crash[r] == 0) continue;
      if (subsystem_ && rows.subsystem[r] != *subsystem_) continue;
      const TimePoint opened = rows.opened[r];
      if (opened_begin_ && opened < *opened_begin_) continue;
      if (opened_end_ && opened >= *opened_end_) continue;
      const std::int32_t server = rows.server[r];
      if (server_ && server != server_->value) continue;
      if (min_repair_ && rows.closed[r] - opened < *min_repair_) continue;
      if (machine_type_) {
        if (server < 0 ||
            static_cast<std::size_t>(server) >= server_types.size()) {
          continue;
        }
        if (static_cast<MachineType>(server_types[server]) !=
            *machine_type_) {
          continue;
        }
      }
      Ticket t = rows.row(r);
      t.description = out.text.store(t.description);
      t.resolution = out.text.store(t.resolution);
      out.tickets.push_back(t);
    }
    reader.release(columnar::Table::kTickets, i);
    first_row += info.rows;
  }
  return out;
}

}  // namespace fa::trace

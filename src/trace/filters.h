// Composable ticket filters: the small query language library consumers use
// to slice a trace before handing it to the analysis functions.
#pragma once

#include <optional>
#include <vector>

#include "src/trace/columnar_io.h"
#include "src/trace/database.h"
#include "src/trace/text_arena.h"

namespace fa::trace {

// The tickets a pushdown scan matched, in table order, with their text:
// every description and resolution views `text`, so the tickets stay valid
// for this object's lifetime, after the ChunkReader that served them.
struct ScannedTickets {
  std::vector<Ticket> tickets;
  TextArena text;
};

class TicketFilter {
 public:
  TicketFilter() = default;

  // All predicates are conjunctive; unset predicates match everything.
  TicketFilter& crash_only(bool value = true);
  TicketFilter& subsystem(Subsystem sys);
  TicketFilter& machine_type(MachineType type);
  // Tickets opened within [begin, end).
  TicketFilter& opened_between(TimePoint begin, TimePoint end);
  // Minimum repair duration.
  TicketFilter& repair_at_least(Duration duration);
  TicketFilter& server(ServerId id);

  bool matches(const TraceDatabase& db, const Ticket& ticket) const;

  // All matching tickets, in table order.
  std::vector<const Ticket*> apply(const TraceDatabase& db) const;
  // Filter an existing selection (e.g. pipeline.failures()).
  std::vector<const Ticket*> apply(
      const TraceDatabase& db,
      std::span<const Ticket* const> tickets) const;

  // ---- columnar predicate pushdown ----

  // True unless the footer min/max stats of a ticket chunk prove no row can
  // match: the opened range misses [opened_begin, opened_end), the server-id
  // range misses a server() predicate, every row is non-crash under
  // crash_only(), the subsystem range misses a subsystem() predicate, or
  // even the widest possible repair time (max closed - min opened) is below
  // repair_at_least(). Conservative: never skips a matching chunk.
  bool chunk_may_match(const columnar::ChunkInfo& info) const;

  // Scans the ticket table of a columnar file chunk-at-a-time, skipping
  // chunks via chunk_may_match and materializing matching tickets only,
  // their text copied into the result; each scanned chunk is released
  // once its rows are copied out
  // (ChunkReader::release). Skipped/scanned chunk counts land in the
  // deterministic counters fa.trace.pushdown.chunks_skipped /
  // .chunks_scanned. A machine_type() predicate reads the servers table
  // once (one byte of state per server); everything else needs no
  // server-side state at all.
  ScannedTickets scan_columnar(const ChunkReader& reader) const;

 private:
  bool crash_only_ = false;
  std::optional<Subsystem> subsystem_;
  std::optional<MachineType> machine_type_;
  std::optional<TimePoint> opened_begin_;
  std::optional<TimePoint> opened_end_;
  std::optional<Duration> min_repair_;
  std::optional<ServerId> server_;
};

}  // namespace fa::trace

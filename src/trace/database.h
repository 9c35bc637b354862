// In-memory trace database.
//
// Models the paper's situation of several disparate data sources (inventory,
// ticketing, resource monitoring) that must be joined by server id before
// any analysis can happen. The analysis layer only ever consumes this type,
// so it runs unchanged on simulated traces or on real exports loaded via
// fa::trace::load_database().
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/trace/records.h"
#include "src/trace/text_arena.h"
#include "src/trace/types.h"
#include "src/util/sim_time.h"

namespace fa::trace {

// The largest incident id a database holds: one past it must still fit the
// int32 incident counter. Loaders refuse or quarantine larger ones.
inline constexpr std::int32_t kMaxIncidentId =
    std::numeric_limits<std::int32_t>::max() - 1;

// Ticket text lives in the database's own arena, so every Ticket the
// database hands out views bytes it owns. Moving the database keeps those
// views valid; copying it is deleted.
class TraceDatabase {
 public:
  TraceDatabase();
  TraceDatabase(TraceDatabase&&) = default;
  TraceDatabase& operator=(TraceDatabase&&) = default;
  TraceDatabase(const TraceDatabase&) = delete;
  TraceDatabase& operator=(const TraceDatabase&) = delete;

  // ---- construction (simulator / CSV loader) ----
  // Assigns and returns the record id.
  ServerId add_server(ServerRecord record);
  // Copies the ticket's text into the arena; the caller's text may go
  // away once this returns.
  TicketId add_ticket(Ticket ticket);
  // Bulk text for loaders: store_text copies `text` (say, one chunk's
  // dictionary) into the arena and returns the copy; add_stored_ticket
  // adds a ticket whose text already views such copies, as it is.
  std::string_view store_text(std::string_view text);
  TicketId add_stored_ticket(Ticket ticket);
  void add_weekly_usage(WeeklyUsage usage);
  void add_power_event(PowerEvent event);
  void add_monthly_snapshot(MonthlySnapshot snapshot);
  // Pre-sizes the table vectors for loaders that know row counts up front
  // (the columnar footer carries them; CSV does not).
  void reserve(std::size_t servers, std::size_t tickets,
               std::size_t weekly_usage, std::size_t power_events,
               std::size_t snapshots);
  // Allocates a fresh incident id (tickets sharing one incident share it).
  // Throws once every id up to kMaxIncidentId is taken.
  IncidentId new_incident();
  bool incident_ids_exhausted() const {
    return next_incident_ > kMaxIncidentId;
  }
  // Raises the incident counter so new_incident() returns no id below
  // `next` (clamped to [0, kMaxIncidentId + 1]); never lowers it. Loaders
  // call it with one past the highest incident id they loaded.
  void raise_incident_counter(std::int64_t next);

  // Overrides the observation windows (defaults are the paper's 2012-2013
  // windows). Real trace exports carry their own spans; must be called
  // before finalize(). The on/off tracking window must lie within the
  // ticket window, and the ticket window within monitoring coverage.
  void set_windows(ObservationWindow ticket, ObservationWindow monitoring,
                   ObservationWindow onoff_tracking);

  // Validates referential integrity and builds per-server indexes. Must be
  // called once after construction; queries throw before finalization.
  void finalize();
  bool finalized() const { return finalized_; }

  // ---- observation windows ----
  // The failure/ticket observation year.
  const ObservationWindow& window() const { return window_; }
  // The (longer) monitoring coverage used for VM ages and usage.
  const ObservationWindow& monitoring() const { return monitoring_; }
  // The fine-grained power-state tracking period (15-min samples).
  const ObservationWindow& onoff_tracking() const { return onoff_; }

  // ---- whole-table access ----
  const std::vector<ServerRecord>& servers() const { return servers_; }
  const std::vector<Ticket>& tickets() const { return tickets_; }
  // Ordered by (server, week) once finalized.
  const std::vector<WeeklyUsage>& weekly_usage() const {
    return weekly_usage_;
  }

  // ---- point lookups ----
  const ServerRecord& server(ServerId id) const;
  const Ticket& ticket(TicketId id) const;

  // ---- filtered views ----
  // All crash tickets (the paper's "server failures").
  std::vector<const Ticket*> crash_tickets() const;
  std::vector<const Ticket*> crash_tickets_for(ServerId id) const;
  std::vector<ServerId> servers_of(MachineType type) const;
  std::vector<ServerId> servers_of(MachineType type, Subsystem sys) const;
  std::size_t server_count(MachineType type) const;
  std::size_t server_count(MachineType type, Subsystem sys) const;
  std::size_t ticket_count(Subsystem sys) const;

  // Crash tickets grouped by incident id (spatial-dependency analysis).
  std::vector<std::vector<const Ticket*>> incidents() const;

  // ---- monitoring DB views (sorted by time/week/month) ----
  std::span<const WeeklyUsage> weekly_usage_for(ServerId id) const;
  std::span<const PowerEvent> power_events_for(ServerId id) const;
  std::span<const MonthlySnapshot> snapshots_for(ServerId id) const;

  // Expands power events into the 15-min boolean series the paper's
  // monitoring DB records, over [window.begin, window.end).
  std::vector<bool> power_series_for(ServerId id,
                                     const ObservationWindow& window) const;

  // Consolidation level of a VM's box in the month containing t, or 0 when
  // no snapshot covers t.
  int consolidation_at(ServerId id, TimePoint t) const;

 private:
  void require_finalized() const;

  ObservationWindow window_;
  ObservationWindow monitoring_;
  ObservationWindow onoff_;
  std::vector<ServerRecord> servers_;
  std::vector<Ticket> tickets_;
  TextArena text_;  // every ticket's description and resolution
  std::vector<WeeklyUsage> weekly_usage_;
  std::vector<PowerEvent> power_events_;
  std::vector<MonthlySnapshot> snapshots_;
  std::int32_t next_incident_ = 0;
  bool finalized_ = false;

  // Per-server indexes built by finalize(). Server ids are row positions of
  // servers_, so each index is dense, one entry per server plus one: the
  // rows of server s are [offsets[s], offsets[s+1]). The monitoring tables
  // above are sorted by (server, time), so their offsets index them
  // directly; crash_rows_ lists crash ticket positions grouped by server,
  // in ticket order within a server.
  std::vector<std::size_t> usage_offsets_;
  std::vector<std::size_t> power_offsets_;
  std::vector<std::size_t> snapshot_offsets_;
  std::vector<std::size_t> crash_offsets_;
  std::vector<std::size_t> crash_rows_;
};

}  // namespace fa::trace

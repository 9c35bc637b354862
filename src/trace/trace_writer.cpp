#include "src/trace/trace_writer.h"

#include "src/util/error.h"

namespace fa::trace {

ServerId TraceWriter::add_server(ServerRecord record) {
  const ServerId id{next_server_++};
  record.id = id;
  do_add_server(record);
  return id;
}

TicketId TraceWriter::add_ticket(Ticket ticket) {
  const TicketId id{next_ticket_++};
  ticket.id = id;
  require(ticket.subsystem < kSubsystemCount,
          "TraceWriter: ticket with invalid subsystem");
  ++tickets_by_subsystem_[ticket.subsystem];
  do_add_ticket(ticket);
  return id;
}

void TraceWriter::add_tickets(std::span<Ticket> tickets) {
  for (Ticket& ticket : tickets) {
    ticket.id = TicketId{next_ticket_++};
    require(ticket.subsystem < kSubsystemCount,
            "TraceWriter: ticket with invalid subsystem");
    ++tickets_by_subsystem_[ticket.subsystem];
  }
  do_add_tickets(tickets);
}

void TraceWriter::do_add_tickets(std::span<Ticket> tickets) {
  for (const Ticket& ticket : tickets) do_add_ticket(ticket);
}

void TraceWriter::add_weekly_usage(const WeeklyUsage& usage) {
  do_add_weekly_usage(usage);
}

void TraceWriter::add_power_event(const PowerEvent& event) {
  do_add_power_event(event);
}

void TraceWriter::add_monthly_snapshot(const MonthlySnapshot& snapshot) {
  do_add_monthly_snapshot(snapshot);
}

void TraceWriter::add_weekly_usage_rows(std::span<const WeeklyUsage> rows) {
  do_add_weekly_usage_rows(rows);
}

void TraceWriter::add_power_events(std::span<const PowerEvent> events) {
  do_add_power_events(events);
}

void TraceWriter::add_monthly_snapshots(
    std::span<const MonthlySnapshot> snapshots) {
  do_add_monthly_snapshots(snapshots);
}

void TraceWriter::do_add_weekly_usage_rows(
    std::span<const WeeklyUsage> rows) {
  for (const WeeklyUsage& usage : rows) do_add_weekly_usage(usage);
}

void TraceWriter::do_add_power_events(std::span<const PowerEvent> events) {
  for (const PowerEvent& event : events) do_add_power_event(event);
}

void TraceWriter::do_add_monthly_snapshots(
    std::span<const MonthlySnapshot> snapshots) {
  for (const MonthlySnapshot& snapshot : snapshots) {
    do_add_monthly_snapshot(snapshot);
  }
}

IncidentId TraceWriter::new_incident() { return IncidentId{next_incident_++}; }

void DatabaseTraceWriter::do_add_server(const ServerRecord& record) {
  const ServerId assigned = db_.add_server(record);
  require(assigned == record.id,
          "DatabaseTraceWriter: writer/database server id mismatch");
}

void DatabaseTraceWriter::do_add_ticket(Ticket ticket) {
  const TicketId expected = ticket.id;
  const TicketId assigned = db_.add_ticket(ticket);
  require(assigned == expected,
          "DatabaseTraceWriter: writer/database ticket id mismatch");
}

}  // namespace fa::trace

// Streaming sink interface for trace generation.
//
// The simulator emits records through this interface instead of mutating a
// TraceDatabase directly, so the same generation code can either build the
// classic in-memory database (DatabaseTraceWriter) or stream chunks straight
// to a columnar file (ColumnarTraceWriter) with memory bounded by chunk
// size. The base class owns id assignment (server/ticket ids are contiguous
// append positions, incident ids a simple counter) and per-subsystem ticket
// tallies, so every sink agrees on ids and the simulator can emit its
// volume metrics without a database to query.
//
// Writers are not thread-safe: the simulator's parallel phases render into
// private slots and commit through the writer from their serial sections
// only, which is also what keeps emitted traces bit-identical at any
// --threads setting.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "src/trace/columnar_io.h"
#include "src/trace/database.h"
#include "src/trace/records.h"

namespace fa::trace {

// Row counts a producer announces before its first record, so that a sink
// can size its tables once. 0 means not announced; `tickets` is a budget
// the producer may exceed.
struct ExpectedRows {
  std::size_t servers = 0;
  std::size_t tickets = 0;
  std::size_t weekly_usage = 0;
  std::size_t power_events = 0;
  std::size_t snapshots = 0;
};

class TraceWriter {
 public:
  virtual ~TraceWriter() = default;

  // Called at most once, before the first record. The default ignores it:
  // a streaming sink's memory does not grow with the tables.
  virtual void expect_rows(const ExpectedRows& /*rows*/) {}

  // Assign ids (contiguous append order) and forward to the sink.
  ServerId add_server(ServerRecord record);
  TicketId add_ticket(Ticket ticket);
  // Batch commit: assigns contiguous ids in span order (serially, so ids are
  // independent of the sink), then hands the whole batch to the sink, which
  // may encode it with column-level parallelism. A ticket's text must stay
  // valid only for the call: a sink that keeps it copies it.
  void add_tickets(std::span<Ticket> tickets);
  void add_weekly_usage(const WeeklyUsage& usage);
  void add_power_event(const PowerEvent& event);
  void add_monthly_snapshot(const MonthlySnapshot& snapshot);
  // Span commits of the monitoring tables: the rows in span order, as the
  // per-row calls would add them (the simulator commits one server's rows
  // per call).
  void add_weekly_usage_rows(std::span<const WeeklyUsage> rows);
  void add_power_events(std::span<const PowerEvent> events);
  void add_monthly_snapshots(std::span<const MonthlySnapshot> snapshots);

  // Allocates a fresh incident id. Virtual so DatabaseTraceWriter can share
  // the database's own counter.
  virtual IncidentId new_incident();

  // Overrides the observation windows (defaults: the paper windows).
  virtual void set_windows(ObservationWindow ticket,
                           ObservationWindow monitoring,
                           ObservationWindow onoff_tracking) = 0;

  // Flushes sink state (columnar: pending chunks + footer). Must be the
  // last call; adding records afterwards is an error in the columnar sink.
  virtual void finish() = 0;

  // ---- emission tallies (valid at any point during generation) ----
  std::size_t server_count() const { return next_server_; }
  std::size_t ticket_count() const { return next_ticket_; }
  std::size_t ticket_count(Subsystem sys) const {
    return tickets_by_subsystem_[sys];
  }
  std::int32_t next_incident_value() const { return next_incident_; }

 protected:
  virtual void do_add_server(const ServerRecord& record) = 0;
  virtual void do_add_ticket(Ticket ticket) = 0;
  // Batch hook; the default forwards one ticket at a time.
  virtual void do_add_tickets(std::span<Ticket> tickets);
  virtual void do_add_weekly_usage(const WeeklyUsage& usage) = 0;
  virtual void do_add_power_event(const PowerEvent& event) = 0;
  virtual void do_add_monthly_snapshot(const MonthlySnapshot& snapshot) = 0;
  // Span hooks; the defaults forward one row at a time to the per-row hooks
  // above, so a sink that overrides only those sees every row. They are
  // named apart from the per-row hooks so that overriding one does not hide
  // the other.
  virtual void do_add_weekly_usage_rows(std::span<const WeeklyUsage> rows);
  virtual void do_add_power_events(std::span<const PowerEvent> events);
  virtual void do_add_monthly_snapshots(
      std::span<const MonthlySnapshot> snapshots);

 private:
  std::int32_t next_server_ = 0;
  std::int32_t next_ticket_ = 0;
  std::int32_t next_incident_ = 0;
  std::array<std::size_t, kSubsystemCount> tickets_by_subsystem_{};
};

// Sink building the classic in-memory TraceDatabase. finish() does NOT
// finalize the database — the caller decides when (and whether) to index.
class DatabaseTraceWriter final : public TraceWriter {
 public:
  explicit DatabaseTraceWriter(TraceDatabase& db) : db_(db) {}

  // Reserves every announced table, so none grows by reallocation.
  void expect_rows(const ExpectedRows& rows) override {
    db_.reserve(rows.servers, rows.tickets, rows.weekly_usage,
                rows.power_events, rows.snapshots);
  }
  IncidentId new_incident() override { return db_.new_incident(); }
  void set_windows(ObservationWindow ticket, ObservationWindow monitoring,
                   ObservationWindow onoff_tracking) override {
    db_.set_windows(ticket, monitoring, onoff_tracking);
  }
  void finish() override {}

 protected:
  void do_add_server(const ServerRecord& record) override;
  void do_add_ticket(Ticket ticket) override;
  void do_add_weekly_usage(const WeeklyUsage& usage) override {
    db_.add_weekly_usage(usage);
  }
  void do_add_power_event(const PowerEvent& event) override {
    db_.add_power_event(event);
  }
  void do_add_monthly_snapshot(const MonthlySnapshot& snapshot) override {
    db_.add_monthly_snapshot(snapshot);
  }

 private:
  TraceDatabase& db_;
};

// Sink streaming chunks to a columnar file as records arrive; peak memory
// is one partial chunk per table regardless of fleet size.
class ColumnarTraceWriter final : public TraceWriter {
 public:
  explicit ColumnarTraceWriter(const std::string& path,
                               std::uint32_t chunk_rows = kDefaultChunkRows)
      : writer_(path, chunk_rows) {}
  ColumnarTraceWriter(const std::string& path, const WriterOptions& options)
      : writer_(path, options) {}
  // Streams through a caller-supplied file (fault injection, tests).
  explicit ColumnarTraceWriter(std::unique_ptr<io::WritableFile> file,
                               const WriterOptions& options = {})
      : writer_(std::move(file), options) {}

  void set_windows(ObservationWindow ticket, ObservationWindow monitoring,
                   ObservationWindow onoff_tracking) override {
    writer_.set_windows(ticket, monitoring, onoff_tracking);
  }
  void finish() override {
    writer_.set_next_incident(next_incident_value());
    writer_.finish();
  }

  // Valid after finish().
  const FileReport& report() const { return writer_.report(); }

 protected:
  void do_add_server(const ServerRecord& record) override {
    writer_.add_server(record);
  }
  void do_add_ticket(Ticket ticket) override { writer_.add_ticket(ticket); }
  void do_add_tickets(std::span<Ticket> tickets) override {
    writer_.add_tickets(tickets);
  }
  void do_add_weekly_usage(const WeeklyUsage& usage) override {
    writer_.add_weekly_usage(usage);
  }
  void do_add_power_event(const PowerEvent& event) override {
    writer_.add_power_event(event);
  }
  void do_add_monthly_snapshot(const MonthlySnapshot& snapshot) override {
    writer_.add_monthly_snapshot(snapshot);
  }
  void do_add_weekly_usage_rows(std::span<const WeeklyUsage> rows) override {
    writer_.add_weekly_usage_rows(rows);
  }
  void do_add_power_events(std::span<const PowerEvent> events) override {
    writer_.add_power_events(events);
  }
  void do_add_monthly_snapshots(
      std::span<const MonthlySnapshot> snapshots) override {
    writer_.add_monthly_snapshots(snapshots);
  }

 private:
  ColumnarWriter writer_;
};

}  // namespace fa::trace

// Decorators that time the sink a simulator feeds, for traced passes: a
// TraceWriter around the in-memory or columnar writer, and a StreamSink
// around the online detector. Both forward every call unchanged, so a traced
// pass produces the same trace, file bytes and alerts as an untraced one.
#pragma once

#include <span>

#include "perfbench/harness.h"
#include "src/trace/event_stream.h"
#include "src/trace/trace_writer.h"

namespace perfbench {

// Times every call into `inner`. The base class assigns ids and tallies in
// this decorator; `inner` repeats the same assignment, and new_incident() is
// forwarded so that the inner writer's incident counter (which a columnar
// file records in its footer) advances exactly as without the decorator.
class TimedTraceWriter final : public fa::trace::TraceWriter {
 public:
  TimedTraceWriter(fa::trace::TraceWriter& inner, CallTimer& timer)
      : inner_(inner), timer_(timer) {}

  fa::trace::IncidentId new_incident() override {
    return inner_.new_incident();
  }
  void set_windows(fa::ObservationWindow ticket,
                   fa::ObservationWindow monitoring,
                   fa::ObservationWindow onoff_tracking) override {
    timer_.time(
        [&] { inner_.set_windows(ticket, monitoring, onoff_tracking); });
  }
  void finish() override {
    timer_.time([&] { inner_.finish(); });
  }

 protected:
  void do_add_server(const fa::trace::ServerRecord& record) override {
    timer_.time([&] { inner_.add_server(record); });
  }
  void do_add_ticket(fa::trace::Ticket ticket) override {
    timer_.time([&] { inner_.add_ticket(std::move(ticket)); });
  }
  void do_add_tickets(std::span<fa::trace::Ticket> tickets) override {
    timer_.time([&] { inner_.add_tickets(tickets); });
  }
  void do_add_weekly_usage(const fa::trace::WeeklyUsage& usage) override {
    timer_.time([&] { inner_.add_weekly_usage(usage); });
  }
  void do_add_power_event(const fa::trace::PowerEvent& event) override {
    timer_.time([&] { inner_.add_power_event(event); });
  }
  void do_add_monthly_snapshot(
      const fa::trace::MonthlySnapshot& snapshot) override {
    timer_.time([&] { inner_.add_monthly_snapshot(snapshot); });
  }

 private:
  fa::trace::TraceWriter& inner_;
  CallTimer& timer_;
};

// Times calls into a StreamSink through `timer` (which may sample).
class TimedSink final : public fa::trace::StreamSink {
 public:
  TimedSink(fa::trace::StreamSink& inner, CallTimer& timer)
      : inner_(inner), timer_(timer) {}

  void begin(const fa::trace::StreamMeta& meta) override {
    timer_.time([&] { inner_.begin(meta); });
  }
  void on_event(const fa::trace::StreamEvent& event) override {
    timer_.time([&] { inner_.on_event(event); });
  }
  void finish(fa::TimePoint stream_end) override {
    timer_.time([&] { inner_.finish(stream_end); });
  }

 private:
  fa::trace::StreamSink& inner_;
  CallTimer& timer_;
};

}  // namespace perfbench

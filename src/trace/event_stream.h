// Streaming event delivery interface — the ingestion-side counterpart of
// TraceWriter (trace_writer.h).
//
// Where TraceWriter lets the simulator *produce* a trace table by table, a
// StreamSink lets a consumer *receive* the trace as one merged event stream
// in timestamp order, the shape a live ticketing/monitoring feed would have.
// The online-detection layer (src/detect/) implements this interface with
// incremental estimators whose memory is bounded by the sliding window, so
// arbitrarily long streams never materialize a TraceDatabase.
//
// Contract (enforced by the emitters in src/sim/stream.h):
//   * begin(meta) is called exactly once, before any event;
//   * events arrive in non-decreasing `at` order (ties broken by kind, then
//     record identity, so replays are byte-reproducible);
//   * finish(stream_end) is called exactly once, after the last event, with
//     stream_end >= every delivered timestamp.
// Sinks that tolerate disordered feeds (e.g. OnlineDetector's reorder
// buffer) may relax the ordering clause; the contract above is what the
// simulator-driven emitters guarantee.
//
// A StreamEvent is trivially copyable: a sink may buffer events by value
// (plain memcpy), but a ticket's text fields are views into the producer's
// rows, valid until finish() returns. A sink that keeps text past finish()
// must copy it.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <type_traits>

#include "src/trace/records.h"
#include "src/trace/types.h"
#include "src/util/sim_time.h"

namespace fa::trace {

enum class StreamEventKind : std::uint8_t {
  kTicket = 0,  // a ticket was opened (crash or background)
  kUsage = 1,   // a weekly usage average became available (week end)
};

// A ticket as the feed carries it: Ticket's scalar fields, with `opened`
// and `closed` as delivered (warped, when the replay scripts a hazard
// timeline), and the text as views into the producer's ticket row.
struct StreamTicket {
  TicketId id;
  IncidentId incident;
  ServerId server;
  Subsystem subsystem = 0;
  bool is_crash = false;
  FailureClass true_class = FailureClass::kOther;

  TimePoint opened = 0;
  TimePoint closed = 0;

  // Valid until the producer's finish() returns.
  std::string_view description;
  std::string_view resolution;

  Duration repair_time() const { return closed - opened; }
};

// One element of the merged feed. Exactly one payload is meaningful,
// selected by `kind`; `machine_type` is denormalized from the inventory so
// sinks can stratify by PM/VM without holding the server table (a ticket
// without a server carries the default).
struct StreamEvent {
  StreamEventKind kind = StreamEventKind::kTicket;
  TimePoint at = 0;  // ticket opening time / usage availability time
  MachineType machine_type = MachineType::kPhysical;

  StreamTicket ticket;  // valid when kind == kTicket
  WeeklyUsage usage;    // valid when kind == kUsage
};
static_assert(std::is_trivially_copyable_v<StreamEvent>,
              "sinks buffer StreamEvents by plain copy");

// Stream header: the population denominators and observation window a sink
// needs to turn event counts into rates. Mirrors what a tenant would
// configure when registering a fleet with the ingestion service.
struct StreamMeta {
  ObservationWindow window;  // the period the stream covers
  std::size_t server_count = 0;
  std::array<std::size_t, kMachineTypeCount> servers_by_type{};
  std::array<std::size_t, kSubsystemCount> servers_by_subsystem{};
};

class StreamSink {
 public:
  virtual ~StreamSink() = default;

  virtual void begin(const StreamMeta& meta) = 0;
  virtual void on_event(const StreamEvent& event) = 0;
  // `stream_end` is the time the feed stopped — for a complete trace the
  // window end, for a tenant that disconnected mid-window the cutoff.
  virtual void finish(TimePoint stream_end) = 0;
};

}  // namespace fa::trace

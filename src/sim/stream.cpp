#include "src/sim/stream.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <numeric>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/error.h"

namespace fa::sim {
namespace {

// Piecewise-constant relative intensity of the scenario over `window`:
// segment i covers [edges[i], edges[i+1]) with intensity factors[i].
struct Timeline {
  std::vector<TimePoint> edges;   // size n+1, edges.front()=begin, back()=end
  std::vector<double> factors;    // size n, all > 0
  std::vector<double> cum_mass;   // size n+1, cum_mass[i] = mass before edge i
  double total_mass = 0.0;
};

Timeline build_timeline(const StreamScenario& scenario,
                        const ObservationWindow& window) {
  Timeline tl;
  tl.edges.push_back(window.begin);
  tl.factors.push_back(1.0);
  TimePoint prev = window.begin;
  for (const HazardShift& s : scenario.shifts) {
    require(s.factor > 0.0, "emit_stream: hazard shift factor must be > 0");
    require(s.at > prev && s.at < window.end,
            "emit_stream: hazard shifts must be strictly increasing and "
            "inside the stream window");
    prev = s.at;
    tl.edges.push_back(s.at);
    tl.factors.push_back(s.factor);
  }
  tl.edges.push_back(window.end);
  tl.cum_mass.resize(tl.edges.size(), 0.0);
  for (std::size_t i = 0; i < tl.factors.size(); ++i) {
    tl.cum_mass[i + 1] =
        tl.cum_mass[i] +
        tl.factors[i] * static_cast<double>(tl.edges[i + 1] - tl.edges[i]);
  }
  tl.total_mass = tl.cum_mass.back();
  return tl;
}

// Maps window fraction u in [0, 1] to the point where the normalized
// integral of the timeline intensity reaches u (inverse-CDF of r / |r|).
TimePoint warp_fraction(const Timeline& tl, const ObservationWindow& window,
                        double u) {
  const double target = u * tl.total_mass;
  // Find the segment holding `target` mass (few segments: linear scan).
  std::size_t i = 0;
  while (i + 1 < tl.factors.size() && tl.cum_mass[i + 1] < target) ++i;
  const double within = (target - tl.cum_mass[i]) / tl.factors[i];
  const TimePoint warped =
      tl.edges[i] + static_cast<TimePoint>(std::llround(within));
  return std::clamp(warped, window.begin, window.end - 1);
}

// A ticket's place in the feed, kept inline so the sort never leaves the
// key: delivery time, then ticket id; `row` indexes db.tickets().
struct TicketKey {
  TimePoint at = 0;
  std::int32_t id = 0;
  std::uint32_t row = 0;

  friend auto operator<=>(const TicketKey&, const TicketKey&) = default;
};

// finalize() checks the server of crash tickets only, so a background
// ticket may name no server; it travels with the default machine type.
trace::MachineType machine_type_of(const trace::TraceDatabase& db,
                                   trace::ServerId id) {
  const std::vector<trace::ServerRecord>& servers = db.servers();
  return id.valid() && static_cast<std::size_t>(id.value) < servers.size()
             ? servers[static_cast<std::size_t>(id.value)].type
             : trace::MachineType{};
}

}  // namespace

std::vector<TimePoint> StreamScenario::change_points() const {
  std::vector<TimePoint> points;
  double factor = 1.0;
  for (const HazardShift& s : shifts) {
    if (s.factor != factor) points.push_back(s.at);
    factor = s.factor;
  }
  return points;
}

TimePoint warp_time(const StreamScenario& scenario,
                    const ObservationWindow& window, TimePoint t) {
  if (scenario.shifts.empty() || !window.contains(t)) return t;
  const Timeline tl = build_timeline(scenario, window);
  const double u = static_cast<double>(t - window.begin) /
                   static_cast<double>(window.length());
  return warp_fraction(tl, window, u);
}

void emit_stream(const trace::TraceDatabase& db,
                 const StreamScenario& scenario, trace::StreamSink& sink) {
  obs::Span span("detect.emit_stream");
  require(db.finalized(), "emit_stream: database must be finalized");
  const ObservationWindow& window = db.window();
  const bool warp = !scenario.shifts.empty();
  Timeline tl;
  if (warp) tl = build_timeline(scenario, window);
  const TimePoint stream_end =
      scenario.cutoff > 0 ? scenario.cutoff : window.end;
  require(stream_end > window.begin && stream_end <= window.end,
          "emit_stream: cutoff must lie inside the stream window");

  trace::StreamMeta meta;
  meta.window = window;
  meta.server_count = db.servers().size();
  for (const trace::ServerRecord& s : db.servers()) {
    ++meta.servers_by_type[static_cast<std::size_t>(s.type)];
    ++meta.servers_by_subsystem[s.subsystem];
  }

  // Tickets in delivery order: (at, id), those at or past the stream end
  // dropped.
  const std::vector<trace::Ticket>& all_tickets = db.tickets();
  std::vector<TicketKey> tickets;
  tickets.reserve(all_tickets.size());
  for (std::size_t row = 0; row < all_tickets.size(); ++row) {
    const trace::Ticket& t = all_tickets[row];
    TimePoint at = t.opened;
    if (warp && window.contains(t.opened)) {
      const double u = static_cast<double>(t.opened - window.begin) /
                       static_cast<double>(window.length());
      at = warp_fraction(tl, window, u);
    }
    if (at < stream_end) {
      tickets.push_back({at, t.id.value, static_cast<std::uint32_t>(row)});
    }
  }
  std::sort(tickets.begin(), tickets.end());

  // A weekly average becomes available at the end of its week; the
  // monitoring cadence is wall-clock, so usage timestamps are never warped.
  // Week w lands in bucket b = w + 1 (earlier weeks in bucket 0), delivered
  // at window.begin + b weeks; only buckets starting before the stream end
  // are delivered. finalize() keeps the rows (server, week)-ordered, so a
  // stable counting sort by bucket yields (at, server, week) order.
  const auto bucket_of = [](const trace::WeeklyUsage& u) {
    return static_cast<std::size_t>(
        std::max<std::int64_t>(0, std::int64_t{u.week} + 1));
  };
  const auto buckets = static_cast<std::size_t>(
      (stream_end - window.begin + kMinutesPerWeek - 1) / kMinutesPerWeek);
  std::vector<std::size_t> bucket_start(buckets + 1, 0);
  for (const trace::WeeklyUsage& u : db.weekly_usage()) {
    const std::size_t b = bucket_of(u);
    if (b < buckets) ++bucket_start[b + 1];
  }
  std::partial_sum(bucket_start.begin(), bucket_start.end(),
                   bucket_start.begin());
  std::vector<const trace::WeeklyUsage*> usage(bucket_start.back());
  std::vector<std::size_t> fill(bucket_start.begin(), bucket_start.end() - 1);
  for (const trace::WeeklyUsage& u : db.weekly_usage()) {
    const std::size_t b = bucket_of(u);
    if (b < buckets) usage[fill[b]++] = &u;
  }

  // Merge the two runs, tickets first on equal `at`. Each kind reuses one
  // event, so the unused payload stays default-constructed and ticket text
  // keeps its capacity across calls. Rows are copied in an order unrelated
  // to where they sit in memory, so each delivery prefetches the row its
  // kind copies kAhead deliveries later (a ticket in two steps: the record,
  // then its text), and the sink's work in between hides the cache misses.
  constexpr std::size_t kAhead = 16;
  sink.begin(meta);
  trace::StreamEvent ticket_event;
  ticket_event.kind = trace::StreamEventKind::kTicket;
  trace::StreamEvent usage_event;
  usage_event.kind = trace::StreamEventKind::kUsage;
  std::size_t next_ticket = 0;
  const auto deliver_tickets_through = [&](TimePoint until) {
    for (; next_ticket < tickets.size() && tickets[next_ticket].at <= until;
         ++next_ticket) {
      if (next_ticket + kAhead < tickets.size()) {
        __builtin_prefetch(&all_tickets[tickets[next_ticket + kAhead].row]);
      }
      if (next_ticket + kAhead / 2 < tickets.size()) {
        const trace::Ticket& soon =
            all_tickets[tickets[next_ticket + kAhead / 2].row];
        __builtin_prefetch(soon.description.data());
        __builtin_prefetch(soon.resolution.data());
      }
      const TicketKey& key = tickets[next_ticket];
      const trace::Ticket& t = all_tickets[key.row];
      ticket_event.at = key.at;
      ticket_event.machine_type = machine_type_of(db, t.server);
      ticket_event.ticket = t;
      ticket_event.ticket.opened = key.at;
      ticket_event.ticket.closed = key.at + t.repair_time();
      sink.on_event(ticket_event);
    }
  };
  for (std::size_t b = 0; b < buckets; ++b) {
    usage_event.at =
        window.begin + static_cast<TimePoint>(b) * kMinutesPerWeek;
    deliver_tickets_through(usage_event.at);
    for (std::size_t i = bucket_start[b]; i < bucket_start[b + 1]; ++i) {
      if (i + kAhead < usage.size()) __builtin_prefetch(usage[i + kAhead]);
      usage_event.machine_type = db.server(usage[i]->server).type;
      usage_event.usage = *usage[i];
      sink.on_event(usage_event);
    }
  }
  deliver_tickets_through(stream_end);
  sink.finish(stream_end);
  obs::counter("fa.detect.stream.emitted").add(tickets.size() + usage.size());
}

}  // namespace fa::sim

#include "src/sim/stream.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

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

// A ticket's place in the feed: its delivery time and its row in
// db.tickets().
struct TicketKey {
  TimePoint at = 0;
  std::uint32_t row = 0;
};

// Stable LSD radix sort of `keys` by `at - origin`, every key in
// [origin, origin + span): one counting pass for all 11-bit digits, then one
// scatter per digit.
void radix_sort_by_time(std::vector<TicketKey>& keys, TimePoint origin,
                        Duration span) {
  constexpr int kDigitBits = 11;
  constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
  const auto digit = [origin](const TicketKey& k, int d) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(k.at - origin) >> (d * kDigitBits)) &
        (kRadix - 1));
  };
  int digits = 0;
  for (auto top = static_cast<std::uint64_t>(span - 1); top != 0;
       top >>= kDigitBits) {
    ++digits;
  }
  std::vector<std::size_t> counts(static_cast<std::size_t>(digits) * kRadix,
                                  0);
  for (const TicketKey& k : keys) {
    for (int d = 0; d < digits; ++d) {
      ++counts[static_cast<std::size_t>(d) * kRadix + digit(k, d)];
    }
  }
  std::vector<TicketKey> scratch(keys.size());
  for (int d = 0; d < digits; ++d) {
    std::size_t* const offsets = &counts[static_cast<std::size_t>(d) * kRadix];
    std::size_t next = 0;
    for (std::size_t b = 0; b < kRadix; ++b) {
      next += std::exchange(offsets[b], next);
    }
    for (const TicketKey& k : keys) scratch[offsets[digit(k, d)]++] = k;
    keys.swap(scratch);
  }
}

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

  // Tickets in delivery order: (at, id), those before the window or at or
  // past the stream end dropped. Ticket ids are row positions
  // (TraceDatabase::add_ticket assigns them), so a stable sort by `at` of
  // the rows in row order yields (at, id) order.
  const std::vector<trace::Ticket>& all_tickets = db.tickets();
  std::vector<TicketKey> tickets;
  tickets.reserve(all_tickets.size());
  for (std::size_t row = 0; row < all_tickets.size(); ++row) {
    const TimePoint opened = all_tickets[row].opened;
    if (!window.contains(opened)) continue;
    TimePoint at = opened;
    if (warp) {
      const double u = static_cast<double>(opened - window.begin) /
                       static_cast<double>(window.length());
      at = warp_fraction(tl, window, u);
    }
    if (at < stream_end) {
      tickets.push_back({at, static_cast<std::uint32_t>(row)});
    }
  }
  radix_sort_by_time(tickets, window.begin, stream_end - window.begin);

  // A weekly average becomes available at the end of its week; the
  // monitoring cadence is wall-clock, so usage timestamps are never warped.
  // Week w lands in bucket b = w + 1 (earlier weeks in bucket 0), delivered
  // at window.begin + b weeks; only buckets starting before the stream end
  // are delivered. finalize() keeps each server's rows week-ordered, so one
  // cursor per server, advanced a bucket at a time over the servers in id
  // order, yields (at, server, week) order.
  const auto bucket_of = [](const trace::WeeklyUsage& u) {
    return static_cast<std::size_t>(
        std::max<std::int64_t>(0, std::int64_t{u.week} + 1));
  };
  const auto buckets = static_cast<std::size_t>(
      (stream_end - window.begin + kMinutesPerWeek - 1) / kMinutesPerWeek);
  const std::vector<trace::ServerRecord>& servers = db.servers();
  std::vector<std::span<const trace::WeeklyUsage>> usage_rows;
  usage_rows.reserve(servers.size());
  for (const trace::ServerRecord& s : servers) {
    usage_rows.push_back(db.weekly_usage_for(s.id));
  }

  // Merge the two runs, tickets first on equal `at`. Each kind reuses one
  // event, so the unused payload stays default-constructed. Rows are read
  // in an order unrelated to where they sit in memory (tickets by time,
  // usage rows one per server per week), so each delivery prefetches the
  // row read kAhead tickets or servers later, and the sink's work in
  // between hides the cache miss.
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
        // A 64-byte row straddles two cache lines unless it is line
        // aligned: fetch its first and last fields.
        const trace::Ticket& soon =
            all_tickets[tickets[next_ticket + kAhead].row];
        __builtin_prefetch(&soon);
        __builtin_prefetch(&soon.resolution);
      }
      const TicketKey& key = tickets[next_ticket];
      const trace::Ticket& t = all_tickets[key.row];
      trace::StreamTicket& e = ticket_event.ticket;
      e.id = t.id;
      e.incident = t.incident;
      e.server = t.server;
      e.subsystem = t.subsystem;
      e.is_crash = t.is_crash;
      e.true_class = t.true_class;
      e.opened = key.at;
      e.closed = key.at + t.repair_time();
      e.description = t.description;
      e.resolution = t.resolution;
      ticket_event.at = key.at;
      ticket_event.machine_type = machine_type_of(db, t.server);
      sink.on_event(ticket_event);
    }
  };
  std::size_t usage_delivered = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    usage_event.at =
        window.begin + static_cast<TimePoint>(b) * kMinutesPerWeek;
    deliver_tickets_through(usage_event.at);
    for (std::size_t s = 0; s < usage_rows.size(); ++s) {
      if (s + kAhead < usage_rows.size()) {
        __builtin_prefetch(usage_rows[s + kAhead].data());
      }
      std::span<const trace::WeeklyUsage>& rows = usage_rows[s];
      while (!rows.empty() && bucket_of(rows.front()) == b) {
        usage_event.machine_type = servers[s].type;
        usage_event.usage = rows.front();
        sink.on_event(usage_event);
        rows = rows.subspan(1);
        ++usage_delivered;
      }
    }
  }
  deliver_tickets_through(stream_end);
  sink.finish(stream_end);
  obs::counter("fa.detect.stream.emitted")
      .add(tickets.size() + usage_delivered);
}

}  // namespace fa::sim

#include "src/trace/database.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "src/util/error.h"

namespace fa::trace {
namespace {

// finalize() checks every monitoring row, so its checks must not build a
// message unless they fail.
[[noreturn]] void fail_dangling(const char* table) {
  throw Error(std::string("TraceDatabase::finalize: dangling server id in ") +
              table);
}

bool names_server(ServerId id, std::size_t n_servers) {
  return id.valid() && static_cast<std::size_t>(id.value) < n_servers;
}

// One pass over a monitoring table: checks each row's server id, then
// `check(row)`; counts each server's rows into dense offsets (see the index
// members of TraceDatabase); and notes whether the rows already follow
// (server, key) order. Loaders and the simulator emit them in that order,
// so the sort runs only when they do not.
template <typename Row, typename Key, typename Check>
std::vector<std::size_t> index_by_server(std::vector<Row>& rows,
                                         std::size_t n_servers,
                                         const char* table, Key key,
                                         Check check) {
  const auto less = [&](const Row& a, const Row& b) {
    if (a.server != b.server) return a.server < b.server;
    return key(a) < key(b);
  };
  std::vector<std::size_t> offsets(n_servers + 1, 0);
  bool ordered = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!names_server(rows[i].server, n_servers)) fail_dangling(table);
    check(rows[i]);
    ++offsets[static_cast<std::size_t>(rows[i].server.value) + 1];
    ordered = ordered && (i == 0 || !less(rows[i], rows[i - 1]));
  }
  if (!ordered) std::sort(rows.begin(), rows.end(), less);
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  return offsets;
}

// Server `id`'s rows of a table indexed by dense offsets; empty for an id
// that names no server.
template <typename Row>
std::span<const Row> rows_of(const std::vector<Row>& rows,
                             const std::vector<std::size_t>& offsets,
                             ServerId id) {
  if (!names_server(id, offsets.size() - 1)) return {};
  const auto s = static_cast<std::size_t>(id.value);
  return {rows.data() + offsets[s], offsets[s + 1] - offsets[s]};
}

}  // namespace

TraceDatabase::TraceDatabase()
    : window_(ticket_window()),
      monitoring_(monitoring_window()),
      onoff_(onoff_window()) {}

void TraceDatabase::set_windows(ObservationWindow ticket,
                                ObservationWindow monitoring,
                                ObservationWindow onoff_tracking) {
  require(!finalized_, "TraceDatabase::set_windows: called after finalize");
  require(ticket.begin < ticket.end && monitoring.begin < monitoring.end &&
              onoff_tracking.begin < onoff_tracking.end,
          "TraceDatabase::set_windows: empty window");
  require(monitoring.begin <= ticket.begin && ticket.end <= monitoring.end,
          "TraceDatabase::set_windows: ticket window outside monitoring "
          "coverage");
  require(ticket.begin <= onoff_tracking.begin &&
              onoff_tracking.end <= ticket.end,
          "TraceDatabase::set_windows: on/off window outside ticket window");
  window_ = ticket;
  monitoring_ = monitoring;
  onoff_ = onoff_tracking;
}

ServerId TraceDatabase::add_server(ServerRecord record) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  record.id = ServerId{static_cast<std::int32_t>(servers_.size())};
  servers_.push_back(std::move(record));
  return servers_.back().id;
}

TicketId TraceDatabase::add_ticket(Ticket ticket) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  ticket.description = text_.store(ticket.description);
  ticket.resolution = text_.store(ticket.resolution);
  return add_stored_ticket(ticket);
}

std::string_view TraceDatabase::store_text(std::string_view text) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  return text_.store(text);
}

TicketId TraceDatabase::add_stored_ticket(Ticket ticket) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  ticket.id = TicketId{static_cast<std::int32_t>(tickets_.size())};
  tickets_.push_back(ticket);
  return ticket.id;
}

void TraceDatabase::add_weekly_usage(WeeklyUsage usage) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  weekly_usage_.push_back(usage);
}

void TraceDatabase::add_power_event(PowerEvent event) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  power_events_.push_back(event);
}

void TraceDatabase::add_monthly_snapshot(MonthlySnapshot snapshot) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  snapshots_.push_back(snapshot);
}

void TraceDatabase::reserve(std::size_t servers, std::size_t tickets,
                            std::size_t weekly_usage,
                            std::size_t power_events, std::size_t snapshots) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  servers_.reserve(servers);
  tickets_.reserve(tickets);
  weekly_usage_.reserve(weekly_usage);
  power_events_.reserve(power_events);
  snapshots_.reserve(snapshots);
}

IncidentId TraceDatabase::new_incident() {
  return IncidentId{next_incident_++};
}

void TraceDatabase::finalize() {
  require(!finalized_, "TraceDatabase: finalize called twice");
  const std::size_t n_servers = servers_.size();

  // Crash tickets are grouped by server with a counting sort, which keeps
  // ticket order within each server.
  crash_offsets_.assign(n_servers + 1, 0);
  std::vector<std::size_t> crashes;
  for (std::size_t i = 0; i < tickets_.size(); ++i) {
    const Ticket& t = tickets_[i];
    if (t.is_crash) {
      if (!names_server(t.server, n_servers)) fail_dangling("ticket");
      require(t.incident.valid(),
              "TraceDatabase::finalize: crash ticket without incident");
      ++crash_offsets_[static_cast<std::size_t>(t.server.value) + 1];
      crashes.push_back(i);
    }
    require(t.closed >= t.opened,
            "TraceDatabase::finalize: ticket closed before opened");
  }
  std::partial_sum(crash_offsets_.begin(), crash_offsets_.end(),
                   crash_offsets_.begin());
  std::vector<std::size_t> next(crash_offsets_.begin(),
                                crash_offsets_.end() - 1);
  crash_rows_.resize(crashes.size());
  for (std::size_t i : crashes) {
    crash_rows_[next[static_cast<std::size_t>(tickets_[i].server.value)]++] =
        i;
  }

  const auto no_check = [](const auto&) {};
  usage_offsets_ = index_by_server(
      weekly_usage_, n_servers, "usage",
      [](const WeeklyUsage& u) { return u.week; }, no_check);
  power_offsets_ = index_by_server(
      power_events_, n_servers, "power",
      [](const PowerEvent& e) { return e.at; }, no_check);
  snapshot_offsets_ = index_by_server(
      snapshots_, n_servers, "snapshot",
      [](const MonthlySnapshot& s) { return s.month; },
      [](const MonthlySnapshot& s) {
        require(s.consolidation >= 1,
                "TraceDatabase::finalize: consolidation must be >= 1");
      });
  finalized_ = true;
}

void TraceDatabase::require_finalized() const {
  require(finalized_, "TraceDatabase: query before finalize");
}

const ServerRecord& TraceDatabase::server(ServerId id) const {
  require(id.valid() && static_cast<std::size_t>(id.value) < servers_.size(),
          "TraceDatabase::server: invalid id");
  return servers_[static_cast<std::size_t>(id.value)];
}

const Ticket& TraceDatabase::ticket(TicketId id) const {
  require(id.valid() && static_cast<std::size_t>(id.value) < tickets_.size(),
          "TraceDatabase::ticket: invalid id");
  return tickets_[static_cast<std::size_t>(id.value)];
}

std::vector<const Ticket*> TraceDatabase::crash_tickets() const {
  require_finalized();
  std::vector<const Ticket*> out;
  for (const Ticket& t : tickets_) {
    if (t.is_crash) out.push_back(&t);
  }
  return out;
}

std::vector<const Ticket*> TraceDatabase::crash_tickets_for(
    ServerId id) const {
  require_finalized();
  const auto rows = rows_of(crash_rows_, crash_offsets_, id);
  std::vector<const Ticket*> out;
  out.reserve(rows.size());
  for (std::size_t idx : rows) out.push_back(&tickets_[idx]);
  return out;
}

std::vector<ServerId> TraceDatabase::servers_of(MachineType type) const {
  std::vector<ServerId> out;
  for (const ServerRecord& s : servers_) {
    if (s.type == type) out.push_back(s.id);
  }
  return out;
}

std::vector<ServerId> TraceDatabase::servers_of(MachineType type,
                                                Subsystem sys) const {
  std::vector<ServerId> out;
  for (const ServerRecord& s : servers_) {
    if (s.type == type && s.subsystem == sys) out.push_back(s.id);
  }
  return out;
}

std::size_t TraceDatabase::server_count(MachineType type) const {
  std::size_t n = 0;
  for (const ServerRecord& s : servers_) n += s.type == type;
  return n;
}

std::size_t TraceDatabase::server_count(MachineType type,
                                        Subsystem sys) const {
  std::size_t n = 0;
  for (const ServerRecord& s : servers_) {
    n += s.type == type && s.subsystem == sys;
  }
  return n;
}

std::size_t TraceDatabase::ticket_count(Subsystem sys) const {
  std::size_t n = 0;
  for (const Ticket& t : tickets_) n += t.subsystem == sys;
  return n;
}

std::vector<std::vector<const Ticket*>> TraceDatabase::incidents() const {
  require_finalized();
  std::map<IncidentId, std::vector<const Ticket*>> by_incident;
  for (const Ticket& t : tickets_) {
    if (t.is_crash) by_incident[t.incident].push_back(&t);
  }
  std::vector<std::vector<const Ticket*>> out;
  out.reserve(by_incident.size());
  for (auto& [id, group] : by_incident) out.push_back(std::move(group));
  return out;
}

std::span<const WeeklyUsage> TraceDatabase::weekly_usage_for(
    ServerId id) const {
  require_finalized();
  return rows_of(weekly_usage_, usage_offsets_, id);
}

std::span<const PowerEvent> TraceDatabase::power_events_for(
    ServerId id) const {
  require_finalized();
  return rows_of(power_events_, power_offsets_, id);
}

std::span<const MonthlySnapshot> TraceDatabase::snapshots_for(
    ServerId id) const {
  require_finalized();
  return rows_of(snapshots_, snapshot_offsets_, id);
}

std::vector<bool> TraceDatabase::power_series_for(
    ServerId id, const ObservationWindow& window) const {
  require_finalized();
  const auto events = power_events_for(id);
  const auto samples =
      static_cast<std::size_t>(window.length() / kMinutesPerSample);
  std::vector<bool> series(samples, true);
  // State before the first event inside the window: last event before it,
  // or "on" when the machine has no events at all.
  bool state = true;
  std::size_t next = 0;
  while (next < events.size() && events[next].at < window.begin) {
    state = events[next].powered_on;
    ++next;
  }
  for (std::size_t i = 0; i < samples; ++i) {
    const TimePoint t =
        window.begin + static_cast<Duration>(i) * kMinutesPerSample;
    while (next < events.size() && events[next].at <= t) {
      state = events[next].powered_on;
      ++next;
    }
    series[i] = state;
  }
  return series;
}

int TraceDatabase::consolidation_at(ServerId id, TimePoint t) const {
  require_finalized();
  const int month = window_.month_index(t);
  if (month < 0) return 0;
  for (const MonthlySnapshot& s : snapshots_for(id)) {
    if (s.month == month) return s.consolidation;
  }
  return 0;
}

}  // namespace fa::trace

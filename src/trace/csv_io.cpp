#include "src/trace/csv_io.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "src/obs/span.h"
#include "src/util/csv.h"
#include "src/util/error.h"
#include "src/util/strings.h"

namespace fa::trace {
namespace {

std::string bracket_join(const std::vector<std::string>& fields) {
  std::string out = "[";
  out += join(fields, ",");
  out += "]";
  return out;
}

std::string opt_to_field(const std::optional<double>& v, int precision) {
  return v ? format_double(*v, precision) : "";
}

std::string opt_to_field(const std::optional<int>& v) {
  return v ? std::to_string(*v) : "";
}

std::optional<double> field_to_opt_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  return parse_finite_double(s);
}

std::optional<int> field_to_opt_int(const std::string& s) {
  if (s.empty()) return std::nullopt;
  return static_cast<int>(parse_int(s));
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "save_database: cannot open " + path);
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "load_database: cannot open " + path);
  return in;
}

// Runs once per CSV row, so the message is built only when the check fails.
void check_field_count(const std::vector<std::string>& row,
                       std::size_t fields, const std::string& path) {
  if (row.size() != fields) throw Error("load_database: bad row in " + path);
}

// Subsystem values index per-subsystem tables downstream, so one outside
// [0, kSubsystemCount) is rejected here rather than cast to a Subsystem.
Subsystem parse_subsystem(const std::string& field, const std::string& path) {
  const std::int64_t v = parse_int(field);
  if (v < 0 || v >= kSubsystemCount) {
    throw Error("load_database: invalid subsystem '" + field + "' in " +
                path);
  }
  return static_cast<Subsystem>(v);
}

// Any ticket's server, crash or not, must name a loaded server: an empty
// field means "no server", anything outside [0, servers) fails the load at
// its 1-based record.
ServerId parse_server(const std::string& field, std::size_t servers,
                      const std::string& path, std::size_t record) {
  const std::int64_t v = parse_int(field);
  if (v < 0 || static_cast<std::uint64_t>(v) >= servers) {
    throw Error("load_database: " + path + " record " +
                std::to_string(record) + " names server " + field +
                ", outside the servers table (" + std::to_string(servers) +
                " rows)");
  }
  return ServerId{static_cast<std::int32_t>(v)};
}

}  // namespace

const std::vector<std::string>& meta_header() {
  static const std::vector<std::string> h = {"window", "begin", "end"};
  return h;
}

const std::vector<std::string>& servers_header() {
  static const std::vector<std::string> h = {
      "id",      "type",       "subsystem", "cpu_count",   "memory_gb",
      "disk_gb", "disk_count", "host_box",  "first_record"};
  return h;
}

const std::vector<std::string>& tickets_header() {
  static const std::vector<std::string> h = {
      "id",     "incident", "server", "subsystem",   "is_crash",
      "true_class", "opened",   "closed", "description", "resolution"};
  return h;
}

const std::vector<std::string>& weekly_usage_header() {
  static const std::vector<std::string> h = {
      "server", "week", "cpu_util", "mem_util", "disk_util", "net_kbps"};
  return h;
}

const std::vector<std::string>& power_events_header() {
  static const std::vector<std::string> h = {"server", "at", "powered_on"};
  return h;
}

const std::vector<std::string>& snapshots_header() {
  static const std::vector<std::string> h = {"server", "month", "box",
                                             "consolidation"};
  return h;
}

void expect_header(CsvReader& reader, const std::vector<std::string>& want,
                   const std::string& path) {
  std::vector<std::string> got;
  require(reader.read_row(got), "missing header in " + path);
  if (got == want) return;
  std::string msg = "unexpected header in " + path + ": expected " +
                    bracket_join(want) + ", got " + bracket_join(got);
  const std::size_t common = std::min(want.size(), got.size());
  std::size_t diff = common;
  for (std::size_t i = 0; i < common; ++i) {
    if (want[i] != got[i]) {
      diff = i;
      break;
    }
  }
  if (diff < common) {
    msg += "; column " + std::to_string(diff) + " is '" + got[diff] +
           "', expected '" + want[diff] + "'";
  } else if (got.size() < want.size()) {
    msg += "; missing column '" + want[got.size()] + "'";
  } else {
    msg += "; extra column '" + got[want.size()] + "'";
  }
  throw Error(msg);
}

void save_database(const TraceDatabase& db, const std::string& directory) {
  obs::Span span("trace.save_database");
  std::filesystem::create_directories(directory);

  {
    // Observation windows travel with the trace: real exports do not share
    // the paper's 2012-2013 spans.
    const std::string path = directory + "/" + kMetaFile;
    auto out = open_out(path);
    CsvWriter w(out, path);
    w.write_row(meta_header());
    const auto window_row = [&](const char* name,
                                const ObservationWindow& window) {
      w.write_row({name, std::to_string(window.begin),
                   std::to_string(window.end)});
    };
    window_row("ticket", db.window());
    window_row("monitoring", db.monitoring());
    window_row("onoff", db.onoff_tracking());
    w.flush();
  }
  {
    const std::string path = directory + "/" + kServersFile;
    auto out = open_out(path);
    CsvWriter w(out, path);
    w.write_row(servers_header());
    for (const ServerRecord& s : db.servers()) {
      w.write_row({std::to_string(s.id.value), std::string(to_string(s.type)),
                   std::to_string(s.subsystem), std::to_string(s.cpu_count),
                   format_double(s.memory_gb, 3), opt_to_field(s.disk_gb, 1),
                   opt_to_field(s.disk_count),
                   s.host_box.valid() ? std::to_string(s.host_box.value) : "",
                   std::to_string(s.first_record)});
    }
    w.flush();
  }
  {
    const std::string path = directory + "/" + kTicketsFile;
    auto out = open_out(path);
    CsvWriter w(out, path);
    w.write_row(tickets_header());
    for (const Ticket& t : db.tickets()) {
      w.write_row({std::to_string(t.id.value),
                   t.incident.valid() ? std::to_string(t.incident.value) : "",
                   t.server.valid() ? std::to_string(t.server.value) : "",
                   std::to_string(t.subsystem), t.is_crash ? "1" : "0",
                   std::string(to_string(t.true_class)),
                   std::to_string(t.opened), std::to_string(t.closed),
                   std::string(t.description), std::string(t.resolution)});
    }
    w.flush();
  }
  {
    const std::string path = directory + "/" + kWeeklyUsageFile;
    auto out = open_out(path);
    CsvWriter w(out, path);
    w.write_row(weekly_usage_header());
    for (const ServerRecord& s : db.servers()) {
      for (const WeeklyUsage& u : db.weekly_usage_for(s.id)) {
        w.write_row({std::to_string(u.server.value), std::to_string(u.week),
                     format_double(u.cpu_util, 4), format_double(u.mem_util, 4),
                     opt_to_field(u.disk_util, 4),
                     opt_to_field(u.net_kbps, 4)});
      }
    }
    w.flush();
  }
  {
    const std::string path = directory + "/" + kPowerEventsFile;
    auto out = open_out(path);
    CsvWriter w(out, path);
    w.write_row(power_events_header());
    for (const ServerRecord& s : db.servers()) {
      for (const PowerEvent& e : db.power_events_for(s.id)) {
        w.write_row({std::to_string(e.server.value), std::to_string(e.at),
                     e.powered_on ? "1" : "0"});
      }
    }
    w.flush();
  }
  {
    const std::string path = directory + "/" + kSnapshotsFile;
    auto out = open_out(path);
    CsvWriter w(out, path);
    w.write_row(snapshots_header());
    for (const ServerRecord& s : db.servers()) {
      for (const MonthlySnapshot& snap : db.snapshots_for(s.id)) {
        w.write_row({std::to_string(snap.server.value),
                     std::to_string(snap.month),
                     snap.box.valid() ? std::to_string(snap.box.value) : "",
                     std::to_string(snap.consolidation)});
      }
    }
    w.flush();
  }
}

TraceDatabase load_database(const std::string& directory) {
  obs::Span span("trace.load_database");
  TraceDatabase db;
  std::vector<std::string> row;
  std::int32_t max_incident = -1;

  // meta.csv is optional for backward/hand-authored traces: absent, the
  // paper's default windows apply.
  if (std::filesystem::exists(directory + "/" + kMetaFile)) {
    const std::string path = directory + "/" + kMetaFile;
    auto in = open_in(path);
    CsvReader r(in);
    expect_header(r, meta_header(), path);
    ObservationWindow ticket = db.window();
    ObservationWindow monitoring = db.monitoring();
    ObservationWindow onoff = db.onoff_tracking();
    while (r.read_row(row)) {
      check_field_count(row, 3, path);
      const ObservationWindow window{parse_int(row[1]), parse_int(row[2])};
      if (row[0] == "ticket") {
        ticket = window;
      } else if (row[0] == "monitoring") {
        monitoring = window;
      } else if (row[0] == "onoff") {
        onoff = window;
      } else {
        throw Error("load_database: unknown window '" + row[0] + "' in " +
                    path);
      }
    }
    db.set_windows(ticket, monitoring, onoff);
  }

  {
    const std::string path = directory + "/" + kServersFile;
    auto in = open_in(path);
    CsvReader r(in);
    expect_header(r, servers_header(), path);
    while (r.read_row(row)) {
      check_field_count(row, 9, path);
      ServerRecord s;
      s.type = machine_type_from_string(row[1]);
      s.subsystem = parse_subsystem(row[2], path);
      s.cpu_count = static_cast<int>(parse_int(row[3]));
      s.memory_gb = parse_finite_double(row[4]);
      s.disk_gb = field_to_opt_double(row[5]);
      s.disk_count = field_to_opt_int(row[6]);
      if (!row[7].empty()) {
        s.host_box = BoxId{static_cast<std::int32_t>(parse_int(row[7]))};
      }
      s.first_record = parse_int(row[8]);
      const ServerId assigned = db.add_server(s);
      if (assigned.value != static_cast<std::int32_t>(parse_int(row[0]))) {
        throw Error("load_database: non-contiguous server ids in " + path);
      }
    }
  }
  {
    const std::string path = directory + "/" + kTicketsFile;
    auto in = open_in(path);
    CsvReader r(in);
    expect_header(r, tickets_header(), path);
    for (std::size_t record = 1; r.read_row(row); ++record) {
      check_field_count(row, 10, path);
      Ticket t;
      if (!row[1].empty()) {
        t.incident = IncidentId{static_cast<std::int32_t>(parse_int(row[1]))};
        max_incident = std::max(max_incident, t.incident.value);
      }
      if (!row[2].empty()) {
        t.server = parse_server(row[2], db.servers().size(), path, record);
      }
      t.subsystem = parse_subsystem(row[3], path);
      t.is_crash = parse_int(row[4]) != 0;
      t.true_class = failure_class_from_string(row[5]);
      t.opened = parse_int(row[6]);
      t.closed = parse_int(row[7]);
      t.description = row[8];  // add_ticket copies the text in
      t.resolution = row[9];
      const TicketId assigned = db.add_ticket(t);
      if (assigned.value != static_cast<std::int32_t>(parse_int(row[0]))) {
        throw Error("load_database: non-contiguous ticket ids in " + path);
      }
    }
  }
  {
    const std::string path = directory + "/" + kWeeklyUsageFile;
    auto in = open_in(path);
    CsvReader r(in);
    expect_header(r, weekly_usage_header(), path);
    while (r.read_row(row)) {
      check_field_count(row, 6, path);
      WeeklyUsage u;
      u.server = ServerId{static_cast<std::int32_t>(parse_int(row[0]))};
      u.week = static_cast<int>(parse_int(row[1]));
      u.cpu_util = parse_finite_double(row[2]);
      u.mem_util = parse_finite_double(row[3]);
      u.disk_util = field_to_opt_double(row[4]);
      u.net_kbps = field_to_opt_double(row[5]);
      db.add_weekly_usage(u);
    }
  }
  {
    const std::string path = directory + "/" + kPowerEventsFile;
    auto in = open_in(path);
    CsvReader r(in);
    expect_header(r, power_events_header(), path);
    while (r.read_row(row)) {
      check_field_count(row, 3, path);
      PowerEvent e;
      e.server = ServerId{static_cast<std::int32_t>(parse_int(row[0]))};
      e.at = parse_int(row[1]);
      e.powered_on = parse_int(row[2]) != 0;
      db.add_power_event(e);
    }
  }
  {
    const std::string path = directory + "/" + kSnapshotsFile;
    auto in = open_in(path);
    CsvReader r(in);
    expect_header(r, snapshots_header(), path);
    while (r.read_row(row)) {
      check_field_count(row, 4, path);
      MonthlySnapshot s;
      s.server = ServerId{static_cast<std::int32_t>(parse_int(row[0]))};
      s.month = static_cast<int>(parse_int(row[1]));
      if (!row[2].empty()) {
        s.box = BoxId{static_cast<std::int32_t>(parse_int(row[2]))};
      }
      s.consolidation = static_cast<int>(parse_int(row[3]));
      db.add_monthly_snapshot(s);
    }
  }

  // Restore the incident counter past the highest loaded id.
  for (std::int32_t i = 0; i <= max_incident; ++i) db.new_incident();
  db.finalize();
  return db;
}

}  // namespace fa::trace

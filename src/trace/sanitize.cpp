#include "src/trace/sanitize.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/trace/csv_io.h"
#include "src/util/csv.h"
#include "src/util/error.h"
#include "src/util/strings.h"

namespace fa::trace {
namespace {

// ---- lenient field parsers (no exceptions; defects are data, not errors) --

std::optional<std::int64_t> try_int(const std::string& field) {
  if (field.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> try_double(const std::string& field) {
  if (field.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') return std::nullopt;
  return v;
}

std::optional<MachineType> try_machine_type(const std::string& s) {
  for (int t = 0; t < kMachineTypeCount; ++t) {
    const auto type = static_cast<MachineType>(t);
    if (to_string(type) == s) return type;
  }
  return std::nullopt;
}

std::optional<FailureClass> try_failure_class(const std::string& s) {
  for (FailureClass c : kAllFailureClasses) {
    if (to_string(c) == s) return c;
  }
  return std::nullopt;
}

// Accumulates defects for one file and owns its row counters.
class FileAuditor {
 public:
  FileAuditor(SanitizationReport& report, std::string file)
      : report_(&report), file_(std::move(file)) {}

  ~FileAuditor() {
    report_->files.push_back({file_, rows_, kept_});
  }

  const std::string& file() const { return file_; }
  std::size_t next_row() { return ++rows_; }
  void keep() { ++kept_; }
  void cascade_drop() { ++report_->cascade_drops; }

  void defect(std::size_t row, DefectClass cls, DefectAction action,
              std::string detail) {
    report_->defects.push_back(
        {file_, row, cls, action, std::move(detail)});
  }

 private:
  SanitizationReport* report_;
  std::string file_;
  std::size_t rows_ = 0;
  std::size_t kept_ = 0;
};

// Field-level scan shared by all tables: returns the first defect of the
// row's fixed-arity prefix, or nullopt when every field is usable.
struct FieldDefect {
  DefectClass cls;
  std::string detail;
};

std::optional<FieldDefect> check_arity(const std::vector<std::string>& row,
                                       std::size_t want) {
  if (row.size() == want) return std::nullopt;
  return FieldDefect{DefectClass::kUnparseableField,
                     "expected " + std::to_string(want) + " fields, got " +
                         std::to_string(row.size())};
}

std::optional<FieldDefect> bad_int(const std::string& name,
                                   const std::string& value) {
  return FieldDefect{DefectClass::kUnparseableField,
                     name + " '" + value + "' is not an integer"};
}

// Parses a required double column; distinguishes unparseable text from
// values that parse but are nan/inf.
std::optional<FieldDefect> scan_double(const std::string& name,
                                       const std::string& value,
                                       double* out) {
  const auto v = try_double(value);
  if (!v) {
    return FieldDefect{DefectClass::kUnparseableField,
                       name + " '" + value + "' is not a number"};
  }
  if (!std::isfinite(*v)) {
    return FieldDefect{DefectClass::kNonFiniteNumeric,
                       name + " is non-finite ('" + value + "')"};
  }
  *out = *v;
  return std::nullopt;
}

// `Optional` is std::optional<double> or OptionalDouble.
template <typename Optional>
std::optional<FieldDefect> scan_opt_double(const std::string& name,
                                           const std::string& value,
                                           Optional* out) {
  if (value.empty()) {
    out->reset();
    return std::nullopt;
  }
  double v = 0.0;
  if (auto defect = scan_double(name, value, &v)) return defect;
  *out = v;
  return std::nullopt;
}

TimePoint clamp_into(TimePoint t, const ObservationWindow& window) {
  return std::clamp(t, window.begin, window.end - 1);
}

// ---- staged rows (parsed leniently, resolved after all files are read) ----

struct StagedServer {
  std::int64_t file_id = 0;
  ServerRecord rec;
  std::size_t row = 0;
};

// The row's text is held here, not in the reused CSV row buffer; `t` views
// it only once the ticket is added.
struct StagedTicket {
  std::int64_t file_id = 0;
  std::optional<std::int64_t> incident;
  std::optional<std::int64_t> server;
  Ticket t;  // server/incident filled during resolution
  std::string description;
  std::string resolution;
  std::size_t row = 0;
};

// Server ids as written in the file, resolved to remapped database ids.
// Distinguishes "never inventoried" (orphan defect) from "inventoried but
// quarantined" (cascade, not a new defect).
class ServerIdMap {
 public:
  void map(std::int64_t file_id, ServerId db_id) { map_[file_id] = db_id; }
  void quarantine(std::int64_t file_id) { quarantined_.insert(file_id); }

  std::optional<ServerId> resolve(std::int64_t file_id) const {
    const auto it = map_.find(file_id);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  bool was_quarantined(std::int64_t file_id) const {
    return quarantined_.count(file_id) > 0;
  }

 private:
  std::unordered_map<std::int64_t, ServerId> map_;
  std::unordered_set<std::int64_t> quarantined_;
};

std::ifstream open_table(const std::string& directory,
                         const std::string& file) {
  const std::string path = directory + "/" + file;
  std::ifstream in(path);
  require(in.good(), "sanitize_database: cannot open " + path);
  return in;
}

}  // namespace

std::string_view to_string(DefectClass cls) {
  switch (cls) {
    case DefectClass::kUnparseableField: return "unparseable_field";
    case DefectClass::kNonFiniteNumeric: return "non_finite_numeric";
    case DefectClass::kDuplicateId: return "duplicate_id";
    case DefectClass::kOutOfWindowTimestamp: return "out_of_window";
    case DefectClass::kEndBeforeOpen: return "end_before_open";
    case DefectClass::kOrphanReference: return "orphan_reference";
    case DefectClass::kTruncatedSeries: return "truncated_series";
    case DefectClass::kUnknownEnum: return "unknown_enum";
  }
  throw Error("to_string: invalid DefectClass");
}

std::string_view to_string(DefectAction action) {
  switch (action) {
    case DefectAction::kRepaired: return "repaired";
    case DefectAction::kQuarantined: return "quarantined";
  }
  throw Error("to_string: invalid DefectAction");
}

std::size_t SanitizationReport::count(DefectClass cls) const {
  std::size_t n = 0;
  for (const Defect& d : defects) n += d.cls == cls;
  return n;
}

std::size_t SanitizationReport::count(const std::string& file,
                                      DefectClass cls) const {
  std::size_t n = 0;
  for (const Defect& d : defects) n += d.cls == cls && d.file == file;
  return n;
}

std::size_t SanitizationReport::repaired() const {
  std::size_t n = 0;
  for (const Defect& d : defects) n += d.action == DefectAction::kRepaired;
  return n;
}

std::size_t SanitizationReport::quarantined() const {
  std::size_t n = 0;
  for (const Defect& d : defects) n += d.action == DefectAction::kQuarantined;
  return n;
}

std::size_t SanitizationReport::rows_read(const std::string& file) const {
  for (const FileStats& f : files) {
    if (f.file == file) return f.rows;
  }
  return 0;
}

std::size_t SanitizationReport::rows_kept(const std::string& file) const {
  for (const FileStats& f : files) {
    if (f.file == file) return f.kept;
  }
  return 0;
}

std::size_t SanitizationReport::rows_dropped(const std::string& file) const {
  return rows_read(file) - rows_kept(file);
}

std::vector<std::size_t> SanitizationReport::quarantined_rows(
    const std::string& file) const {
  std::vector<std::size_t> rows;
  for (const Defect& d : defects) {
    if (d.file == file && d.action == DefectAction::kQuarantined) {
      rows.push_back(d.row);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string SanitizationReport::to_string() const {
  std::string out = "sanitization report: " +
                    std::to_string(total_defects()) + " defects (" +
                    std::to_string(repaired()) + " repaired, " +
                    std::to_string(quarantined()) + " quarantined, " +
                    std::to_string(cascade_drops) + " cascade drops)\n";
  for (DefectClass cls : kAllDefectClasses) {
    const std::size_t n = count(cls);
    if (n == 0) continue;
    out += "  " + std::string(trace::to_string(cls)) + ": " +
           std::to_string(n) + "\n";
  }
  for (const FileStats& f : files) {
    out += "  " + f.file + ": " + std::to_string(f.kept) + "/" +
           std::to_string(f.rows) + " rows kept\n";
  }
  return out;
}

std::string SanitizationReport::counts_csv() const {
  std::string out = "class,count\n";
  for (DefectClass cls : kAllDefectClasses) {
    out += std::string(trace::to_string(cls)) + "," +
           std::to_string(count(cls)) + "\n";
  }
  return out;
}

std::string SanitizationReport::defects_csv() const {
  std::ostringstream stream;
  CsvWriter w(stream);
  w.write_row({"file", "row", "class", "action", "detail"});
  for (const Defect& d : defects) {
    w.write_row({d.file, std::to_string(d.row),
                 std::string(trace::to_string(d.cls)),
                 std::string(trace::to_string(d.action)), d.detail});
  }
  return stream.str();
}

SanitizedDatabase sanitize_database(const std::string& directory) {
  obs::Span span("trace.sanitize_database");
  SanitizedDatabase result;
  TraceDatabase& db = result.db;
  SanitizationReport& report = result.report;
  std::vector<std::string> row;

  // ---- meta.csv: observation windows (optional, defaults otherwise) ----
  if (std::filesystem::exists(directory + "/" + kMetaFile)) {
    FileAuditor audit(report, kMetaFile);
    auto in = open_table(directory, kMetaFile);
    CsvReader r(in);
    expect_header(r, meta_header(), directory + "/" + kMetaFile);
    ObservationWindow ticket = db.window();
    ObservationWindow monitoring = db.monitoring();
    ObservationWindow onoff = db.onoff_tracking();
    while (r.read_row(row)) {
      const std::size_t n = audit.next_row();
      if (auto defect = check_arity(row, 3)) {
        audit.defect(n, defect->cls, DefectAction::kQuarantined,
                     defect->detail);
        continue;
      }
      const auto begin = try_int(row[1]);
      const auto end = try_int(row[2]);
      if (!begin || !end) {
        audit.defect(n, DefectClass::kUnparseableField,
                     DefectAction::kQuarantined,
                     "window bounds '" + row[1] + "'/'" + row[2] +
                         "' are not integers");
        continue;
      }
      const ObservationWindow window{*begin, *end};
      if (row[0] == "ticket") {
        ticket = window;
      } else if (row[0] == "monitoring") {
        monitoring = window;
      } else if (row[0] == "onoff") {
        onoff = window;
      } else {
        audit.defect(n, DefectClass::kUnknownEnum, DefectAction::kQuarantined,
                     "unknown window '" + row[0] + "'");
        continue;
      }
      audit.keep();
    }
    try {
      db.set_windows(ticket, monitoring, onoff);
    } catch (const Error& e) {
      audit.defect(0, DefectClass::kUnparseableField,
                   DefectAction::kQuarantined,
                   std::string("inconsistent windows (") + e.what() +
                       "); paper defaults kept");
    }
  }
  const ObservationWindow ticket_win = db.window();
  const ObservationWindow monitoring_win = db.monitoring();

  // ---- servers.csv: lenient parse + keep-first dedup ----
  ServerIdMap ids;
  {
    FileAuditor audit(report, kServersFile);
    auto in = open_table(directory, kServersFile);
    CsvReader r(in);
    expect_header(r, servers_header(), directory + "/" + kServersFile);
    std::unordered_set<std::int64_t> seen;
    while (r.read_row(row)) {
      const std::size_t n = audit.next_row();
      const auto quarantine = [&](DefectClass cls, std::string detail) {
        audit.defect(n, cls, DefectAction::kQuarantined, std::move(detail));
        if (row.size() == 9) {
          if (const auto id = try_int(row[0])) ids.quarantine(*id);
        }
      };
      if (auto defect = check_arity(row, 9)) {
        quarantine(defect->cls, defect->detail);
        continue;
      }
      const auto file_id = try_int(row[0]);
      if (!file_id) {
        quarantine(bad_int("id", row[0])->cls, bad_int("id", row[0])->detail);
        continue;
      }
      const auto type = try_machine_type(row[1]);
      if (!type) {
        quarantine(DefectClass::kUnknownEnum,
                   "unknown machine type '" + row[1] + "'");
        continue;
      }
      const auto subsystem = try_int(row[2]);
      if (!subsystem || *subsystem < 0 || *subsystem >= kSubsystemCount) {
        quarantine(subsystem ? DefectClass::kUnknownEnum
                             : DefectClass::kUnparseableField,
                   "subsystem '" + row[2] + "' unknown");
        continue;
      }
      const auto cpu = try_int(row[3]);
      if (!cpu) {
        quarantine(DefectClass::kUnparseableField,
                   bad_int("cpu_count", row[3])->detail);
        continue;
      }
      ServerRecord s;
      s.type = *type;
      s.subsystem = static_cast<Subsystem>(*subsystem);
      s.cpu_count = static_cast<int>(*cpu);
      std::optional<FieldDefect> defect =
          scan_double("memory_gb", row[4], &s.memory_gb);
      if (!defect) defect = scan_opt_double("disk_gb", row[5], &s.disk_gb);
      if (defect) {
        quarantine(defect->cls, defect->detail);
        continue;
      }
      if (!row[6].empty()) {
        const auto disks = try_int(row[6]);
        if (!disks) {
          quarantine(DefectClass::kUnparseableField,
                     bad_int("disk_count", row[6])->detail);
          continue;
        }
        s.disk_count = static_cast<int>(*disks);
      }
      if (!row[7].empty()) {
        const auto box = try_int(row[7]);
        if (!box) {
          quarantine(DefectClass::kUnparseableField,
                     bad_int("host_box", row[7])->detail);
          continue;
        }
        s.host_box = BoxId{static_cast<std::int32_t>(*box)};
      }
      const auto first = try_int(row[8]);
      if (!first) {
        quarantine(DefectClass::kUnparseableField,
                   bad_int("first_record", row[8])->detail);
        continue;
      }
      s.first_record = *first;
      if (!seen.insert(*file_id).second) {
        audit.defect(n, DefectClass::kDuplicateId, DefectAction::kRepaired,
                     "duplicate server id " + std::to_string(*file_id) +
                         "; kept first occurrence");
        continue;
      }
      ids.map(*file_id, db.add_server(s));
      audit.keep();
    }
  }

  // Resolves a server reference; returns the remapped id, or nullopt when
  // the row must be treated as orphaned/cascaded.
  const auto resolve_server = [&](FileAuditor& audit, std::size_t n,
                                  std::int64_t file_id,
                                  bool* cascaded) -> std::optional<ServerId> {
    if (const auto id = ids.resolve(file_id)) return id;
    if (ids.was_quarantined(file_id)) {
      audit.cascade_drop();
      *cascaded = true;
    } else {
      audit.defect(n, DefectClass::kOrphanReference, DefectAction::kRepaired,
                   "references unknown server " + std::to_string(file_id) +
                       "; orphan dropped");
    }
    return std::nullopt;
  };

  // ---- tickets.csv: parse, dedup, orphan/window/ordering repair ----
  {
    FileAuditor audit(report, kTicketsFile);
    auto in = open_table(directory, kTicketsFile);
    CsvReader r(in);
    expect_header(r, tickets_header(), directory + "/" + kTicketsFile);
    std::vector<StagedTicket> staged;
    while (r.read_row(row)) {
      const std::size_t n = audit.next_row();
      if (auto defect = check_arity(row, 10)) {
        audit.defect(n, defect->cls, DefectAction::kQuarantined,
                     defect->detail);
        continue;
      }
      StagedTicket st;
      st.row = n;
      const auto file_id = try_int(row[0]);
      const auto subsystem = try_int(row[3]);
      const auto is_crash = try_int(row[4]);
      const auto opened = try_int(row[6]);
      const auto closed = try_int(row[7]);
      if (!file_id || !subsystem || !is_crash || !opened || !closed ||
          (!row[1].empty() && !try_int(row[1])) ||
          (!row[2].empty() && !try_int(row[2]))) {
        audit.defect(n, DefectClass::kUnparseableField,
                     DefectAction::kQuarantined,
                     "numeric ticket field failed to parse");
        continue;
      }
      if (*subsystem < 0 || *subsystem >= kSubsystemCount) {
        audit.defect(n, DefectClass::kUnknownEnum, DefectAction::kQuarantined,
                     "subsystem '" + row[3] + "' unknown");
        continue;
      }
      st.file_id = *file_id;
      if (!row[1].empty()) st.incident = *try_int(row[1]);
      if (!row[2].empty()) st.server = *try_int(row[2]);
      st.t.subsystem = static_cast<Subsystem>(*subsystem);
      st.t.is_crash = *is_crash != 0;
      st.t.opened = *opened;
      st.t.closed = *closed;
      st.description = row[8];
      st.resolution = row[9];
      const auto cls = try_failure_class(row[5]);
      if (cls) {
        st.t.true_class = *cls;
      } else {
        st.t.true_class = FailureClass::kOther;
        audit.defect(n, DefectClass::kUnknownEnum, DefectAction::kRepaired,
                     "unknown failure class '" + row[5] +
                         "'; reassigned to 'other'");
      }
      staged.push_back(std::move(st));
    }

    // Advance the incident counter past every id seen in the file so that
    // repairs allocating fresh incidents cannot collide with loaded ids.
    std::int64_t max_incident = -1;
    for (const StagedTicket& st : staged) {
      if (st.incident) max_incident = std::max(max_incident, *st.incident);
    }
    for (std::int64_t i = 0; i <= max_incident; ++i) db.new_incident();

    std::unordered_set<std::int64_t> seen;
    for (StagedTicket& st : staged) {
      if (!seen.insert(st.file_id).second) {
        audit.defect(st.row, DefectClass::kDuplicateId,
                     DefectAction::kRepaired,
                     "duplicate ticket id " + std::to_string(st.file_id) +
                         "; kept first occurrence");
        continue;
      }
      if (st.server) {
        bool cascaded = false;
        const auto id = resolve_server(audit, st.row, *st.server, &cascaded);
        if (!id) {
          if (!st.t.is_crash && !cascaded) {
            // The orphan defect was recorded; background tickets survive
            // with the dangling reference cleared instead of being dropped.
            report.defects.back().detail =
                "references unknown server " + std::to_string(*st.server) +
                "; reference cleared";
          } else if (!st.t.is_crash && cascaded) {
            // Cascade on a background ticket: clear the reference, keep.
          } else {
            continue;  // crash ticket without a machine: drop
          }
        } else {
          st.t.server = *id;
        }
      }
      if (st.t.is_crash && !st.t.server.valid()) {
        // Crash tickets must name a machine; unresolved ones were dropped
        // above, and rows that never carried a reference are orphans too.
        if (!st.server) {
          audit.defect(st.row, DefectClass::kOrphanReference,
                       DefectAction::kRepaired,
                       "crash ticket without server; orphan dropped");
        }
        continue;
      }
      if (st.incident) {
        st.t.incident = IncidentId{static_cast<std::int32_t>(*st.incident)};
      } else if (st.t.is_crash) {
        st.t.incident = db.new_incident();
        audit.defect(st.row, DefectClass::kOrphanReference,
                     DefectAction::kRepaired,
                     "crash ticket without incident; assigned fresh id " +
                         std::to_string(st.t.incident.value));
      }
      if (st.t.closed < st.t.opened) {
        audit.defect(st.row, DefectClass::kEndBeforeOpen,
                     DefectAction::kQuarantined,
                     "closed " + std::to_string(st.t.closed) +
                         " precedes opened " + std::to_string(st.t.opened));
        continue;
      }
      if (!ticket_win.contains(st.t.opened)) {
        // Clip the failure timestamp into the observation window and shift
        // the closing time with it: repair durations survive the repair.
        // (Closing times legitimately run past the window end, as in the
        // paper's data, so only `opened` is window-checked.)
        const TimePoint opened = clamp_into(st.t.opened, ticket_win);
        audit.defect(st.row, DefectClass::kOutOfWindowTimestamp,
                     DefectAction::kRepaired,
                     "ticket opened at " + std::to_string(st.t.opened) +
                         " clipped into the observation window");
        st.t.closed += opened - st.t.opened;
        st.t.opened = opened;
      }
      st.t.description = st.description;
      st.t.resolution = st.resolution;
      db.add_ticket(st.t);
      audit.keep();
    }
  }

  // ---- weekly_usage.csv ----
  {
    FileAuditor audit(report, kWeeklyUsageFile);
    auto in = open_table(directory, kWeeklyUsageFile);
    CsvReader r(in);
    expect_header(r, weekly_usage_header(),
                  directory + "/" + kWeeklyUsageFile);
    const int weeks = ticket_win.week_count();
    // Truncation detection considers every row whose (server, week) parsed,
    // including rows later quarantined for other field defects, so a nan in
    // a final week does not double-count as a truncated series.
    struct SeriesSpan {
      int max_week = -1;
      std::size_t last_row = 0;
    };
    std::unordered_map<std::int64_t, SeriesSpan> spans;
    while (r.read_row(row)) {
      const std::size_t n = audit.next_row();
      if (auto defect = check_arity(row, 6)) {
        audit.defect(n, defect->cls, DefectAction::kQuarantined,
                     defect->detail);
        continue;
      }
      const auto server = try_int(row[0]);
      const auto week = try_int(row[1]);
      if (!server || !week) {
        audit.defect(n, DefectClass::kUnparseableField,
                     DefectAction::kQuarantined,
                     "server/week '" + row[0] + "'/'" + row[1] +
                         "' failed to parse");
        continue;
      }
      SeriesSpan& span = spans[*server];
      if (static_cast<int>(*week) > span.max_week) {
        span.max_week = static_cast<int>(*week);
        span.last_row = n;
      }
      WeeklyUsage u;
      u.week = static_cast<int>(*week);
      std::optional<FieldDefect> defect =
          scan_double("cpu_util", row[2], &u.cpu_util);
      if (!defect) defect = scan_double("mem_util", row[3], &u.mem_util);
      if (!defect) defect = scan_opt_double("disk_util", row[4], &u.disk_util);
      if (!defect) defect = scan_opt_double("net_kbps", row[5], &u.net_kbps);
      if (defect) {
        audit.defect(n, defect->cls, DefectAction::kQuarantined,
                     defect->detail);
        continue;
      }
      if (*week < 0 || *week >= weeks) {
        audit.defect(n, DefectClass::kOutOfWindowTimestamp,
                     DefectAction::kQuarantined,
                     "week " + std::to_string(*week) +
                         " outside the observation year");
        continue;
      }
      bool cascaded = false;
      const auto id = resolve_server(audit, n, *server, &cascaded);
      if (!id) continue;
      u.server = *id;
      db.add_weekly_usage(u);
      audit.keep();
    }
    for (const auto& [file_id, span] : spans) {
      if (!ids.resolve(file_id)) continue;  // orphan/cascade, counted above
      if (span.max_week >= 0 && span.max_week < weeks - 1) {
        audit.defect(span.last_row, DefectClass::kTruncatedSeries,
                     DefectAction::kRepaired,
                     "series for server " + std::to_string(file_id) +
                         " ends at week " + std::to_string(span.max_week) +
                         " of " + std::to_string(weeks - 1) +
                         "; gap tolerated");
      }
    }
  }

  // ---- power_events.csv ----
  {
    FileAuditor audit(report, kPowerEventsFile);
    auto in = open_table(directory, kPowerEventsFile);
    CsvReader r(in);
    expect_header(r, power_events_header(),
                  directory + "/" + kPowerEventsFile);
    while (r.read_row(row)) {
      const std::size_t n = audit.next_row();
      if (auto defect = check_arity(row, 3)) {
        audit.defect(n, defect->cls, DefectAction::kQuarantined,
                     defect->detail);
        continue;
      }
      const auto server = try_int(row[0]);
      const auto at = try_int(row[1]);
      const auto powered = try_int(row[2]);
      if (!server || !at || !powered) {
        audit.defect(n, DefectClass::kUnparseableField,
                     DefectAction::kQuarantined,
                     "power event field failed to parse");
        continue;
      }
      PowerEvent e;
      e.at = *at;
      e.powered_on = *powered != 0;
      if (!monitoring_win.contains(e.at)) {
        const TimePoint clipped = clamp_into(e.at, monitoring_win);
        audit.defect(n, DefectClass::kOutOfWindowTimestamp,
                     DefectAction::kRepaired,
                     "event at " + std::to_string(e.at) +
                         " clipped into monitoring coverage");
        e.at = clipped;
      }
      bool cascaded = false;
      const auto id = resolve_server(audit, n, *server, &cascaded);
      if (!id) continue;
      e.server = *id;
      db.add_power_event(e);
      audit.keep();
    }
  }

  // ---- snapshots.csv ----
  {
    FileAuditor audit(report, kSnapshotsFile);
    auto in = open_table(directory, kSnapshotsFile);
    CsvReader r(in);
    expect_header(r, snapshots_header(), directory + "/" + kSnapshotsFile);
    const int months = ticket_win.month_count();
    while (r.read_row(row)) {
      const std::size_t n = audit.next_row();
      if (auto defect = check_arity(row, 4)) {
        audit.defect(n, defect->cls, DefectAction::kQuarantined,
                     defect->detail);
        continue;
      }
      const auto server = try_int(row[0]);
      const auto month = try_int(row[1]);
      const auto consolidation = try_int(row[3]);
      const auto box = row[2].empty() ? std::optional<std::int64_t>(-1)
                                      : try_int(row[2]);
      if (!server || !month || !consolidation || !box) {
        audit.defect(n, DefectClass::kUnparseableField,
                     DefectAction::kQuarantined,
                     "snapshot field failed to parse");
        continue;
      }
      if (*consolidation < 1) {
        audit.defect(n, DefectClass::kUnparseableField,
                     DefectAction::kQuarantined,
                     "consolidation " + std::to_string(*consolidation) +
                         " below 1");
        continue;
      }
      if (*month < 0 || *month >= months) {
        audit.defect(n, DefectClass::kOutOfWindowTimestamp,
                     DefectAction::kQuarantined,
                     "month " + std::to_string(*month) +
                         " outside the observation year");
        continue;
      }
      bool cascaded = false;
      const auto id = resolve_server(audit, n, *server, &cascaded);
      if (!id) continue;
      MonthlySnapshot s;
      s.server = *id;
      s.month = static_cast<int>(*month);
      if (*box >= 0) s.box = BoxId{static_cast<std::int32_t>(*box)};
      s.consolidation = static_cast<int>(*consolidation);
      db.add_monthly_snapshot(s);
      audit.keep();
    }
  }

  db.finalize();

  // Metric families are emitted complete (add(0) for absent classes), so a
  // clean run and a dirty run export the same set of label values.
  for (DefectClass cls : kAllDefectClasses) {
    obs::counter("fa.sanitize.defects",
                 {{"class", std::string(trace::to_string(cls))}})
        .add(report.count(cls));
  }
  obs::counter("fa.sanitize.repaired").add(report.repaired());
  obs::counter("fa.sanitize.quarantined").add(report.quarantined());
  obs::counter("fa.sanitize.cascade_drops").add(report.cascade_drops);
  return result;
}

}  // namespace fa::trace

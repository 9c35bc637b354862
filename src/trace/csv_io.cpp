#include "src/trace/csv_io.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/trace/sanitize.h"
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

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "save_database: cannot open " + path);
  return out;
}

// `parse(field)`, or nullopt where it throws: one set of field parsers
// (src/util/csv.h and the enum parsers of types.h) serves both load modes.
template <typename Parse>
auto attempt(Parse parse, const std::string& field)
    -> std::optional<decltype(parse(field))> {
  try {
    return parse(field);
  } catch (const Error&) {
    return std::nullopt;
  }
}

// True when `v` fits the integer field type T it fills.
template <typename T>
bool fits(std::int64_t v) {
  return v >= std::numeric_limits<T>::min() &&
         v <= std::numeric_limits<T>::max();
}

TimePoint clamp_into(TimePoint t, const ObservationWindow& window) {
  return std::clamp(t, window.begin, window.end - 1);
}

// Server ids as written in servers.csv, resolved to database ids. Ids equal
// to their row position resolve by a range check; the others (a lenient
// load's remapped servers) through a hash map, where -1 marks a server whose
// row was quarantined.
class ServerIds {
 public:
  void add(std::int64_t file_id, ServerId id) {
    if (file_id == id.value && static_cast<std::size_t>(file_id) == dense_) {
      ++dense_;
    } else {
      sparse_[file_id] = id.value;
    }
  }
  void quarantine(std::int64_t file_id) { sparse_.emplace(file_id, -1); }
  std::optional<ServerId> resolve(std::int64_t file_id) const {
    if (file_id >= 0 && static_cast<std::uint64_t>(file_id) < dense_) {
      return ServerId{static_cast<std::int32_t>(file_id)};
    }
    const auto it = sparse_.find(file_id);
    if (it == sparse_.end() || it->second < 0) return std::nullopt;
    return ServerId{it->second};
  }
  // Asked only of ids that did not resolve.
  bool quarantined(std::int64_t file_id) const {
    return sparse_.count(file_id) > 0;
  }

 private:
  std::size_t dense_ = 0;  // ids [0, dense_) are their own database ids
  std::unordered_map<std::int64_t, std::int32_t> sparse_;
};

// A decoded ticket with its ids as written, before the ticket rules run.
struct StagedTicket {
  Ticket t;
  std::int64_t file_id = 0;
  std::optional<std::int64_t> incident;
  std::optional<std::int64_t> server;
  std::size_t record = 0;
};

constexpr std::size_t kWholeRecord = std::numeric_limits<std::size_t>::max();

// One load of an export (see load_database): a decoder per table turns each
// record into its row or into a located defect. Without a report the first
// defect throws; with one it is recorded, and the row is repaired or
// quarantined by the rule of its class.
class Decoder {
 public:
  Decoder(const std::string& directory, SanitizationReport* report)
      : directory_(directory), report_(report) {}

  TraceDatabase run() {
    read_meta();
    read_servers();
    read_tickets();
    read_weekly_usage();
    read_power_events();
    read_snapshots();
    db_.finalize();
    return std::move(db_);
  }

 private:
  bool strict() const { return report_ == nullptr; }
  std::string path() const { return directory_ + "/" + *file_; }
  std::string where() const {
    return "load_database: " + path() + " record " + std::to_string(record_);
  }

  // Calls `decode()` on every record of `file` with the header's field
  // count; `decode` returns whether it kept the row.
  template <typename Decode>
  void read(const std::string& file, const std::vector<std::string>& header,
            Decode decode) {
    file_ = &file;
    header_ = &header;
    std::ifstream in(path());
    require(in.good(), "load_database: cannot open " + path());
    CsvReader reader(in);
    expect_header(reader, header, path());
    if (report_) report_->files.push_back({file, 0, 0});
    for (record_ = 1; reader.read_row(row_); ++record_) {
      if (row_.size() != header.size()) {
        quarantine(kWholeRecord, DefectClass::kUnparseableField,
                   "expected " + std::to_string(header.size()) +
                       " fields, got " + std::to_string(row_.size()));
      } else if (decode()) {
        keep();
      }
    }
    if (report_) report_->files.back().rows = record_ - 1;
  }
  void keep() {
    if (report_) ++report_->files.back().kept;
  }

  // Records a defect of the current record in `column`. A strict load
  // throws it instead, naming the file, the record, the column and the
  // value.
  void defect(std::size_t column, DefectClass cls, DefectAction action,
              std::string detail) {
    if (strict()) {
      std::string what = where();
      if (column != kWholeRecord) {
        what += " column " + (*header_)[column] + " '" + row_[column] + "'";
      }
      throw Error(what + ": " + std::string(to_string(cls)) + " (" + detail +
                  ")");
    }
    report_->defects.push_back(
        {*file_, record_, cls, action, std::move(detail)});
  }
  bool quarantine(std::size_t column, DefectClass cls, std::string detail) {
    defect(column, cls, DefectAction::kQuarantined, std::move(detail));
    return false;
  }

  std::optional<std::int64_t> integer(std::size_t i) const {
    return attempt(parse_int, row_[i]);
  }
  // Reads the integer `columns` into `v`, indexed by column; an empty
  // column in `absent_if_empty` keeps its value in `v`. Returns the first
  // column that is not an integer, or kWholeRecord.
  std::size_t first_bad_integer(
      std::initializer_list<std::size_t> columns, std::int64_t* v,
      std::initializer_list<std::size_t> absent_if_empty = {}) const {
    for (std::size_t i : columns) {
      if (row_[i].empty() && std::find(absent_if_empty.begin(),
                                       absent_if_empty.end(),
                                       i) != absent_if_empty.end()) {
        continue;
      }
      const auto parsed = integer(i);
      if (!parsed) return i;
      v[i] = *parsed;
    }
    return kWholeRecord;
  }
  // Reads column `i` into `out`, an integer of the width of its field.
  template <typename T>
  bool integer(std::size_t i, const char* name, T& out) {
    const auto v = integer(i);
    if (!v || !fits<T>(*v)) {
      return quarantine(i, DefectClass::kUnparseableField,
                        name + (" '" + row_[i]) +
                            (v ? "' is out of range" : "' is not an integer"));
    }
    out = static_cast<T>(*v);
    return true;
  }
  // Reads column `i` into `out`; where `out` is optional an empty column is
  // absent. nan and inf are non_finite_numeric defects.
  template <typename T>
  bool number(std::size_t i, const char* name, T& out) {
    const std::string& field = row_[i];
    if (!std::is_same_v<T, double> && field.empty()) return true;
    if (const auto v = attempt(parse_finite_double, field)) {
      out = *v;
      return true;
    }
    if (attempt(parse_double, field)) {
      return quarantine(i, DefectClass::kNonFiniteNumeric,
                        name + (" is non-finite ('" + field + "')"));
    }
    return quarantine(i, DefectClass::kUnparseableField,
                      name + (" '" + field + "' is not a number"));
  }
  // Subsystem values index per-subsystem tables downstream.
  bool subsystem(std::size_t i, std::int64_t v, Subsystem& out) {
    if (v < 0 || v >= kSubsystemCount) {
      return quarantine(i, DefectClass::kUnknownEnum,
                        "subsystem '" + row_[i] + "' unknown");
    }
    out = static_cast<Subsystem>(v);
    return true;
  }
  // The database id of the server a row names in `column`, or nullopt. A
  // server never inventoried is an orphan_reference: the row is dropped,
  // or with `keep_row` only its reference cleared. A server whose own row
  // was quarantined drops the row as a cascade, which is no new defect.
  std::optional<ServerId> server(std::size_t column, std::int64_t file_id,
                                 bool keep_row = false) {
    if (const auto id = ids_.resolve(file_id)) return id;
    if (strict()) {
      throw Error(where() + " names server " + row_[column] +
                  ", outside the servers table (" +
                  std::to_string(db_.servers().size()) + " rows)");
    }
    if (ids_.quarantined(file_id)) {
      ++report_->cascade_drops;
    } else {
      defect(column, DefectClass::kOrphanReference, DefectAction::kRepaired,
             "references unknown server " + std::to_string(file_id) +
                 (keep_row ? "; reference cleared" : "; orphan dropped"));
    }
    return std::nullopt;
  }

  void read_meta() {
    // meta.csv is optional for older or hand-authored exports: without it
    // the paper's windows apply.
    if (!std::filesystem::exists(directory_ + "/" + kMetaFile)) return;
    static const std::array<std::string, 3> kNames = {"ticket", "monitoring",
                                                      "onoff"};
    std::array<ObservationWindow, 3> windows = {
        db_.window(), db_.monitoring(), db_.onoff_tracking()};
    read(kMetaFile, meta_header(), [&] {
      std::int64_t v[3] = {};
      if (const auto bad = first_bad_integer({1, 2}, v); bad != kWholeRecord) {
        return quarantine(bad, DefectClass::kUnparseableField,
                          "window bounds '" + row_[1] + "'/'" + row_[2] +
                              "' are not integers");
      }
      const auto name = std::find(kNames.begin(), kNames.end(), row_[0]);
      if (name == kNames.end()) {
        return quarantine(0, DefectClass::kUnknownEnum,
                          "unknown window '" + row_[0] + "'");
      }
      windows[static_cast<std::size_t>(name - kNames.begin())] = {v[1], v[2]};
      return true;
    });
    try {
      db_.set_windows(windows[0], windows[1], windows[2]);
    } catch (const Error& e) {
      if (strict()) throw Error("load_database: " + path() + ": " + e.what());
      record_ = 0;
      quarantine(kWholeRecord, DefectClass::kUnparseableField,
                 std::string("inconsistent windows (") + e.what() +
                     "); paper defaults kept");
    }
  }

  void read_servers() {
    read(kServersFile, servers_header(), [&] {
      const auto file_id = integer(0);
      if (!file_id) {
        return quarantine(0, DefectClass::kUnparseableField,
                          "id '" + row_[0] + "' is not an integer");
      }
      if (add_server(*file_id)) return true;
      ids_.quarantine(*file_id);  // its rows elsewhere go with it
      return false;
    });
  }
  bool add_server(std::int64_t file_id) {
    ServerRecord s;
    const auto type = attempt(machine_type_from_string, row_[1]);
    if (!type) {
      return quarantine(1, DefectClass::kUnknownEnum,
                        "unknown machine type '" + row_[1] + "'");
    }
    s.type = *type;
    const auto sys = integer(2);
    if (!sys) {
      return quarantine(2, DefectClass::kUnparseableField,
                        "subsystem '" + row_[2] + "' unknown");
    }
    if (!subsystem(2, *sys, s.subsystem) ||
        !integer(3, "cpu_count", s.cpu_count) ||
        !number(4, "memory_gb", s.memory_gb) ||
        !number(5, "disk_gb", s.disk_gb) ||
        (!row_[6].empty() &&
         !integer(6, "disk_count", s.disk_count.emplace())) ||
        (!row_[7].empty() && !integer(7, "host_box", s.host_box.value)) ||
        !integer(8, "first_record", s.first_record)) {
      return false;
    }
    const auto position = static_cast<std::int64_t>(db_.servers().size());
    if (strict() && file_id != position) {
      return quarantine(0, DefectClass::kDuplicateId,
                        "out of sequence (expected " +
                            std::to_string(position) + ")");
    }
    if (ids_.resolve(file_id)) {
      defect(0, DefectClass::kDuplicateId, DefectAction::kRepaired,
             "duplicate server id " + std::to_string(file_id) +
                 "; kept first occurrence");
      return false;
    }
    ids_.add(file_id, db_.add_server(s));
    return true;
  }

  void read_tickets() {
    std::vector<StagedTicket> staged;
    std::int64_t max_incident = -1;
    read(kTicketsFile, tickets_header(), [&] {
      StagedTicket st;
      if (!decode_ticket(st)) return false;
      if (st.incident && *st.incident >= 0 && *st.incident <= kMaxIncidentId) {
        max_incident = std::max(max_incident, *st.incident);
      }
      if (strict()) return add_ticket(st);
      staged.push_back(st);
      return false;  // kept once the ticket rules have run
    });
    // Fresh incidents for crash tickets without one follow every incident
    // in the file, so the lenient rules run once it is read.
    db_.raise_incident_counter(max_incident + 1);
    for (StagedTicket& st : staged) {
      if (add_ticket(st)) keep();
    }
  }
  bool decode_ticket(StagedTicket& st) {
    std::int64_t v[8] = {};
    if (const auto bad = first_bad_integer({0, 1, 2, 3, 4, 6, 7}, v, {1, 2});
        bad != kWholeRecord) {
      return quarantine(bad, DefectClass::kUnparseableField,
                        "numeric ticket field failed to parse");
    }
    if (!subsystem(3, v[3], st.t.subsystem)) return false;
    st.file_id = v[0];
    if (!row_[1].empty()) st.incident = v[1];
    if (!row_[2].empty()) st.server = v[2];
    st.t.is_crash = v[4] != 0;
    st.t.opened = v[6];
    st.t.closed = v[7];
    const auto cls = attempt(failure_class_from_string, row_[5]);
    st.t.true_class = cls.value_or(FailureClass::kOther);
    if (!cls) {
      defect(5, DefectClass::kUnknownEnum, DefectAction::kRepaired,
             "unknown failure class '" + row_[5] + "'; reassigned to 'other'");
    }
    // The row buffer is reused, so the text goes to the database now.
    st.t.description = db_.store_text(row_[8]);
    st.t.resolution = db_.store_text(row_[9]);
    st.record = record_;
    return true;
  }
  bool add_ticket(StagedTicket& st) {
    record_ = st.record;
    Ticket& t = st.t;
    const auto position = static_cast<std::int64_t>(db_.tickets().size());
    if (strict() && st.file_id != position) {
      return quarantine(0, DefectClass::kDuplicateId,
                        "out of sequence (expected " +
                            std::to_string(position) + ")");
    }
    if (!strict() && !ticket_ids_.insert(st.file_id).second) {
      defect(0, DefectClass::kDuplicateId, DefectAction::kRepaired,
             "duplicate ticket id " + std::to_string(st.file_id) +
                 "; kept first occurrence");
      return false;
    }
    // A crash ticket must name a machine; a background ticket naming an
    // unknown one keeps its row.
    if (st.server) {
      const auto id = server(2, *st.server, !t.is_crash);
      if (id) {
        t.server = *id;
      } else if (t.is_crash) {
        return false;
      }
    } else if (t.is_crash) {
      defect(2, DefectClass::kOrphanReference, DefectAction::kRepaired,
             "crash ticket without server; orphan dropped");
      return false;
    }
    if (st.incident && (*st.incident < 0 || *st.incident > kMaxIncidentId)) {
      return quarantine(1, DefectClass::kUnparseableField,
                        "incident " + std::to_string(*st.incident) +
                            " outside [0, " + std::to_string(kMaxIncidentId) +
                            "]");
    }
    if (st.incident) {
      t.incident = IncidentId{static_cast<std::int32_t>(*st.incident)};
    } else if (t.is_crash) {
      // A lenient load gives the crash a fresh incident while ids are left.
      if (strict() || db_.incident_ids_exhausted()) {
        return quarantine(1, DefectClass::kOrphanReference,
                          "crash ticket without incident");
      }
      t.incident = db_.new_incident();
      defect(1, DefectClass::kOrphanReference, DefectAction::kRepaired,
             "crash ticket without incident; assigned fresh id " +
                 std::to_string(t.incident.value));
    }
    if (t.closed < t.opened) {
      return quarantine(7, DefectClass::kEndBeforeOpen,
                        "closed " + std::to_string(t.closed) +
                            " precedes opened " + std::to_string(t.opened));
    }
    if (!strict() && !db_.window().contains(t.opened)) {
      // Clip the failure timestamp into the observation window and shift
      // the closing time with it: repair durations survive the repair.
      // (Closing times legitimately run past the window end, as in the
      // paper's data, so only `opened` is window-checked.)
      // A repair duration that does not fit a TimePoint once moved (from
      // hostile timestamps) cannot be kept, so the row is quarantined.
      const TimePoint opened = clamp_into(t.opened, db_.window());
      TimePoint duration = 0;
      TimePoint closed = 0;
      if (__builtin_sub_overflow(t.closed, t.opened, &duration) ||
          __builtin_add_overflow(opened, duration, &closed)) {
        return quarantine(6, DefectClass::kOutOfWindowTimestamp,
                          "ticket opened at " + std::to_string(t.opened) +
                              " cannot be clipped: its duration overflows");
      }
      defect(6, DefectClass::kOutOfWindowTimestamp, DefectAction::kRepaired,
             "ticket opened at " + std::to_string(t.opened) +
                 " clipped into the observation window");
      t.opened = opened;
      t.closed = closed;
    }
    db_.add_stored_ticket(t);
    return true;
  }

  void read_weekly_usage() {
    const int weeks = db_.window().week_count();
    // Truncation counts every row whose server and week parse, also rows
    // quarantined below, so a nan in a final week is not a truncated
    // series too.
    struct SeriesSpan {
      std::int64_t file_id = 0;
      int max_week = -1;
      std::size_t last_record = 0;
    };
    std::vector<SeriesSpan> spans(strict() ? 0 : db_.servers().size());
    read(kWeeklyUsageFile, weekly_usage_header(), [&] {
      std::int64_t v[2] = {};  // server, week
      if (const auto bad = first_bad_integer({0, 1}, v); bad != kWholeRecord) {
        return quarantine(bad, DefectClass::kUnparseableField,
                          "server/week '" + row_[0] + "'/'" + row_[1] +
                              "' failed to parse");
      }
      const auto known = strict() ? std::nullopt : ids_.resolve(v[0]);
      if (known && fits<int>(v[1])) {
        SeriesSpan& span = spans[static_cast<std::size_t>(known->value)];
        if (v[1] > span.max_week) {
          span = {v[0], static_cast<int>(v[1]), record_};
        }
      }
      WeeklyUsage u;
      if (!number(2, "cpu_util", u.cpu_util) ||
          !number(3, "mem_util", u.mem_util) ||
          !number(4, "disk_util", u.disk_util) ||
          !number(5, "net_kbps", u.net_kbps)) {
        return false;
      }
      if (!fits<int>(v[1]) || (!strict() && (v[1] < 0 || v[1] >= weeks))) {
        return quarantine(1, DefectClass::kOutOfWindowTimestamp,
                          "week " + std::to_string(v[1]) +
                              " outside the observation year");
      }
      const auto id = server(0, v[0]);
      if (!id) return false;
      u.server = *id;
      u.week = static_cast<int>(v[1]);
      db_.add_weekly_usage(u);
      return true;
    });
    for (const SeriesSpan& span : spans) {
      if (span.max_week >= 0 && span.max_week < weeks - 1) {
        record_ = span.last_record;
        defect(kWholeRecord, DefectClass::kTruncatedSeries,
               DefectAction::kRepaired,
               "series for server " + std::to_string(span.file_id) +
                   " ends at week " + std::to_string(span.max_week) + " of " +
                   std::to_string(weeks - 1) + "; gap tolerated");
      }
    }
  }

  void read_power_events() {
    const ObservationWindow coverage = db_.monitoring();
    read(kPowerEventsFile, power_events_header(), [&] {
      std::int64_t v[3] = {};  // server, at, powered_on
      if (const auto bad = first_bad_integer({0, 1, 2}, v);
          bad != kWholeRecord) {
        return quarantine(bad, DefectClass::kUnparseableField,
                          "power event field failed to parse");
      }
      PowerEvent e;
      e.at = v[1];
      e.powered_on = v[2] != 0;
      if (!strict() && !coverage.contains(e.at)) {
        defect(1, DefectClass::kOutOfWindowTimestamp, DefectAction::kRepaired,
               "event at " + std::to_string(e.at) +
                   " clipped into monitoring coverage");
        e.at = clamp_into(e.at, coverage);
      }
      const auto id = server(0, v[0]);
      if (!id) return false;
      e.server = *id;
      db_.add_power_event(e);
      return true;
    });
  }

  void read_snapshots() {
    const int months = db_.window().month_count();
    read(kSnapshotsFile, snapshots_header(), [&] {
      std::int64_t v[4] = {0, 0, -1, 0};  // server, month, box, consolidation
      if (const auto bad = first_bad_integer({0, 1, 2, 3}, v, {2});
          bad != kWholeRecord) {
        return quarantine(bad, DefectClass::kUnparseableField,
                          "snapshot field failed to parse");
      }
      if (v[3] < 1) {
        return quarantine(3, DefectClass::kUnparseableField,
                          "consolidation " + std::to_string(v[3]) +
                              " below 1");
      }
      if (!fits<int>(v[3]) || !fits<std::int32_t>(v[2])) {
        return quarantine(fits<int>(v[3]) ? 2 : 3,
                          DefectClass::kUnparseableField,
                          "snapshot field out of range");
      }
      if (!fits<int>(v[1]) || (!strict() && (v[1] < 0 || v[1] >= months))) {
        return quarantine(1, DefectClass::kOutOfWindowTimestamp,
                          "month " + std::to_string(v[1]) +
                              " outside the observation year");
      }
      const auto id = server(0, v[0]);
      if (!id) return false;
      MonthlySnapshot s;
      s.server = *id;
      s.month = static_cast<int>(v[1]);
      if (v[2] >= 0) s.box = BoxId{static_cast<std::int32_t>(v[2])};
      s.consolidation = static_cast<int>(v[3]);
      db_.add_monthly_snapshot(s);
      return true;
    });
  }

  const std::string& directory_;
  SanitizationReport* report_;
  TraceDatabase db_;
  ServerIds ids_;
  std::unordered_set<std::int64_t> ticket_ids_;  // a lenient load's dedup
  // The record being decoded.
  const std::string* file_ = nullptr;
  const std::vector<std::string>* header_ = nullptr;
  std::vector<std::string> row_;
  std::size_t record_ = 0;
};
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

TraceDatabase load_database(const std::string& directory,
                            SanitizationReport* report) {
  obs::Span span("trace.load_database");
  if (report) *report = SanitizationReport{};
  TraceDatabase db = Decoder(directory, report).run();
  if (report) {
    // Metric families are emitted complete (add(0) for absent classes), so
    // a clean run and a dirty run export the same set of label values.
    for (DefectClass cls : kAllDefectClasses) {
      obs::counter("fa.sanitize.defects",
                   {{"class", std::string(to_string(cls))}})
          .add(report->count(cls));
    }
    obs::counter("fa.sanitize.repaired").add(report->repaired());
    obs::counter("fa.sanitize.quarantined").add(report->quarantined());
    obs::counter("fa.sanitize.cascade_drops").add(report->cascade_drops);
  }
  return db;
}

}  // namespace fa::trace

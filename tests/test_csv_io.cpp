#include "src/trace/csv_io.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/trace/columnar_io.h"
#include "src/trace/sanitize.h"
#include "src/util/error.h"
#include "src/util/strings.h"
#include "tests/test_support.h"

namespace fa::trace {
namespace {

class CsvIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fa_csv_io_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

TEST_F(CsvIoTest, RoundTripsSimulatedDatabase) {
  auto config = fa::sim::SimulationConfig::paper_defaults().scaled(0.03);
  const TraceDatabase original = fa::sim::simulate(config);
  save_database(original, dir());
  const TraceDatabase loaded = load_database(dir());

  ASSERT_EQ(loaded.servers().size(), original.servers().size());
  ASSERT_EQ(loaded.tickets().size(), original.tickets().size());

  for (std::size_t i = 0; i < original.servers().size(); ++i) {
    const ServerRecord& a = original.servers()[i];
    const ServerRecord& b = loaded.servers()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.subsystem, b.subsystem);
    EXPECT_EQ(a.cpu_count, b.cpu_count);
    EXPECT_EQ(a.disk_count, b.disk_count);
    EXPECT_EQ(a.host_box, b.host_box);
    EXPECT_EQ(a.first_record, b.first_record);
    EXPECT_EQ(a.disk_gb.has_value(), b.disk_gb.has_value());
  }
  for (std::size_t i = 0; i < original.tickets().size(); ++i) {
    const Ticket& a = original.tickets()[i];
    const Ticket& b = loaded.tickets()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.incident, b.incident);
    EXPECT_EQ(a.server, b.server);
    EXPECT_EQ(a.is_crash, b.is_crash);
    EXPECT_EQ(a.true_class, b.true_class);
    EXPECT_EQ(a.opened, b.opened);
    EXPECT_EQ(a.closed, b.closed);
    EXPECT_EQ(a.description, b.description);
    EXPECT_EQ(a.resolution, b.resolution);
  }

  // Monitoring-table round trips, spot-checked per server.
  for (const ServerRecord& s : original.servers()) {
    EXPECT_EQ(loaded.weekly_usage_for(s.id).size(),
              original.weekly_usage_for(s.id).size());
    EXPECT_EQ(loaded.power_events_for(s.id).size(),
              original.power_events_for(s.id).size());
    EXPECT_EQ(loaded.snapshots_for(s.id).size(),
              original.snapshots_for(s.id).size());
  }

  // Incident grouping identical.
  EXPECT_EQ(loaded.incidents().size(), original.incidents().size());
}

TEST_F(CsvIoTest, LoadedDatabaseIsFinalized) {
  auto config = fa::sim::SimulationConfig::paper_defaults().scaled(0.02);
  const TraceDatabase original = fa::sim::simulate(config);
  save_database(original, dir());
  const TraceDatabase loaded = load_database(dir());
  EXPECT_TRUE(loaded.finalized());
  EXPECT_FALSE(loaded.crash_tickets().empty());
}

TEST_F(CsvIoTest, CustomWindowsRoundTrip) {
  TraceDatabase db;
  const ObservationWindow monitoring{0, 1000 * kMinutesPerDay};
  const ObservationWindow ticket{100 * kMinutesPerDay,
                                 600 * kMinutesPerDay};
  const ObservationWindow onoff{200 * kMinutesPerDay, 260 * kMinutesPerDay};
  db.set_windows(ticket, monitoring, onoff);
  ServerRecord s;
  s.type = MachineType::kPhysical;
  db.add_server(s);
  db.finalize();

  save_database(db, dir());
  const TraceDatabase loaded = load_database(dir());
  EXPECT_EQ(loaded.window().begin, ticket.begin);
  EXPECT_EQ(loaded.window().end, ticket.end);
  EXPECT_EQ(loaded.monitoring().end, monitoring.end);
  EXPECT_EQ(loaded.onoff_tracking().begin, onoff.begin);
}

// Every ticket's server, crash or not, must name a loaded server: strict
// .fac loads refuse such rows, so an export that loaded with one would
// convert to a .fac that does not load back. An empty field means "no
// server".
TEST_F(CsvIoTest, TicketNamingAMissingServerIsRejected) {
  TraceDatabase db;
  db.add_server(ServerRecord{});
  Ticket on_server;
  on_server.server = ServerId{0};
  on_server.opened = ticket_window().begin;
  on_server.closed = on_server.opened + kMinutesPerHour;
  on_server.description = "cpu utilization warning";
  on_server.resolution = "closed";
  db.add_ticket(on_server);
  Ticket serverless = on_server;
  serverless.server = ServerId{};
  db.add_ticket(serverless);
  db.finalize();
  save_database(db, dir());

  // The clean export converts to .fac and back, as `fa_trace convert` does.
  const std::string fac = dir() + "/trace.fac";
  save_columnar(load_database(dir()), fac);
  const TraceDatabase back = load_columnar(fac);
  ASSERT_EQ(back.tickets().size(), 2u);
  EXPECT_EQ(back.tickets()[0].server, ServerId{0});
  EXPECT_FALSE(back.tickets()[1].server.valid());

  // Point one background ticket at a server the export does not hold.
  const auto write_tickets = [&](const std::string& first,
                                 const std::string& second) {
    std::ofstream out(dir() + "/" + kTicketsFile);
    out << join(tickets_header(), ",") << "\n"
        << "0,," << first << ",0,0,other,1000,2000,desc,res\n"
        << "1,," << second << ",0,0,other,1000,2000,desc,res\n";
  };
  const auto load_error = [&]() -> std::string {
    try {
      load_database(dir());
    } catch (const Error& e) {
      return e.what();
    }
    return "loaded";
  };
  write_tickets("99", "");
  std::string what = load_error();
  EXPECT_NE(what.find("tickets.csv record 1 names server 99"),
            std::string::npos)
      << what;
  write_tickets("0", "-1");
  what = load_error();
  EXPECT_NE(what.find("tickets.csv record 2 names server -1"),
            std::string::npos)
      << what;
  write_tickets("0", "1");
  what = load_error();
  EXPECT_NE(what.find("record 2 names server 1, outside the servers table "
                      "(1 rows)"),
            std::string::npos)
      << what;
  write_tickets("0", "");
  EXPECT_EQ(load_error(), "loaded");
}

TEST_F(CsvIoTest, MissingMetaFallsBackToPaperWindows) {
  auto config = fa::sim::SimulationConfig::paper_defaults().scaled(0.02);
  save_database(fa::sim::simulate(config), dir());
  std::filesystem::remove(dir() + "/meta.csv");
  const TraceDatabase loaded = load_database(dir());
  EXPECT_EQ(loaded.window().begin, ticket_window().begin);
  EXPECT_EQ(loaded.onoff_tracking().end, onoff_window().end);
}

TEST_F(CsvIoTest, SetWindowsValidation) {
  TraceDatabase db;
  const ObservationWindow monitoring{0, 100};
  // Ticket window escaping monitoring coverage.
  EXPECT_THROW(db.set_windows({50, 200}, monitoring, {60, 70}), Error);
  // On/off window escaping the ticket window.
  EXPECT_THROW(db.set_windows({10, 90}, monitoring, {80, 95}), Error);
  // Empty window.
  EXPECT_THROW(db.set_windows({50, 50}, monitoring, {60, 70}), Error);
  // After finalize.
  db.finalize();
  EXPECT_THROW(db.set_windows({10, 90}, monitoring, {20, 30}), Error);
}

TEST_F(CsvIoTest, MissingDirectoryThrows) {
  EXPECT_THROW(load_database(dir() + "/nonexistent"), Error);
}

class CsvInjectionTest : public CsvIoTest {
 protected:
  void SetUp() override {
    CsvIoTest::SetUp();
    auto config = fa::sim::SimulationConfig::paper_defaults().scaled(0.02);
    save_database(fa::sim::simulate(config), dir());
  }

  // Appends a raw row to one of the CSV files.
  void inject(const std::string& file, const std::string& row) {
    std::ofstream out(dir() + "/" + file, std::ios::app);
    out << row << "\n";
  }
};

// Renders "class,action,detail" as defects_csv() writes it: the detail is
// quoted when it holds a comma or a quote.
std::string escape(const std::string& defect) {
  const auto second = defect.find(',', defect.find(',') + 1);
  std::ostringstream detail;
  CsvWriter(detail).write_row({defect.substr(second + 1)});
  std::string quoted = detail.str();
  quoted.pop_back();  // the row's newline
  return defect.substr(0, second + 1) + quoted;
}

// Hostile ids: one field of the clean export edited. Each of these loads
// hung, aborted unlocated or loaded the wrong row before ids were checked
// against the width of the field they fill.
class HostileIdTest : public CsvInjectionTest {
 protected:
  // Sets `column` of the first record past record `after` of `file` whose
  // `match_column` holds `match` (any record when `match_column` is empty)
  // to `value`, and returns that record's 1-based index.
  std::size_t edit(const std::string& file, const std::string& column,
                   const std::string& value,
                   const std::string& match_column = "",
                   const std::string& match = "", std::size_t after = 0) {
    const std::string path = dir() + "/" + file;
    std::vector<std::vector<std::string>> rows;
    {
      std::ifstream in(path);
      CsvReader reader(in);
      std::vector<std::string> row;
      while (reader.read_row(row)) rows.push_back(row);
    }
    const auto index_of = [&](const std::string& name) {
      const auto& header = rows.front();
      return static_cast<std::size_t>(
          std::find(header.begin(), header.end(), name) - header.begin());
    };
    std::size_t record = 0;
    for (std::size_t r = after + 1; r < rows.size() && record == 0; ++r) {
      if (match_column.empty() || rows[r][index_of(match_column)] == match) {
        rows[r][index_of(column)] = value;
        record = r;
      }
    }
    std::ofstream out(path);
    CsvWriter writer(out);
    for (const auto& row : rows) writer.write_row(row);
    return record;
  }

  // The strict load's error; "loaded" when it succeeds.
  std::string strict_error() {
    std::string what = "loaded";
    within([&] {
      try {
        load_database(dir());
      } catch (const Error& e) {
        what = e.what();
      }
    });
    return what;
  }

  // The lenient load's defects CSV.
  std::string lenient_defects() {
    std::string defects;
    within([&] {
      SanitizationReport report;
      load_database(dir(), &report);
      defects = report.defects_csv();
    });
    return defects;
  }

 private:
  // Runs `fn` under a watchdog thread that ends the test binary when `fn`
  // is still running after 20 s, so a load that hangs fails instead of
  // stalling.
  template <typename Fn>
  static void within(Fn fn) {
    std::mutex mutex;
    std::condition_variable finished;
    bool done = false;
    std::thread watchdog([&] {
      std::unique_lock lock(mutex);
      if (!finished.wait_for(lock, std::chrono::seconds(20),
                             [&] { return done; })) {
        std::fputs("load still running after 20 s\n", stderr);
        std::_Exit(1);
      }
    });
    const auto stop = [&] {
      {
        std::lock_guard lock(mutex);
        done = true;
      }
      finished.notify_one();
      watchdog.join();
    };
    try {
      fn();
    } catch (...) {
      stop();
      throw;
    }
    stop();
  }
};

TEST_F(HostileIdTest, MaxInt32IncidentIsLocatedInsteadOfHanging) {
  const std::size_t record =
      edit(kTicketsFile, "incident", "2147483647", "is_crash", "1");
  EXPECT_NE(strict_error().find("tickets.csv record " +
                                std::to_string(record) +
                                " column incident '2147483647'"),
            std::string::npos)
      << strict_error();
  EXPECT_NE(lenient_defects().find(
                "tickets.csv," + std::to_string(record) +
                ",unparseable_field,quarantined,\"incident 2147483647 "
                "outside [0, 2147483646]\""),
            std::string::npos)
      << lenient_defects();
}

TEST_F(HostileIdTest, Int64IncidentIsALenientDefectInsteadOfAHang) {
  const std::size_t record = edit(kTicketsFile, "incident",
                                  "9000000000000000000", "is_crash", "1");
  EXPECT_NE(lenient_defects().find(
                "tickets.csv," + std::to_string(record) +
                ",unparseable_field,quarantined,\"incident "
                "9000000000000000000 outside [0, 2147483646]\""),
            std::string::npos)
      << lenient_defects();
  EXPECT_NE(strict_error().find("column incident '9000000000000000000'"),
            std::string::npos)
      << strict_error();
}

TEST_F(HostileIdTest, NegativeCrashIncidentIsALenientDefect) {
  const std::size_t record =
      edit(kTicketsFile, "incident", "-5", "is_crash", "1");
  EXPECT_NE(lenient_defects().find(
                "tickets.csv," + std::to_string(record) +
                ",unparseable_field,quarantined,\"incident -5 outside "
                "[0, 2147483646]\""),
            std::string::npos)
      << lenient_defects();
  EXPECT_NE(strict_error().find("tickets.csv record " +
                                std::to_string(record) +
                                " column incident '-5'"),
            std::string::npos)
      << strict_error();
}

TEST_F(HostileIdTest, UsageServerPastInt32IsRefusedNotLoadedAsServer0) {
  const std::size_t record =
      edit(kWeeklyUsageFile, "server", "4294967296");
  EXPECT_NE(strict_error().find("weekly_usage.csv record " +
                                std::to_string(record) +
                                " names server 4294967296"),
            std::string::npos)
      << strict_error();
  EXPECT_NE(lenient_defects().find(
                "weekly_usage.csv," + std::to_string(record) +
                ",orphan_reference,repaired,references unknown server "
                "4294967296; orphan dropped"),
            std::string::npos)
      << lenient_defects();
}

// Once an incident of 2147483646 has raised the counter to its end, a crash
// ticket without an incident cannot get a fresh one: the lenient load
// quarantines it instead of failing on the exhausted counter.
TEST_F(HostileIdTest, ExhaustedIncidentIdsQuarantineACrashWithoutOne) {
  const std::size_t top =
      edit(kTicketsFile, "incident", "2147483646", "is_crash", "1");
  const std::size_t blank =
      edit(kTicketsFile, "incident", "", "is_crash", "1", top);
  EXPECT_NE(lenient_defects().find(
                "tickets.csv," + std::to_string(blank) +
                ",orphan_reference,quarantined,crash ticket without "
                "incident\n"),
            std::string::npos)
      << lenient_defects();
  EXPECT_NE(strict_error().find("tickets.csv record " +
                                std::to_string(blank) + " column incident ''"),
            std::string::npos)
      << strict_error();
}

// A week wider than int is out of the observation year; it must not count
// as the end of its server's series, which would hide the series' gap.
TEST_F(HostileIdTest, WideWeekDoesNotHideATruncatedSeries) {
  const std::size_t record =
      edit(kWeeklyUsageFile, "week", "4294967348", "week", "52");
  const std::string defects = lenient_defects();
  EXPECT_NE(defects.find("weekly_usage.csv," + std::to_string(record) +
                         ",out_of_window,quarantined,week 4294967348 outside "
                         "the observation year\n"),
            std::string::npos)
      << defects;
  EXPECT_NE(defects.find("weekly_usage.csv," + std::to_string(record - 1) +
                         ",truncated_series,repaired,series for server "),
            std::string::npos)
      << defects;
  EXPECT_NE(defects.find(" ends at week 51 of 52; gap tolerated\n"),
            std::string::npos)
      << defects;
  EXPECT_NE(strict_error().find("weekly_usage.csv record " +
                                std::to_string(record) +
                                " column week '4294967348'"),
            std::string::npos)
      << strict_error();
}

// A ticket opened at the int64 minimum cannot be clipped into the window
// with its duration: the lenient load quarantines it instead of failing
// in finalize. Strict loads check no windows and keep it.
TEST_F(HostileIdTest, UnclippableTicketIsQuarantinedNotAborted) {
  const std::size_t record =
      edit(kTicketsFile, "opened", "-9223372036854775808");
  EXPECT_NE(lenient_defects().find(
                "tickets.csv," + std::to_string(record) +
                ",out_of_window,quarantined,ticket opened at "
                "-9223372036854775808 cannot be clipped: its duration "
                "overflows\n"),
            std::string::npos)
      << lenient_defects();
  EXPECT_EQ(strict_error(), "loaded");
}

// One bad value in one column of the clean export, per row. A strict load
// must fail naming the file, the record, the column and the value; a
// lenient load must record the defect below (expected values taken from
// the lenient loader before strict and lenient loads were unified).
struct DecoderCase {
  const char* file;
  const char* column;
  const char* value;
  std::size_t defect_record;  // where the lenient load records the defect
  const char* defect;         // class,action,detail as in defects_csv()
};

const DecoderCase kDecoderCases[] = {
    {"meta.csv", "begin", "x", 1,
     "unparseable_field,quarantined,window bounds 'x'/'1052640' are not "
     "integers"},
    {"meta.csv", "window", "solstice", 1,
     "unknown_enum,quarantined,unknown window 'solstice'"},
    {"servers.csv", "type", "mainframe", 1,
     "unknown_enum,quarantined,unknown machine type 'mainframe'"},
    {"servers.csv", "subsystem", "7", 1,
     "unknown_enum,quarantined,subsystem '7' unknown"},
    {"servers.csv", "memory_gb", "nan", 1,
     "non_finite_numeric,quarantined,memory_gb is non-finite ('nan')"},
    {"servers.csv", "host_box", "x", 1,
     "unparseable_field,quarantined,host_box 'x' is not an integer"},
    {"tickets.csv", "subsystem", "bo!gus", 1,
     "unparseable_field,quarantined,numeric ticket field failed to parse"},
    {"tickets.csv", "true_class", "gremlins", 1,
     "unknown_enum,repaired,unknown failure class 'gremlins'; reassigned "
     "to 'other'"},
    {"tickets.csv", "closed", "0", 1,
     "end_before_open,quarantined,closed 0 precedes opened 529104"},
    {"tickets.csv", "server", "99999", 1,
     "orphan_reference,repaired,references unknown server 99999; orphan "
     "dropped"},
    {"tickets.csv", "id", "7", 8,
     "duplicate_id,repaired,duplicate ticket id 7; kept first occurrence"},
    {"weekly_usage.csv", "cpu_util", "inf", 1,
     "non_finite_numeric,quarantined,cpu_util is non-finite ('inf')"},
    {"weekly_usage.csv", "week", "x", 1,
     "unparseable_field,quarantined,server/week '0'/'x' failed to parse"},
    {"weekly_usage.csv", "week", "4294967348", 1,
     "out_of_window,quarantined,week 4294967348 outside the observation "
     "year"},
    {"weekly_usage.csv", "disk_util", "bogus", 1,
     "unparseable_field,quarantined,disk_util 'bogus' is not a number"},
    {"power_events.csv", "at", "x", 1,
     "unparseable_field,quarantined,power event field failed to parse"},
    {"power_events.csv", "server", "99999", 1,
     "orphan_reference,repaired,references unknown server 99999; orphan "
     "dropped"},
    {"snapshots.csv", "consolidation", "0", 1,
     "unparseable_field,quarantined,consolidation 0 below 1"},
    {"snapshots.csv", "month", "x", 1,
     "unparseable_field,quarantined,snapshot field failed to parse"},
    {"snapshots.csv", "server", "-3", 1,
     "orphan_reference,repaired,references unknown server -3; orphan "
     "dropped"},
};

TEST_F(HostileIdTest, EveryDecoderLocatesItsDefectInBothModes) {
  const std::string clean = dir() + "_clean";
  std::filesystem::remove_all(clean);
  std::filesystem::copy(dir(), clean);
  for (const DecoderCase& c : kDecoderCases) {
    std::filesystem::remove_all(dir());
    std::filesystem::copy(clean, dir());
    const std::size_t record = edit(c.file, c.column, c.value);
    ASSERT_EQ(record, 1u) << c.file;
    const std::string where = std::string(c.file) + " " + c.column;
    const std::string what = strict_error();
    EXPECT_NE(what.find(std::string(c.file) + " record 1 "),
              std::string::npos)
        << where << ": " << what;
    EXPECT_NE(what.find(c.column), std::string::npos) << where << ": " << what;
    EXPECT_NE(what.find(c.value), std::string::npos) << where << ": " << what;
    const std::string defects = lenient_defects();
    EXPECT_EQ(defects, "file,row,class,action,detail\n" + std::string(c.file) +
                           "," + std::to_string(c.defect_record) + "," +
                           escape(c.defect) + "\n")
        << where;
  }
  std::filesystem::remove_all(clean);
}

TEST_F(CsvInjectionTest, DanglingTicketServerRejected) {
  inject("tickets.csv",
         "999999,0,999999,0,1,software,1000,2000,server unresponsive,fixed");
  EXPECT_THROW(load_database(dir()), Error);
}

TEST_F(CsvInjectionTest, UnknownFailureClassRejected) {
  inject("tickets.csv",
         "999999,,0,0,0,gremlins,1000,2000,desc,res");
  EXPECT_THROW(load_database(dir()), Error);
}

TEST_F(CsvInjectionTest, ClosedBeforeOpenedRejected) {
  inject("tickets.csv",
         "999999,,0,0,0,other,2000,1000,desc,res");
  EXPECT_THROW(load_database(dir()), Error);
}

TEST_F(CsvInjectionTest, NonContiguousServerIdRejected) {
  inject("servers.csv", "999999,PM,0,4,8.000,,,,0");
  EXPECT_THROW(load_database(dir()), Error);
}

TEST_F(CsvInjectionTest, MalformedNumberRejected) {
  inject("weekly_usage.csv", "0,notaweek,10.0,10.0,,");
  EXPECT_THROW(load_database(dir()), Error);
}

TEST_F(CsvInjectionTest, ShortRowRejected) {
  inject("snapshots.csv", "0,1");
  EXPECT_THROW(load_database(dir()), Error);
}

TEST_F(CsvInjectionTest, InvalidConsolidationRejected) {
  // Snapshot rows must carry consolidation >= 1 (finalize validation).
  inject("snapshots.csv", "0,1,0,0");
  EXPECT_THROW(load_database(dir()), Error);
}

// Subsystem values index per-subsystem tables downstream, so the strict
// loader rejects one outside [0, kSubsystemCount) and names the file.
TEST_F(CsvInjectionTest, OutOfRangeServerSubsystemRejected) {
  const std::size_t servers = load_database(dir()).servers().size();
  inject("servers.csv", std::to_string(servers) + ",PM,7,4,8.000,,,,0");
  try {
    load_database(dir());
    FAIL() << "subsystem 7 loaded";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("subsystem '7'"), std::string::npos) << what;
    EXPECT_NE(what.find("servers.csv"), std::string::npos) << what;
  }
}

TEST_F(CsvInjectionTest, OutOfRangeTicketSubsystemRejected) {
  const std::size_t tickets = load_database(dir()).tickets().size();
  inject("tickets.csv",
         std::to_string(tickets) + ",,,7,0,other,1000,2000,desc,res");
  try {
    load_database(dir());
    FAIL() << "subsystem 7 loaded";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("subsystem '7'"), std::string::npos) << what;
    EXPECT_NE(what.find("tickets.csv"), std::string::npos) << what;
  }
}

TEST_F(CsvIoTest, CorruptHeaderThrows) {
  auto config = fa::sim::SimulationConfig::paper_defaults().scaled(0.02);
  const TraceDatabase original = fa::sim::simulate(config);
  save_database(original, dir());
  // Clobber the servers.csv header.
  std::ofstream out(dir() + "/servers.csv");
  out << "bogus,header\n";
  out.close();
  EXPECT_THROW(load_database(dir()), Error);
}

TEST(ExpectHeader, ReportsExpectedActualAndDifferingColumn) {
  std::istringstream in("id,type,wrong,cpu_count\n");
  CsvReader reader(in);
  try {
    expect_header(reader, {"id", "type", "subsystem", "cpu_count"}, "x.csv");
    FAIL() << "expect_header should have thrown";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("x.csv"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[id,type,subsystem,cpu_count]"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("[id,type,wrong,cpu_count]"), std::string::npos)
        << msg;
    // Pinpoints the first differing column by index and both spellings.
    EXPECT_NE(msg.find("column 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("subsystem"), std::string::npos) << msg;
    EXPECT_NE(msg.find("wrong"), std::string::npos) << msg;
  }
}

TEST(ExpectHeader, ReportsMissingColumns) {
  std::istringstream in("id,type\n");
  CsvReader reader(in);
  try {
    expect_header(reader, {"id", "type", "subsystem"}, "y.csv");
    FAIL() << "expect_header should have thrown";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("missing"), std::string::npos) << msg;
    EXPECT_NE(msg.find("subsystem"), std::string::npos) << msg;
  }
}

TEST(ExpectHeader, ReportsExtraColumns) {
  std::istringstream in("id,type,extra\n");
  CsvReader reader(in);
  try {
    expect_header(reader, {"id", "type"}, "z.csv");
    FAIL() << "expect_header should have thrown";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("extra"), std::string::npos) << msg;
  }
}

TEST(ExpectHeader, AcceptsMatchingHeader) {
  std::istringstream in("id,type\n1,PM\n");
  CsvReader reader(in);
  EXPECT_NO_THROW(expect_header(reader, {"id", "type"}, "ok.csv"));
  std::vector<std::string> row;
  ASSERT_TRUE(reader.read_row(row));  // header consumed, data remains
  EXPECT_EQ(row[0], "1");
}

}  // namespace
}  // namespace fa::trace

#include "src/trace/csv_io.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/trace/columnar_io.h"
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

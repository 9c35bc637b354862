#include "src/trace/sanitize.h"

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/analysis/pipeline.h"
#include "src/sim/simulator.h"
#include "src/trace/csv_io.h"
#include "src/util/error.h"
#include "src/util/strings.h"
#include "tests/test_support.h"

namespace fa::trace {
namespace {

// Fixture writing hand-crafted CSV exports: every file starts header-only,
// and each test overwrites the tables it exercises with dirty rows.
class SanitizeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fa_sanitize_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    write(kServersFile, "");
    write(kTicketsFile, "");
    write(kWeeklyUsageFile, "");
    write(kPowerEventsFile, "");
    write(kSnapshotsFile, "");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir() const { return dir_.string(); }

  // (Re)writes one table: the schema header plus `rows` verbatim.
  void write(const std::string& file, const std::string& rows) {
    static const std::unordered_map<std::string, const std::vector<std::string>*>
        headers = {{kMetaFile, &meta_header()},
                   {kServersFile, &servers_header()},
                   {kTicketsFile, &tickets_header()},
                   {kWeeklyUsageFile, &weekly_usage_header()},
                   {kPowerEventsFile, &power_events_header()},
                   {kSnapshotsFile, &snapshots_header()}};
    std::ofstream out(dir() + "/" + file);
    out << join(*headers.at(file), ",") << "\n" << rows;
  }

  // One valid PM (file id 0) so tickets have something to reference.
  void write_one_server() { write(kServersFile, "0,PM,0,4,8.000,,,,0\n"); }

 private:
  std::filesystem::path dir_;
};

std::string ticket_row(int id, const std::string& incident, int server,
                       int is_crash, const std::string& cls, TimePoint opened,
                       TimePoint closed) {
  return std::to_string(id) + "," + incident + "," + std::to_string(server) +
         ",0," + std::to_string(is_crash) + "," + cls + "," +
         std::to_string(opened) + "," + std::to_string(closed) +
         ",desc,res\n";
}

TEST_F(SanitizeTest, EmptyTablesProduceEmptyCleanDatabase) {
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.total_defects(), 0u);
  EXPECT_EQ(result.report.cascade_drops, 0u);
  EXPECT_TRUE(result.db.finalized());
}

TEST_F(SanitizeTest, CleanSimulatedExportHasZeroDefects) {
  auto config = fa::sim::SimulationConfig::paper_defaults().scaled(0.02);
  const TraceDatabase original = fa::sim::simulate(config);
  save_database(original, dir());
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.total_defects(), 0u) << result.report.to_string();
  EXPECT_EQ(result.report.cascade_drops, 0u);
  EXPECT_EQ(result.db.servers().size(), original.servers().size());
  EXPECT_EQ(result.db.tickets().size(), original.tickets().size());
  EXPECT_EQ(result.report.rows_kept(kTicketsFile),
            original.tickets().size());
}

// The sanitizer stages tickets before it adds them, while the CSV reader
// reuses its row buffer: staged text that viewed that buffer would come
// out as a later row's bytes.
TEST_F(SanitizeTest, CleanExportKeepsTheStrictLoadsTicketText) {
  auto config = fa::sim::SimulationConfig::paper_defaults().scaled(0.02);
  save_database(fa::sim::simulate(config), dir());
  const TraceDatabase strict = load_database(dir());
  const auto result = fa::testing::load_lenient(dir());
  ASSERT_EQ(result.db.tickets().size(), strict.tickets().size());
  for (std::size_t i = 0; i < strict.tickets().size(); ++i) {
    ASSERT_EQ(result.db.tickets()[i].description,
              strict.tickets()[i].description)
        << "ticket " << i;
    ASSERT_EQ(result.db.tickets()[i].resolution,
              strict.tickets()[i].resolution)
        << "ticket " << i;
  }
}

TEST_F(SanitizeTest, DuplicateServerIdKeepsFirstOccurrence) {
  write(kServersFile,
        "0,PM,0,4,8.000,,,,0\n"
        "0,PM,1,16,64.000,,,,0\n");
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kDuplicateId), 1u);
  EXPECT_EQ(result.report.repaired(), 1u);
  ASSERT_EQ(result.db.servers().size(), 1u);
  EXPECT_EQ(result.db.servers()[0].cpu_count, 4);  // first row won
}

TEST_F(SanitizeTest, UnknownMachineTypeQuarantinedWithCascade) {
  write(kServersFile,
        "0,PM,0,4,8.000,,,,0\n"
        "1,mainframe,0,4,8.000,,,,0\n");
  const auto win = ticket_window();
  // A crash ticket on the quarantined server is a cascade, not a defect.
  write(kTicketsFile, ticket_row(0, "0", 1, 1, "software", win.begin + 100,
                                 win.begin + 200));
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kUnknownEnum), 1u);
  EXPECT_EQ(result.report.count(DefectClass::kOrphanReference), 0u);
  EXPECT_EQ(result.report.cascade_drops, 1u);
  EXPECT_EQ(result.db.servers().size(), 1u);
  EXPECT_TRUE(result.db.tickets().empty());
}

TEST_F(SanitizeTest, OrphanCrashTicketDroppedBackgroundReferenceCleared) {
  write_one_server();
  const auto win = ticket_window();
  write(kTicketsFile,
        ticket_row(0, "0", 77, 1, "software", win.begin + 100,
                   win.begin + 200) +            // orphan crash: dropped
            ticket_row(1, "", 77, 0, "other", win.begin + 100,
                       win.begin + 200));        // orphan background: kept
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kOrphanReference), 2u);
  ASSERT_EQ(result.db.tickets().size(), 1u);
  EXPECT_FALSE(result.db.tickets()[0].is_crash);
  EXPECT_FALSE(result.db.tickets()[0].server.valid());
  EXPECT_EQ(result.report.rows_dropped(kTicketsFile), 1u);
}

TEST_F(SanitizeTest, CrashTicketWithoutIncidentGetsFreshId) {
  write_one_server();
  const auto win = ticket_window();
  write(kTicketsFile, ticket_row(0, "", 0, 1, "software", win.begin + 100,
                                 win.begin + 200));
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kOrphanReference), 1u);
  EXPECT_EQ(result.report.repaired(), 1u);
  ASSERT_EQ(result.db.tickets().size(), 1u);
  EXPECT_TRUE(result.db.tickets()[0].incident.valid());
}

TEST_F(SanitizeTest, DuplicateTicketIdKeepsFirstOccurrence) {
  write_one_server();
  const auto win = ticket_window();
  write(kTicketsFile,
        ticket_row(0, "0", 0, 1, "software", win.begin + 100,
                   win.begin + 200) +
            ticket_row(0, "1", 0, 1, "network", win.begin + 300,
                       win.begin + 400));
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kDuplicateId), 1u);
  ASSERT_EQ(result.db.tickets().size(), 1u);
  EXPECT_EQ(result.db.tickets()[0].opened, win.begin + 100);
}

TEST_F(SanitizeTest, EndBeforeOpenQuarantined) {
  write_one_server();
  const auto win = ticket_window();
  write(kTicketsFile, ticket_row(0, "0", 0, 1, "software", win.begin + 200,
                                 win.begin + 100));
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kEndBeforeOpen), 1u);
  EXPECT_EQ(result.report.quarantined(), 1u);
  EXPECT_TRUE(result.db.tickets().empty());
  EXPECT_EQ(result.report.quarantined_rows(kTicketsFile),
            std::vector<std::size_t>{1});
}

TEST_F(SanitizeTest, OutOfWindowTicketClippedPreservingRepairDuration) {
  write_one_server();
  const auto win = ticket_window();
  const Duration repair = 2 * kMinutesPerHour;
  const TimePoint early = win.begin - from_days(10);
  write(kTicketsFile,
        ticket_row(0, "0", 0, 1, "software", early, early + repair));
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kOutOfWindowTimestamp), 1u);
  ASSERT_EQ(result.db.tickets().size(), 1u);
  const Ticket& t = result.db.tickets()[0];
  EXPECT_EQ(t.opened, win.begin);
  EXPECT_EQ(t.closed - t.opened, repair);
}

TEST_F(SanitizeTest, TicketClosingPastWindowEndIsNotADefect) {
  // Simulated tickets legitimately close after the observation window
  // (repairs in flight at the cutoff); only `opened` is window-checked.
  write_one_server();
  const auto win = ticket_window();
  write(kTicketsFile, ticket_row(0, "0", 0, 1, "software", win.end - 10,
                                 win.end + kMinutesPerDay));
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.total_defects(), 0u);
  EXPECT_EQ(result.db.tickets().size(), 1u);
}

TEST_F(SanitizeTest, UnknownFailureClassReassignedToOther) {
  write_one_server();
  const auto win = ticket_window();
  write(kTicketsFile, ticket_row(0, "0", 0, 1, "gremlins", win.begin + 100,
                                 win.begin + 200));
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kUnknownEnum), 1u);
  EXPECT_EQ(result.report.repaired(), 1u);
  ASSERT_EQ(result.db.tickets().size(), 1u);
  EXPECT_EQ(result.db.tickets()[0].true_class, FailureClass::kOther);
}

TEST_F(SanitizeTest, UnparseableTicketFieldQuarantined) {
  write_one_server();
  write(kTicketsFile, "0,0,0,0,notabool,software,100,200,desc,res\n");
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kUnparseableField), 1u);
  EXPECT_TRUE(result.db.tickets().empty());
}

TEST_F(SanitizeTest, WrongArityQuarantined) {
  write_one_server();
  write(kTicketsFile, "0,0\n");
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kUnparseableField), 1u);
  const auto& d = result.report.defects[0];
  EXPECT_EQ(d.file, kTicketsFile);
  EXPECT_EQ(d.row, 1u);
  EXPECT_EQ(d.action, DefectAction::kQuarantined);
}

TEST_F(SanitizeTest, NonFiniteUsageDistinctFromUnparseable) {
  write_one_server();
  write(kWeeklyUsageFile,
        "0,0,nan,10.0,,\n"    // parses, non-finite
        "0,1,bogus,10.0,,\n"  // does not parse
        "0,2,12.5,10.0,,\n");
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kNonFiniteNumeric), 1u);
  EXPECT_EQ(result.report.count(kWeeklyUsageFile,
                                DefectClass::kUnparseableField),
            1u);
  EXPECT_EQ(result.report.rows_kept(kWeeklyUsageFile), 1u);
}

TEST_F(SanitizeTest, TruncatedSeriesToleratedButRecorded) {
  write(kServersFile,
        "0,PM,0,4,8.000,,,,0\n"
        "1,PM,0,4,8.000,,,,0\n");
  // Server 0's series stops at week 5; server 1 has no series at all (not
  // a truncation — it was never monitored).
  std::string rows;
  for (int w = 0; w <= 5; ++w) {
    rows += "0," + std::to_string(w) + ",10.0,10.0,,\n";
  }
  write(kWeeklyUsageFile, rows);
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kTruncatedSeries), 1u);
  // Rows are kept: the gap is recorded, not repaired away.
  EXPECT_EQ(result.report.rows_kept(kWeeklyUsageFile), 6u);
  EXPECT_EQ(result.db.weekly_usage_for(ServerId{0}).size(), 6u);
}

TEST_F(SanitizeTest, OutOfRangeWeekQuarantined) {
  write_one_server();
  write(kWeeklyUsageFile, "0,9999,10.0,10.0,,\n");
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kOutOfWindowTimestamp), 1u);
  EXPECT_EQ(result.report.rows_kept(kWeeklyUsageFile), 0u);
}

TEST_F(SanitizeTest, PowerEventClippedIntoMonitoringCoverage) {
  write_one_server();
  const auto monitoring = monitoring_window();
  write(kPowerEventsFile,
        std::to_string(0) + "," + std::to_string(monitoring.end + 500) +
            ",1\n");
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kOutOfWindowTimestamp), 1u);
  EXPECT_EQ(result.report.repaired(), 1u);
  ASSERT_EQ(result.db.power_events_for(ServerId{0}).size(), 1u);
  EXPECT_TRUE(monitoring.contains(
      result.db.power_events_for(ServerId{0})[0].at));
}

TEST_F(SanitizeTest, InvalidConsolidationQuarantined) {
  write_one_server();
  write(kSnapshotsFile, "0,1,,0\n");
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kUnparseableField), 1u);
  EXPECT_TRUE(result.db.snapshots_for(ServerId{0}).empty());
}

TEST_F(SanitizeTest, BadMetaRowFallsBackWithoutAborting) {
  write(kMetaFile,
        "ticket,notanumber,100\n"
        "solstice,0,100\n");
  write_one_server();
  const auto result = fa::testing::load_lenient(dir());
  EXPECT_EQ(result.report.count(DefectClass::kUnparseableField), 1u);
  EXPECT_EQ(result.report.count(DefectClass::kUnknownEnum), 1u);
  // Defaults survive the bad rows.
  EXPECT_EQ(result.db.window().begin, ticket_window().begin);
}

TEST_F(SanitizeTest, CountsCsvListsEveryClassInEnumOrder) {
  const auto result = fa::testing::load_lenient(dir());
  const auto lines = split(result.report.counts_csv(), '\n');
  ASSERT_GE(lines.size(), 1u + kAllDefectClasses.size());
  EXPECT_EQ(lines[0], "class,count");
  for (std::size_t i = 0; i < kAllDefectClasses.size(); ++i) {
    EXPECT_EQ(lines[i + 1],
              std::string(to_string(kAllDefectClasses[i])) + ",0");
  }
}

TEST_F(SanitizeTest, MissingTableStillThrows) {
  std::filesystem::remove(dir() + "/" + kTicketsFile);
  EXPECT_THROW(fa::testing::load_lenient(dir()), Error);
}

TEST_F(SanitizeTest, AnalyzeLenientReportsDroppedTickets) {
  auto config = fa::sim::SimulationConfig::paper_defaults().scaled(0.05);
  save_database(fa::sim::simulate(config), dir());
  // Append a quarantinable row (end before open) and a repairable one.
  {
    std::ofstream out(dir() + "/" + kTicketsFile, std::ios::app);
    out << "999999,,0,0,0,other,2000,1000,desc,res\n";
  }
  const auto result = fa::analysis::analyze_lenient(dir());
  EXPECT_EQ(result.tickets_dropped, 1u);
  EXPECT_EQ(result.report.count(DefectClass::kEndBeforeOpen), 1u);
  EXPECT_FALSE(result.pipeline->failures().empty());
  // Strict loading of the same directory fails fast.
  EXPECT_THROW(load_database(dir()), Error);
}

}  // namespace
}  // namespace fa::trace

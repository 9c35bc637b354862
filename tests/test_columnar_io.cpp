#include "src/trace/columnar_io.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/out_of_core.h"
#include "src/inject/corruptor.h"
#include "src/sim/simulator.h"
#include "src/trace/csv_io.h"
#include "src/trace/filters.h"
#include "src/trace/sanitize.h"
#include "src/trace/trace_writer.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace fa::trace {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Field-by-field record equality between two finalized databases.
void expect_databases_equal(const TraceDatabase& a, const TraceDatabase& b) {
  EXPECT_EQ(a.window().begin, b.window().begin);
  EXPECT_EQ(a.window().end, b.window().end);
  EXPECT_EQ(a.monitoring().begin, b.monitoring().begin);
  EXPECT_EQ(a.monitoring().end, b.monitoring().end);
  EXPECT_EQ(a.onoff_tracking().begin, b.onoff_tracking().begin);
  EXPECT_EQ(a.onoff_tracking().end, b.onoff_tracking().end);

  ASSERT_EQ(a.servers().size(), b.servers().size());
  for (std::size_t i = 0; i < a.servers().size(); ++i) {
    const ServerRecord& x = a.servers()[i];
    const ServerRecord& y = b.servers()[i];
    ASSERT_EQ(x.id, y.id);
    ASSERT_EQ(x.type, y.type);
    ASSERT_EQ(x.subsystem, y.subsystem);
    ASSERT_EQ(x.cpu_count, y.cpu_count);
    ASSERT_EQ(x.memory_gb, y.memory_gb);
    ASSERT_EQ(x.disk_gb, y.disk_gb);
    ASSERT_EQ(x.disk_count, y.disk_count);
    ASSERT_EQ(x.host_box, y.host_box);
    ASSERT_EQ(x.first_record, y.first_record);
  }
  ASSERT_EQ(a.tickets().size(), b.tickets().size());
  for (std::size_t i = 0; i < a.tickets().size(); ++i) {
    const Ticket& x = a.tickets()[i];
    const Ticket& y = b.tickets()[i];
    ASSERT_EQ(x.id, y.id);
    ASSERT_EQ(x.incident, y.incident);
    ASSERT_EQ(x.server, y.server);
    ASSERT_EQ(x.subsystem, y.subsystem);
    ASSERT_EQ(x.is_crash, y.is_crash);
    ASSERT_EQ(x.true_class, y.true_class);
    ASSERT_EQ(x.opened, y.opened);
    ASSERT_EQ(x.closed, y.closed);
    ASSERT_EQ(x.description, y.description);
    ASSERT_EQ(x.resolution, y.resolution);
  }
  for (const ServerRecord& s : a.servers()) {
    const auto ua = a.weekly_usage_for(s.id);
    const auto ub = b.weekly_usage_for(s.id);
    ASSERT_EQ(ua.size(), ub.size());
    for (std::size_t i = 0; i < ua.size(); ++i) {
      ASSERT_EQ(ua[i].week, ub[i].week);
      ASSERT_EQ(ua[i].cpu_util, ub[i].cpu_util);
      ASSERT_EQ(ua[i].mem_util, ub[i].mem_util);
      ASSERT_EQ(ua[i].disk_util, ub[i].disk_util);
      ASSERT_EQ(ua[i].net_kbps, ub[i].net_kbps);
    }
    const auto pa = a.power_events_for(s.id);
    const auto pb = b.power_events_for(s.id);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i].at, pb[i].at);
      ASSERT_EQ(pa[i].powered_on, pb[i].powered_on);
    }
    const auto sa = a.snapshots_for(s.id);
    const auto sb = b.snapshots_for(s.id);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i].month, sb[i].month);
      ASSERT_EQ(sa[i].box, sb[i].box);
      ASSERT_EQ(sa[i].consolidation, sb[i].consolidation);
    }
  }
  EXPECT_EQ(a.incidents().size(), b.incidents().size());
}

class ColumnarIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fa_columnar_io_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(ColumnarIoTest, IsColumnarFileDetection) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"));
  EXPECT_TRUE(is_columnar_file(path("trace.fac")));

  save_database(db, path("csvdir"));
  EXPECT_FALSE(is_columnar_file(path("csvdir")));
  EXPECT_FALSE(is_columnar_file(path("csvdir") + "/tickets.csv"));
  EXPECT_FALSE(is_columnar_file(path("missing.fac")));
}

// The tentpole acceptance check: CSV -> columnar -> CSV is byte-exact.
TEST_F(ColumnarIoTest, CsvColumnarCsvRoundTripIsByteExact) {
  save_database(fa::testing::small_simulated_db(), path("in"));

  const TraceDatabase from_csv = load_database(path("in"));
  save_columnar(from_csv, path("trace.fac"));
  const TraceDatabase from_fac = load_columnar(path("trace.fac"));
  save_database(from_fac, path("out"));

  for (const char* file :
       {"meta.csv", "servers.csv", "tickets.csv", "weekly_usage.csv",
        "power_events.csv", "snapshots.csv"}) {
    EXPECT_EQ(read_file(dir_ / "in" / file), read_file(dir_ / "out" / file))
        << file << " changed across the columnar round trip";
  }
}

TEST_F(ColumnarIoTest, LoadColumnarPreservesEveryRecord) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"));
  const TraceDatabase loaded = load_columnar(path("trace.fac"));
  EXPECT_TRUE(loaded.finalized());
  expect_databases_equal(db, loaded);
}

TEST_F(ColumnarIoTest, SmallChunksRoundTripAcrossManyChunks) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  const FileReport report = save_columnar(db, path("tiny.fac"), 64);

  ChunkReader reader(path("tiny.fac"));
  EXPECT_GT(reader.chunk_count(columnar::Table::kTickets), 1u);
  EXPECT_EQ(reader.row_count(columnar::Table::kTickets), db.tickets().size());
  EXPECT_EQ(report.rows[static_cast<int>(columnar::Table::kServers)],
            db.servers().size());

  expect_databases_equal(db, load_columnar(path("tiny.fac")));
}

TEST_F(ColumnarIoTest, CustomWindowsAndIncidentCounterRoundTrip) {
  TraceDatabase db;
  const ObservationWindow monitoring{0, 1000 * kMinutesPerDay};
  const ObservationWindow ticket{100 * kMinutesPerDay, 600 * kMinutesPerDay};
  const ObservationWindow onoff{200 * kMinutesPerDay, 260 * kMinutesPerDay};
  db.set_windows(ticket, monitoring, onoff);
  ServerRecord s;
  s.type = MachineType::kPhysical;
  s.first_record = monitoring.begin;
  const ServerId server = db.add_server(s);
  Ticket t;
  t.incident = db.new_incident();
  t.server = server;
  t.is_crash = true;
  t.opened = ticket.begin + from_days(1.0);
  t.closed = t.opened + from_hours(2.0);
  db.add_ticket(std::move(t));
  db.finalize();

  save_columnar(db, path("tiny.fac"));
  ChunkReader reader(path("tiny.fac"));
  EXPECT_EQ(reader.window().begin, ticket.begin);
  EXPECT_EQ(reader.window().end, ticket.end);
  EXPECT_EQ(reader.monitoring().end, monitoring.end);
  EXPECT_EQ(reader.onoff_tracking().begin, onoff.begin);
  EXPECT_EQ(reader.next_incident(), 1);

  const TraceDatabase loaded = load_columnar(path("tiny.fac"));
  EXPECT_EQ(loaded.window().begin, ticket.begin);
  EXPECT_EQ(loaded.onoff_tracking().end, onoff.end);
  // The loaded database hands out fresh incident ids above the persisted
  // counter (no reuse after a round trip).
  TraceDatabase reopened = load_columnar(path("tiny.fac"));
  EXPECT_EQ(reopened.new_incident(), IncidentId{1});
}

TEST_F(ColumnarIoTest, MmapAndBufferedReadsAreEquivalent) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"), 256);

  ChunkReader mapped(path("trace.fac"), /*use_mmap=*/true);
  ChunkReader buffered(path("trace.fac"), /*use_mmap=*/false);
  EXPECT_TRUE(mapped.mmapped());
  EXPECT_FALSE(buffered.mmapped());

  for (columnar::Table table : columnar::kAllTables) {
    ASSERT_EQ(mapped.chunk_count(table), buffered.chunk_count(table));
    for (std::size_t c = 0; c < mapped.chunk_count(table); ++c) {
      const columnar::ChunkView va = mapped.chunk(table, c);
      const columnar::ChunkView vb = buffered.chunk(table, c);
      ASSERT_EQ(va.rows(), vb.rows());
      ASSERT_EQ(va.column_count(), vb.column_count());
    }
  }

  expect_databases_equal(load_columnar(path("trace.fac"), true),
                         load_columnar(path("trace.fac"), false));
}

TEST_F(ColumnarIoTest, TruncatedFilesAreRejected) {
  save_columnar(fa::testing::small_simulated_db(), path("trace.fac"), 512);
  const std::string bytes = read_file(dir_ / "trace.fac");
  ASSERT_GT(bytes.size(), 64u);

  // Truncation points: empty, header only, mid-chunk, mid-footer, one byte
  // short of a valid tail.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, bytes.size() / 2, bytes.size() - 16,
        bytes.size() - 1}) {
    write_file(dir_ / "cut.fac", bytes.substr(0, keep));
    EXPECT_THROW(ChunkReader reader(path("cut.fac")), Error)
        << "accepted a file truncated to " << keep << " bytes";
  }
}

TEST_F(ColumnarIoTest, CorruptChunkFailsItsChecksum) {
  save_columnar(fa::testing::small_simulated_db(), path("trace.fac"), 512);
  std::string bytes = read_file(dir_ / "trace.fac");

  ChunkReader clean(path("trace.fac"));
  const columnar::ChunkInfo& first =
      clean.chunk_info(columnar::Table::kServers, 0);
  // Flip one bit inside the first server chunk's payload. The footer still
  // parses, so the reader opens — the chunk read must fail its checksum.
  bytes[first.offset + first.size / 2] ^= 0x01;
  write_file(dir_ / "bad.fac", bytes);

  ChunkReader reader(path("bad.fac"));
  EXPECT_THROW(reader.chunk(columnar::Table::kServers, 0), Error);
  EXPECT_THROW(load_columnar(path("bad.fac")), Error);
}

TEST_F(ColumnarIoTest, CorruptFooterIsRejectedAtOpen) {
  save_columnar(fa::testing::small_simulated_db(), path("trace.fac"));
  std::string bytes = read_file(dir_ / "trace.fac");
  // The footer payload sits just before the 24-byte tail.
  bytes[bytes.size() - 32] ^= 0x01;
  write_file(dir_ / "bad.fac", bytes);
  EXPECT_THROW(ChunkReader reader(path("bad.fac")), Error);
}

TEST_F(ColumnarIoTest, WrongMagicIsRejected) {
  write_file(dir_ / "bogus.fac", std::string(64, 'x'));
  EXPECT_FALSE(is_columnar_file(path("bogus.fac")));
  EXPECT_THROW(ChunkReader reader(path("bogus.fac")), Error);
  EXPECT_THROW(load_columnar(path("bogus.fac")), Error);
}

TEST_F(ColumnarIoTest, UnfinishedWriterLeavesUnreadableFile) {
  {
    ColumnarWriter writer(path("partial.fac"));
    ServerRecord s;
    s.type = MachineType::kPhysical;
    writer.add_server(s);
    // No finish(): no footer, no tail.
  }
  EXPECT_THROW(ChunkReader reader(path("partial.fac")), Error);
}

TEST_F(ColumnarIoTest, ReaderReportMatchesWriterReport) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  const FileReport written = save_columnar(db, path("trace.fac"), 1024);
  const FileReport read = ChunkReader(path("trace.fac")).report();

  EXPECT_EQ(written.rows, read.rows);
  EXPECT_EQ(written.chunks, read.chunks);
  EXPECT_EQ(written.data_bytes, read.data_bytes);
  EXPECT_EQ(written.footer_bytes, read.footer_bytes);
  ASSERT_EQ(written.columns.size(), read.columns.size());
  for (std::size_t i = 0; i < written.columns.size(); ++i) {
    EXPECT_EQ(written.columns[i].name, read.columns[i].name);
    EXPECT_EQ(written.columns[i].bytes, read.columns[i].bytes);
    EXPECT_EQ(written.columns[i].dict_entries, read.columns[i].dict_entries);
  }
}

// The streamed writer must emit bit-identical files at any --threads.
TEST_F(ColumnarIoTest, StreamedWritesAreThreadCountDeterministic) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.05);

  ThreadPool::set_default_thread_count(1);
  {
    ColumnarTraceWriter writer(path("t1.fac"));
    sim::simulate_to(config, writer);
  }
  ThreadPool::set_default_thread_count(8);
  {
    ColumnarTraceWriter writer(path("t8.fac"));
    sim::simulate_to(config, writer);
  }
  ThreadPool::set_default_thread_count(0);

  const std::string a = read_file(dir_ / "t1.fac");
  const std::string b = read_file(dir_ / "t8.fac");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "streamed columnar output depends on thread count";
}

// A batch ticket commit encodes its columns in parallel; the bytes must be
// identical to the equivalent sequence of per-ticket appends at any thread
// count, including batches that straddle chunk boundaries.
TEST_F(ColumnarIoTest, BatchTicketCommitIsByteIdenticalToPerTicket) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  ASSERT_GT(db.tickets().size(), 256u);  // several 256-row chunks

  {
    ColumnarWriter writer(path("single.fac"), 256);
    for (const Ticket& t : db.tickets()) writer.add_ticket(t);
    writer.finish();
  }
  const std::string reference = read_file(dir_ / "single.fac");
  ASSERT_FALSE(reference.empty());

  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadPool::set_default_thread_count(threads);
    const std::string name = "batch" + std::to_string(threads) + ".fac";
    ColumnarWriter writer(path(name), 256);
    writer.add_tickets(db.tickets());
    writer.finish();
    EXPECT_EQ(read_file(dir_ / name), reference)
        << "batch commit bytes diverge at " << threads << " threads";
  }
  ThreadPool::set_default_thread_count(0);
}

// Forwards every row to `inner` through its per-row entry points and
// overrides only the per-row hooks, as perfbench's TimedTraceWriter does:
// span commits reach it through the base class's row-by-row defaults.
class PerRowWriter final : public TraceWriter {
 public:
  explicit PerRowWriter(TraceWriter& inner) : inner_(inner) {}

  IncidentId new_incident() override { return inner_.new_incident(); }
  void set_windows(ObservationWindow ticket, ObservationWindow monitoring,
                   ObservationWindow onoff_tracking) override {
    inner_.set_windows(ticket, monitoring, onoff_tracking);
  }
  void finish() override { inner_.finish(); }

 protected:
  void do_add_server(const ServerRecord& record) override {
    inner_.add_server(record);
  }
  void do_add_ticket(Ticket ticket) override {
    inner_.add_ticket(std::move(ticket));
  }
  void do_add_weekly_usage(const WeeklyUsage& usage) override {
    inner_.add_weekly_usage(usage);
  }
  void do_add_power_event(const PowerEvent& event) override {
    inner_.add_power_event(event);
  }
  void do_add_monthly_snapshot(const MonthlySnapshot& snapshot) override {
    inner_.add_monthly_snapshot(snapshot);
  }

 private:
  TraceWriter& inner_;
};

// The simulator commits spans; a sink that takes them row by row must end
// with the same file at any chunk size (slices cut at 1 and 7 rows, mid
// chunk, and at the default) and the same database.
TEST_F(ColumnarIoTest, SpanCommitsMatchPerRowHooks) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.02);
  for (const std::uint32_t chunk_rows : {1u, 7u, 256u, kDefaultChunkRows}) {
    {
      ColumnarTraceWriter writer(path("span.fac"), chunk_rows);
      sim::simulate_to(config, writer);
    }
    {
      ColumnarTraceWriter inner(path("rows.fac"), chunk_rows);
      PerRowWriter writer(inner);
      sim::simulate_to(config, writer);
    }
    const std::string span_bytes = read_file(dir_ / "span.fac");
    ASSERT_FALSE(span_bytes.empty());
    EXPECT_TRUE(span_bytes == read_file(dir_ / "rows.fac"))
        << "span and per-row commits differ at " << chunk_rows
        << "-row chunks";
  }

  TraceDatabase by_span, by_row;
  {
    DatabaseTraceWriter writer(by_span);
    sim::simulate_to(config, writer);
  }
  {
    DatabaseTraceWriter inner(by_row);
    PerRowWriter writer(inner);
    sim::simulate_to(config, writer);
  }
  by_span.finalize();
  by_row.finalize();
  ASSERT_GT(by_span.weekly_usage().size(), 0u);
  expect_databases_equal(by_span, by_row);
}

// Tickets whose text exercises every dictionary path at 1,500-row chunks:
// empty strings, values repeated within a chunk and across chunk
// boundaries, more than 1,024 distinct values in one chunk (the lookup
// table grows), bytes >= 0x80 and an embedded NUL. The tickets view text
// in `text`.
struct EdgeTickets {
  std::vector<Ticket> tickets;
  TextArena text;
};
EdgeTickets dictionary_edge_tickets() {
  const std::string specials[] = {"", std::string("nul\0inside", 10),
                                  "caf\xc3\xa9 \xff\x80", "disk failure"};
  EdgeTickets edge;
  std::vector<Ticket>& tickets = edge.tickets;
  tickets.resize(3100);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    Ticket& t = tickets[i];
    t.server = ServerId{static_cast<std::int32_t>(i % 3)};
    t.subsystem = static_cast<Subsystem>(i % kSubsystemCount);
    t.is_crash = i % 50 == 0;
    if (t.is_crash) t.incident = IncidentId{static_cast<std::int32_t>(i / 50)};
    t.true_class = kAllFailureClasses[i % kAllFailureClasses.size()];
    t.opened = ticket_window().begin + static_cast<TimePoint>(i) * 60;
    t.closed = t.opened + 30 + static_cast<Duration>(i % 7);
    t.description = edge.text.store(
        i % 100 == 0 ? specials[(i / 100) % 4]
                     : "event " + std::to_string(i % 1500));
    t.resolution = edge.text.store(specials[i % 4]);
  }
  return edge;
}

// Pins the encoder's output bytes: the other byte-identity tests compare
// two write paths of the same build, which an encoder change shared by
// both would pass. A change to the constants is a change to the file
// format (docs/SCHEMA.md).
TEST_F(ColumnarIoTest, DictionaryEdgeCasesEncodeToPinnedBytes) {
  constexpr std::uint64_t kPinnedSize = 151259;
  constexpr std::uint64_t kPinnedDigest = 0x55c6038218c0be5fULL;
  const EdgeTickets edge = dictionary_edge_tickets();
  const std::vector<Ticket>& tickets = edge.tickets;
  const auto write = [&](const std::string& name, bool batch) {
    ColumnarWriter writer(path(name), 1500);
    for (int s = 0; s < 3; ++s) {
      ServerRecord server;
      server.subsystem = static_cast<Subsystem>(s);
      writer.add_server(server);
    }
    writer.set_next_incident(62);
    if (batch) {
      writer.add_tickets(tickets);
    } else {
      for (const Ticket& t : tickets) writer.add_ticket(t);
    }
    writer.finish();
    return read_file(dir_ / name);
  };

  for (const bool batch : {false, true}) {
    const std::string name = batch ? "batch.fac" : "single.fac";
    const std::string bytes = write(name, batch);
    EXPECT_EQ(bytes.size(), kPinnedSize) << name;
    EXPECT_EQ(columnar::fnv1a(reinterpret_cast<const std::byte*>(bytes.data()),
                              bytes.size()),
              kPinnedDigest)
        << name;
    const TraceDatabase db = load_columnar(path(name));
    ASSERT_EQ(db.tickets().size(), tickets.size()) << name;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      ASSERT_EQ(db.tickets()[i].description, tickets[i].description)
          << name << " ticket " << i;
      ASSERT_EQ(db.tickets()[i].resolution, tickets[i].resolution)
          << name << " ticket " << i;
    }
  }
}

// Pins the whole codec: every table of a simulated trace at 256-row
// chunks, so the file holds presence bitmaps (VM-only optional columns),
// dictionaries, all five tables and a partial final chunk in each. The
// constants were recorded from the per-value encoder; a change to them is
// a change to the file format (docs/SCHEMA.md).
TEST_F(ColumnarIoTest, AllTablesEncodeToPinnedBytes) {
  constexpr std::uint64_t kPinnedSize = 4985877;
  constexpr std::uint64_t kPinnedDigest = 0xf662c3e31056822dULL;
  const FileReport report =
      save_columnar(fa::testing::small_simulated_db(), path("all.fac"), 256);
  for (columnar::Table table : columnar::kAllTables) {
    const auto t = static_cast<std::size_t>(table);
    EXPECT_GT(report.chunks[t], 1u) << columnar::table_name(table);
    EXPECT_NE(report.rows[t] % 256, 0u) << columnar::table_name(table);
  }
  const std::string bytes = read_file(dir_ / "all.fac");
  EXPECT_EQ(bytes.size(), kPinnedSize);
  EXPECT_EQ(columnar::fnv1a(reinterpret_cast<const std::byte*>(bytes.data()),
                            bytes.size()),
            kPinnedDigest);
}

TEST_F(ColumnarIoTest, StreamedFileMatchesInMemorySimulation) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.05);
  {
    ColumnarTraceWriter writer(path("stream.fac"));
    sim::simulate_to(config, writer);
  }
  expect_databases_equal(sim::simulate(config),
                         load_columnar(path("stream.fac")));
}

// ---- predicate pushdown (filters.h) ----

TEST_F(ColumnarIoTest, PushdownScanMatchesInMemoryFilter) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"), 256);
  ChunkReader reader(path("trace.fac"));

  const ObservationWindow& w = db.window();
  const std::vector<TicketFilter> filters = {
      TicketFilter{},
      TicketFilter{}.crash_only(),
      TicketFilter{}.crash_only().subsystem(Subsystem{2}),
      TicketFilter{}.machine_type(MachineType::kVirtual),
      TicketFilter{}.opened_between(w.begin, w.begin + w.length() / 4),
      TicketFilter{}.server(db.servers().front().id),
      TicketFilter{}.crash_only().repair_at_least(from_hours(4.0)),
  };
  for (const TicketFilter& filter : filters) {
    const std::vector<const Ticket*> expected = filter.apply(db);
    const ScannedTickets scanned = filter.scan_columnar(reader);
    const std::vector<Ticket>& actual = scanned.tickets;
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i]->id);
      EXPECT_EQ(actual[i].opened, expected[i]->opened);
      EXPECT_EQ(actual[i].description, expected[i]->description);
    }
  }
}

TEST_F(ColumnarIoTest, PushdownSkipsChunksThatCannotMatch) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"), 128);
  ChunkReader reader(path("trace.fac"));

  // A time range past the observation window cannot match any chunk.
  const TicketFilter none =
      TicketFilter{}.opened_between(db.window().end + from_days(1.0),
                                    db.window().end + from_days(2.0));
  std::size_t skipped = 0;
  const std::size_t chunks = reader.chunk_count(columnar::Table::kTickets);
  for (std::size_t c = 0; c < chunks; ++c) {
    skipped +=
        !none.chunk_may_match(reader.chunk_info(columnar::Table::kTickets, c));
  }
  EXPECT_EQ(skipped, chunks);
  EXPECT_TRUE(none.scan_columnar(reader).tickets.empty());

  // A single-server predicate must skip at least the chunks whose id range
  // excludes that server (tickets are appended roughly in time order, but
  // min/max still prune the low-id prefix chunks for a high server id).
  const TicketFilter one = TicketFilter{}.server(db.servers().back().id);
  std::size_t may_match = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    may_match +=
        one.chunk_may_match(reader.chunk_info(columnar::Table::kTickets, c));
  }
  EXPECT_LE(may_match, chunks);
}

// ---- resident memory of chunk walks ----

// Resident file-backed memory of this process in KB (RssFile in
// /proc/self/status, Linux 4.5 on), or -1 where the kernel does not
// report it.
long rss_file_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssFile:", 0) == 0) return std::stol(line.substr(8));
  }
  return -1;
}

// A mapped chunk is released once a walk is done with it, so a full walk
// and a pushdown scan each leave about one chunk resident, not the file.
// The default chunk size matters: the kernel maps pages around each fault
// (fault-around), and with 8,192-row chunks the pages this brings back
// next to already released chunks add up to about 1.3 MB, more than half
// of such a chunk.
TEST_F(ColumnarIoTest, ChunkWalksKeepOneChunkResident) {
  {
    ColumnarTraceWriter writer(path("trace.fac"));
    sim::simulate_to(sim::SimulationConfig::paper_defaults().scaled(0.5),
                     writer);
  }
  const auto walk_every_table = [](const ChunkReader& reader) {
    for (const columnar::Table table : columnar::kAllTables) {
      for_each_chunk(reader, table, nullptr,
                     [](const columnar::ChunkView&, std::int64_t) {});
    }
  };
  std::uint64_t largest_chunk = 0;
  {
    // Warm the decode path, so that neither measurement below pays for
    // first-touched code pages.
    const ChunkReader warm(path("trace.fac"));
    for (const columnar::Table table : columnar::kAllTables) {
      for (std::size_t i = 0; i < warm.chunk_count(table); ++i) {
        largest_chunk =
            std::max(largest_chunk, warm.chunk_info(table, i).size);
      }
    }
    walk_every_table(warm);
    TicketFilter().scan_columnar(warm);
  }
  ASSERT_GT(largest_chunk, 1u << 20);
  ASSERT_GE(rss_file_kb(), 0) << "no RssFile in /proc/self/status";
  const long bound_kb = static_cast<long>(largest_chunk / 2 / 1024);

  const long before_walk = rss_file_kb();
  const ChunkReader walked(path("trace.fac"));
  ASSERT_TRUE(walked.mmapped());
  walk_every_table(walked);
  EXPECT_LT(rss_file_kb() - before_walk, bound_kb)
      << "a walk over " << fs::file_size(path("trace.fac")) << " B";

  const long before_scan = rss_file_kb();
  const ChunkReader scanned(path("trace.fac"));
  ASSERT_FALSE(TicketFilter().scan_columnar(scanned).tickets.empty());
  EXPECT_LT(rss_file_kb() - before_scan, bound_kb)
      << "a scan of " << scanned.row_count(columnar::Table::kTickets)
      << " tickets";
}

// ---- rows at their data size, and the lifetime of their text ----

// A ticket is its scalars and two text views; a usage row holds its two
// optional measurements in 8 bytes each (NaN marks the absent value).
static_assert(sizeof(Ticket) == 64);
static_assert(sizeof(WeeklyUsage) == 40);
// A copy would view the source's text arena, so there is none.
static_assert(!std::is_copy_constructible_v<TraceDatabase>);
static_assert(std::is_nothrow_move_constructible_v<TraceDatabase>);

// The loaded database's heap is its rows, each ticket chunk's two text
// dictionaries (copied in once), the per-server indexes and 1 MB. A heap
// string per text field would overshoot this by the allocator's
// per-string cost.
TEST_F(ColumnarIoTest, LoadedRowsStayAtTheirDataSize) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "the sanitizer's allocator does not report mallinfo2";
#endif
  {
    ColumnarTraceWriter writer(path("trace.fac"));
    sim::simulate_to(sim::SimulationConfig::paper_defaults().scaled(0.5),
                     writer);
  }
  using columnar::Table;
  std::uint64_t dictionary_bytes = 0;
  std::uint64_t crash_tickets = 0;
  std::uint64_t row_bytes = 0;
  std::uint64_t servers = 0;
  {
    const ChunkReader reader(path("trace.fac"));
    for_each_chunk(reader, Table::kTickets, nullptr,
                   [&](const columnar::ChunkView& view, std::int64_t) {
                     using namespace columnar::col;
                     dictionary_bytes +=
                         view.column(kTicketDescription).dictionary().size() +
                         view.column(kTicketResolution).dictionary().size();
                     for (std::uint8_t c :
                          view.column(kTicketIsCrash).u8_span()) {
                       crash_tickets += c;
                     }
                   });
    servers = reader.row_count(Table::kServers);
    row_bytes =
        servers * sizeof(ServerRecord) +
        reader.row_count(Table::kTickets) * sizeof(Ticket) +
        reader.row_count(Table::kWeeklyUsage) * sizeof(WeeklyUsage) +
        reader.row_count(Table::kPowerEvents) * sizeof(PowerEvent) +
        reader.row_count(Table::kSnapshots) * sizeof(MonthlySnapshot);
  }
  // Four dense offset arrays (servers + 1 entries each) and one position
  // per crash ticket.
  const std::uint64_t index_bytes =
      (4 * (servers + 1) + crash_tickets) * sizeof(std::size_t);
  const auto heap_bytes = [] {
    const struct mallinfo2 info = mallinfo2();
    return static_cast<std::uint64_t>(info.uordblks + info.hblkhd);
  };

  const std::uint64_t before = heap_bytes();
  const TraceDatabase db = load_columnar(path("trace.fac"));
  const std::uint64_t grown = heap_bytes() - before;
  ASSERT_GT(db.tickets().size(), 0u);
  EXPECT_GE(grown, row_bytes);
  EXPECT_LE(grown, row_bytes + dictionary_bytes + index_bytes + (1u << 20))
      << "rows " << row_bytes << " B, dictionaries " << dictionary_bytes
      << " B, indexes " << index_bytes << " B";
}

// Every ticket's text lives in the database's arena, which a move hands
// over unchanged: the moved-to database reads the same text after the
// source is destroyed, for both ways text enters (copied per ticket by
// simulate(), adopted per chunk by load_columnar).
TEST_F(ColumnarIoTest, MovedDatabaseKeepsItsTicketText) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.05);
  save_columnar(sim::simulate(config), path("trace.fac"), 512);
  for (const bool loaded : {false, true}) {
    SCOPED_TRACE(loaded ? "load_columnar" : "simulate");
    std::optional<TraceDatabase> source;
    if (loaded) {
      source.emplace(load_columnar(path("trace.fac")));
    } else {
      source.emplace(sim::simulate(config));
    }
    std::vector<std::string> saved;
    for (const Ticket& t : source->tickets()) {
      saved.emplace_back(t.description);
      saved.emplace_back(t.resolution);
    }
    const TraceDatabase moved = std::move(*source);
    source.reset();
    ASSERT_EQ(moved.tickets().size() * 2, saved.size());
    for (std::size_t i = 0; i < moved.tickets().size(); ++i) {
      ASSERT_EQ(moved.tickets()[i].description, saved[2 * i]) << i;
      ASSERT_EQ(moved.tickets()[i].resolution, saved[2 * i + 1]) << i;
    }
  }
}

// A pushdown scan's tickets carry their own text, so they read the same
// after the reader (and its mapping or chunk buffers) is gone.
TEST_F(ColumnarIoTest, ScannedTicketsOutliveTheirReader) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"), 4096);
  const TicketFilter filter = TicketFilter{}.crash_only();
  const std::vector<const Ticket*> expected = filter.apply(db);
  for (const bool use_mmap : {true, false}) {
    SCOPED_TRACE(use_mmap ? "mapped" : "buffered");
    const ScannedTickets scanned = [&] {
      const ChunkReader reader(path("trace.fac"), use_mmap);
      return filter.scan_columnar(reader);
    }();
    ASSERT_EQ(scanned.tickets.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(scanned.tickets[i].description, expected[i]->description);
      ASSERT_EQ(scanned.tickets[i].resolution, expected[i]->resolution);
    }
  }
}

// ---- out-of-core aggregation (analysis/out_of_core.h) ----

TEST_F(ColumnarIoTest, OutOfCoreSummaryMatchesInMemory) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"), 512);

  const analysis::OutOfCoreSummary streamed =
      analysis::summarize_columnar(path("trace.fac"));
  const analysis::OutOfCoreSummary in_memory =
      analysis::summarize_database(db);
  EXPECT_EQ(streamed, in_memory);

  // Buffered reads must agree with the mmap path too.
  EXPECT_EQ(analysis::summarize_columnar(path("trace.fac"), false), in_memory);
}

// ---- sanitize degradation (satellite: quarantine stability) ----

// A columnar round trip must not change what the sanitizer quarantines:
// corrupting the original export and the round-tripped export with the same
// seed yields identical defect reports and quarantined row sets.
TEST_F(ColumnarIoTest, SanitizeQuarantinesSameRowsAfterColumnarRoundTrip) {
  save_database(fa::testing::small_simulated_db(), path("orig"));
  save_columnar(load_database(path("orig")), path("trace.fac"));
  save_database(load_columnar(path("trace.fac")), path("roundtrip"));

  const auto mix = fa::inject::DefectMix::uniform(0.05);
  fa::inject::corrupt_database(path("orig"), path("orig_dirty"), 11, mix);
  fa::inject::corrupt_database(path("roundtrip"), path("rt_dirty"), 11, mix);

  const SanitizedDatabase a = sanitize_database(path("orig_dirty"));
  const SanitizedDatabase b = sanitize_database(path("rt_dirty"));

  ASSERT_GT(a.report.total_defects(), 0u);
  EXPECT_EQ(a.report.counts_csv(), b.report.counts_csv());
  EXPECT_EQ(a.report.defects_csv(), b.report.defects_csv());
  for (const char* file : {"tickets.csv", "weekly_usage.csv"}) {
    EXPECT_EQ(a.report.quarantined_rows(file), b.report.quarantined_rows(file))
        << file;
  }
  expect_databases_equal(a.db, b.db);
}

}  // namespace
}  // namespace fa::trace

#include "src/trace/recovery.h"

#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/out_of_core.h"
#include "src/inject/io_faults.h"
#include "src/sim/simulator.h"
#include "src/trace/columnar_format.h"
#include "src/trace/columnar_io.h"
#include "src/trace/filters.h"
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

// A small but fully populated simulated trace (every table has rows),
// shared across the torture cases in this binary.
const TraceDatabase& torture_db() {
  static const TraceDatabase db = [] {
    return sim::simulate(sim::SimulationConfig::paper_defaults().scaled(0.02));
  }();
  return db;
}

constexpr std::uint32_t kChunkRows = 256;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fa_recovery_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Streams `db` into `name`, crashing at byte `crash_at` (never crashes
  // when < 0). Returns true when the injected crash fired.
  bool write_with_crash(const TraceDatabase& db, const std::string& name,
                        std::int64_t crash_at,
                        std::uint32_t checkpoint_every = 0) const {
    WriterOptions options;
    options.chunk_rows = kChunkRows;
    options.checkpoint_every_chunks = checkpoint_every;
    std::unique_ptr<io::WritableFile> file =
        std::make_unique<io::PosixWritableFile>(path(name));
    if (crash_at >= 0) {
      inject::IoFaultConfig faults;
      faults.crash_at_byte = crash_at;
      file = std::make_unique<inject::FaultyFile>(std::move(file), faults);
    }
    try {
      ColumnarWriter writer(std::move(file), options);
      write_columnar(db, writer);
      writer.finish();
    } catch (const inject::InjectedCrash&) {
      return true;
    }
    return false;
  }

  fs::path dir_;
};

// Overwrites byte `at` of column block `column` in chunk `index` of
// `table` (for a u8 column, the value of row `at`), then re-signs the
// chunk's checksum in the footer directory and in its frame header, and
// the footer's own checksum. The footer's min/max stats keep their old
// values, so they still vouch for the chunk.
std::string forge_byte(std::string bytes, columnar::Table table,
                       std::size_t index, std::size_t column,
                       std::uint64_t at, std::uint8_t value) {
  auto* base = reinterpret_cast<std::byte*>(bytes.data());
  const std::size_t tail = bytes.size() - format::kTailBytes;
  std::uint64_t footer_size = 0;
  std::memcpy(&footer_size, base + tail, sizeof(footer_size));
  const std::size_t footer_start = tail - footer_size;
  format::FooterImage image = format::parse_footer_payload(
      base + footer_start, footer_size, footer_start, "forged");
  columnar::ChunkInfo& chunk =
      image.directory[static_cast<std::size_t>(table)][index];
  base[chunk.columns[column].offset + at] = std::byte{value};
  chunk.checksum = columnar::fnv1a(base + chunk.offset, chunk.size);
  // The frame header ends with the payload checksum (columnar_format.h).
  std::memcpy(base + chunk.offset - 8, &chunk.checksum, 8);
  const std::vector<std::byte> footer =
      format::serialize_footer_payload(image);
  EXPECT_EQ(footer.size(), footer_size);
  std::memcpy(base + footer_start, footer.data(), footer.size());
  const std::uint64_t footer_checksum =
      columnar::fnv1a(footer.data(), footer.size());
  std::memcpy(base + tail + 8, &footer_checksum, 8);
  return bytes;
}

// ---- salvage scan ----

TEST_F(RecoveryTest, ScanOnFinishedFileSeesEveryChunk) {
  ASSERT_FALSE(write_with_crash(torture_db(), "clean.fac", -1));
  const SalvageScan scan = scan_columnar_salvage(path("clean.fac"));
  EXPECT_TRUE(scan.header_ok);
  EXPECT_TRUE(scan.finished);
  EXPECT_EQ(scan.stop_reason, "reached the footer");
  EXPECT_EQ(scan.chunk_rows, kChunkRows);

  ChunkReader reader(path("clean.fac"));
  for (columnar::Table t : columnar::kAllTables) {
    const auto i = static_cast<std::size_t>(t);
    EXPECT_EQ(scan.chunks_salvageable[i], reader.chunk_count(t));
    EXPECT_EQ(scan.rows_salvageable[i], reader.row_count(t));
  }
  EXPECT_NE(scan.to_string().find("state: finished"), std::string::npos);
}

TEST_F(RecoveryTest, ScanOnGarbageReportsInvalidHeader) {
  write_file(dir_ / "bogus.fac", std::string(256, 'x'));
  const SalvageScan scan = scan_columnar_salvage(path("bogus.fac"));
  EXPECT_FALSE(scan.header_ok);
  EXPECT_TRUE(scan.chunks.empty());
  EXPECT_NE(scan.to_string().find("header: INVALID"), std::string::npos);
  EXPECT_THROW(recover_columnar(path("bogus.fac"), path("out.fac")), Error);
}

TEST_F(RecoveryTest, ScanOnMissingFileThrowsIoError) {
  EXPECT_THROW(scan_columnar_salvage(path("missing.fac")), io::IoError);
}

// ---- the torture test (tentpole acceptance) ----
//
// Crash the writer at every frame boundary and at sampled intra-frame
// offsets. For every crash point the damaged file must be the exact byte
// prefix of the uncrashed reference, and recovery must produce a valid
// columnar file whose chunks are byte-identical (same checksums, same
// rows) to the reference's chunk prefix — never silently corrupt.
TEST_F(RecoveryTest, TortureCrashAtEveryChunkBoundaryRecoversAnExactPrefix) {
  const TraceDatabase& db = torture_db();
  ASSERT_FALSE(write_with_crash(db, "ref.fac", -1));
  const std::string reference = read_file(dir_ / "ref.fac");
  const SalvageScan ref_scan = scan_columnar_salvage(path("ref.fac"));
  ASSERT_TRUE(ref_scan.finished);
  ASSERT_GT(ref_scan.total_chunks(), 4u);
  ChunkReader ref_reader(path("ref.fac"));

  // Crash points: the post-header boundary, every frame boundary, and for
  // every chunk a sampled mid-frame-header and mid-payload offset.
  std::vector<std::uint64_t> crash_points = {8};
  for (const SalvagedChunkRef& ref : ref_scan.chunks) {
    const std::uint64_t frame_start = ref.payload_offset - 32;
    crash_points.push_back(frame_start + 17);  // torn mid-frame-header
    crash_points.push_back(ref.payload_offset + ref.payload_size / 2);
    std::uint64_t end = ref.payload_offset + ref.payload_size;
    crash_points.push_back(end + (end % 8 == 0 ? 0 : 8 - end % 8));
  }
  // And a crash inside the footer region (all data already durable).
  crash_points.push_back(reference.size() - 10);

  for (const std::uint64_t crash_at : crash_points) {
    SCOPED_TRACE("crash at byte " + std::to_string(crash_at));
    ASSERT_TRUE(write_with_crash(db, "crashed.fac",
                                 static_cast<std::int64_t>(crash_at)));

    // The injector persisted the exact pre-crash prefix: the damaged file
    // is byte-for-byte the reference cut at the crash offset.
    const std::string damaged = read_file(dir_ / "crashed.fac");
    ASSERT_EQ(damaged.size(), crash_at);
    ASSERT_EQ(damaged, reference.substr(0, crash_at));

    const SalvageReport report =
        recover_columnar(path("crashed.fac"), path("recovered.fac"));
    EXPECT_EQ(report.rows_recovered, report.scan.total_rows());

    // The recovered file is strict-readable and its chunks are a byte-exact
    // prefix of the reference's per-table chunk sequence.
    ChunkReader recovered(path("recovered.fac"));
    for (columnar::Table t : columnar::kAllTables) {
      const std::size_t n = recovered.chunk_count(t);
      ASSERT_LE(n, ref_reader.chunk_count(t));
      std::uint64_t rows = 0;
      for (std::size_t c = 0; c < n; ++c) {
        const columnar::ChunkInfo& got = recovered.chunk_info(t, c);
        const columnar::ChunkInfo& want = ref_reader.chunk_info(t, c);
        ASSERT_EQ(got.rows, want.rows)
            << columnar::table_name(t) << " chunk " << c;
        ASSERT_EQ(got.checksum, want.checksum)
            << columnar::table_name(t) << " chunk " << c
            << ": recovered bytes diverge from the uncrashed run";
        rows += got.rows;
      }
      EXPECT_EQ(recovered.row_count(t), rows);
    }

    // Degraded-mode analysis on the recovered file completes and reports a
    // clean (non-partial) read.
    DegradedReadReport degraded;
    const analysis::OutOfCoreSummary summary =
        analysis::summarize_columnar(path("recovered.fac"), true, &degraded);
    EXPECT_FALSE(degraded.degraded());
    EXPECT_EQ(summary.servers,
              recovered.row_count(columnar::Table::kServers));
  }
}

TEST_F(RecoveryTest, RecoveryIsIdempotent) {
  const TraceDatabase& db = torture_db();
  ASSERT_FALSE(write_with_crash(db, "ref.fac", -1));
  const std::string reference = read_file(dir_ / "ref.fac");
  ASSERT_TRUE(write_with_crash(
      db, "crashed.fac", static_cast<std::int64_t>(reference.size() * 2 / 3)));

  recover_columnar(path("crashed.fac"), path("r1.fac"));
  recover_columnar(path("r1.fac"), path("r2.fac"));
  EXPECT_EQ(read_file(dir_ / "r1.fac"), read_file(dir_ / "r2.fac"))
      << "recover(recover(x)) != recover(x)";

  // OUT replaces IN only once it is finished, so recovery in place works.
  recover_columnar(path("crashed.fac"), path("crashed.fac"));
  EXPECT_EQ(read_file(dir_ / "crashed.fac"), read_file(dir_ / "r1.fac"));
}

TEST_F(RecoveryTest, RecoveringAFinishedFileLosesNothing) {
  ASSERT_FALSE(write_with_crash(torture_db(), "ref.fac", -1));
  const SalvageReport report =
      recover_columnar(path("ref.fac"), path("recovered.fac"));
  EXPECT_TRUE(report.scan.finished);

  ChunkReader ref(path("ref.fac"));
  ChunkReader got(path("recovered.fac"));
  for (columnar::Table t : columnar::kAllTables) {
    EXPECT_EQ(got.row_count(t), ref.row_count(t));
  }
  EXPECT_EQ(got.window().begin, ref.window().begin);
  EXPECT_EQ(got.next_incident(), ref.next_incident());
}

// A finished file with one damaged chunk: the frame scan stops at it, but
// the footer still locates every other chunk, so recovery keeps exactly
// what the degraded load keeps, with the footer's windows and incident
// counter.
TEST_F(RecoveryTest, RecoveringADamagedFinishedFileKeepsEveryIntactChunk) {
  const TraceDatabase& db = torture_db();
  const ObservationWindow monitoring{
      monitoring_window().begin - 30 * kMinutesPerDay,
      monitoring_window().end + 30 * kMinutesPerDay};
  const ObservationWindow onoff{onoff_window().begin + kMinutesPerDay,
                                onoff_window().end};
  constexpr std::int32_t kNextIncident = 1 << 20;
  const auto write = [&](const TraceDatabase& rows, const std::string& name) {
    ColumnarWriter writer(path(name), kChunkRows);
    write_columnar(rows, writer);
    writer.set_windows(ticket_window(), monitoring, onoff);
    writer.set_next_incident(kNextIncident);
    writer.finish();
  };
  write(db, "clean.fac");
  std::string bytes = read_file(dir_ / "clean.fac");
  const ChunkReader clean(path("clean.fac"));
  const auto usage = columnar::Table::kWeeklyUsage;
  ASSERT_GT(clean.chunk_count(usage), 2u);
  const columnar::ChunkInfo& victim = clean.chunk_info(usage, 1);
  bytes[victim.offset + victim.size / 2] ^= 0x01;
  write_file(dir_ / "bad.fac", bytes);

  DegradedReadReport degraded;
  const TraceDatabase kept = load_columnar(path("bad.fac"), true, &degraded);
  ASSERT_EQ(degraded.chunks_skipped[static_cast<std::size_t>(usage)], 1u);

  const SalvageReport report =
      recover_columnar(path("bad.fac"), path("r1.fac"));
  EXPECT_TRUE(report.scan.finished);
  EXPECT_LT(report.scan.total_rows(), report.rows_recovered)
      << "recovery stopped at the damaged chunk";
  EXPECT_EQ(report.degraded.rows_skipped, degraded.rows_skipped);
  EXPECT_NE(report.to_string().find("PARTIAL DATA"), std::string::npos);

  // Every kept row, in the footer's chunk size, windows and incident
  // counter: the bytes of writing the degraded load out directly.
  write(kept, "expected.fac");
  EXPECT_TRUE(read_file(dir_ / "r1.fac") == read_file(dir_ / "expected.fac"))
      << "recovery kept other rows than the degraded load";
  const ChunkReader recovered(path("r1.fac"));
  EXPECT_EQ(recovered.monitoring().begin, monitoring.begin);
  EXPECT_EQ(recovered.onoff_tracking().begin, onoff.begin);
  EXPECT_EQ(recovered.next_incident(), kNextIncident);
  EXPECT_EQ(recovered.chunk_rows(), kChunkRows);
  EXPECT_EQ(report.rows_recovered,
            kept.servers().size() + kept.tickets().size() +
                recovered.row_count(usage) +
                recovered.row_count(columnar::Table::kPowerEvents) +
                recovered.row_count(columnar::Table::kSnapshots));

  recover_columnar(path("r1.fac"), path("r2.fac"));
  EXPECT_TRUE(read_file(dir_ / "r1.fac") == read_file(dir_ / "r2.fac"))
      << "recover(recover(x)) != recover(x)";
}

// A finished file whose degraded load fails (a ticket forged to close
// before it opens, which finalize() refuses): with one of its chunks
// damaged, recovery still keeps the frame prefix before that chunk.
TEST_F(RecoveryTest, RecoveringADamagedFileWhoseLoadFailsKeepsTheFramePrefix) {
  ASSERT_FALSE(write_with_crash(torture_db(), "clean.fac", -1));
  const ChunkReader clean(path("clean.fac"));
  const auto tickets = columnar::Table::kTickets;
  ASSERT_GT(clean.chunk_count(tickets), 2u);
  // The top byte of ticket chunk 2's first `opened` value moves it far
  // past its `closed`.
  std::string bytes = forge_byte(read_file(dir_ / "clean.fac"), tickets, 2,
                                 columnar::col::kTicketOpened, 7, 0x40);
  const columnar::ChunkInfo& victim = clean.chunk_info(tickets, 1);
  bytes[victim.offset + victim.size / 2] ^= 0x01;
  write_file(dir_ / "bad.fac", bytes);
  DegradedReadReport ignored;
  ASSERT_THROW(load_columnar(path("bad.fac"), true, &ignored), Error);

  const SalvageReport report =
      recover_columnar(path("bad.fac"), path("r2.fac"));
  EXPECT_TRUE(report.scan.finished);
  EXPECT_GT(report.scan.total_rows(), 0u);
  EXPECT_GE(report.rows_recovered, report.scan.total_rows());
  EXPECT_FALSE(report.degraded.degraded());
  const ChunkReader r2(path("r2.fac"));
  EXPECT_EQ(r2.row_count(tickets),
            report.scan.rows_salvageable[static_cast<std::size_t>(tickets)]);
}

// A crash before the servers' only (partial) chunk is flushed recovers to
// a file with no servers whose tickets name servers anyway. The degraded
// load drops and counts every row that names a server past the servers
// table; the strict load refuses the first such row at its location.
TEST_F(RecoveryTest, RowsNamingServersPastTheServersTableAreDangling) {
  const TraceDatabase& db = torture_db();
  ASSERT_FALSE(write_with_crash(db, "ref.fac", -1));
  const std::string reference = read_file(dir_ / "ref.fac");
  ASSERT_TRUE(write_with_crash(
      db, "crashed.fac", static_cast<std::int64_t>(reference.size() * 2 / 3)));
  recover_columnar(path("crashed.fac"), path("recovered.fac"));
  const ChunkReader reader(path("recovered.fac"));
  const auto tickets = columnar::Table::kTickets;
  ASSERT_EQ(reader.row_count(columnar::Table::kServers), 0u);
  ASSERT_EQ(reader.row_count(tickets), 2304u);
  std::uint64_t rows = 0;
  for (columnar::Table table : columnar::kAllTables) {
    rows += reader.row_count(table);
  }

  DegradedReadReport report;
  const TraceDatabase loaded =
      load_columnar(path("recovered.fac"), true, &report);
  EXPECT_EQ(report.rows_dropped_dangling, rows);
  EXPECT_EQ(report.total_rows_skipped(), 0u);
  EXPECT_TRUE(report.degraded());
  EXPECT_TRUE(loaded.tickets().empty());

  try {
    load_columnar(path("recovered.fac"));
    FAIL() << "strict load accepted tickets naming no loaded server";
  } catch (const ChunkError& e) {
    EXPECT_EQ(e.table(), tickets);
    EXPECT_EQ(e.index(), 0u);
    EXPECT_EQ(e.offset(), reader.chunk_info(tickets, 0).offset);
    EXPECT_EQ(e.defect(), ReadDefect::kDecodeError);
    const std::string what = e.what();
    EXPECT_NE(what.find("tickets.server row 0 names server "),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("past the servers table (0 rows)"), std::string::npos)
        << what;
  }
}

// ---- footer checkpoints (loss bound + metadata recovery) ----

// A writer with checkpoint_every_chunks = 1 snapshots the footer after
// every flushed chunk. Crashing mid-stream then loses at most the one
// chunk being written, and the non-default observation windows + incident
// counter survive via the checkpoint (without one they fall back to paper
// defaults).
TEST_F(RecoveryTest, CheckpointsBoundLossToOneChunkAndRecoverMetadata) {
  TraceDatabase db;
  const ObservationWindow monitoring{0, 900 * kMinutesPerDay};
  const ObservationWindow ticket{50 * kMinutesPerDay, 500 * kMinutesPerDay};
  const ObservationWindow onoff{60 * kMinutesPerDay, 200 * kMinutesPerDay};
  db.set_windows(ticket, monitoring, onoff);
  ServerRecord s;
  s.type = MachineType::kPhysical;
  s.first_record = monitoring.begin;
  const ServerId server = db.add_server(s);
  for (int i = 0; i < 41; ++i) {
    Ticket t;
    t.incident = db.new_incident();
    t.server = server;
    t.is_crash = true;
    t.opened = ticket.begin + from_days(1.0 + i);
    t.closed = t.opened + from_hours(2.0);
    t.description = "server unresponsive";
    t.resolution = "fixed";
    db.add_ticket(std::move(t));
  }
  db.finalize();

  // chunk_rows = 4: 41 tickets cut into ten full chunks + one partial.
  const auto write_crashed = [&](const std::string& name,
                                 std::int64_t crash_at,
                                 std::uint32_t checkpoint_every) {
    WriterOptions options;
    options.chunk_rows = 4;
    options.checkpoint_every_chunks = checkpoint_every;
    inject::IoFaultConfig faults;
    faults.crash_at_byte = crash_at;
    try {
      ColumnarWriter writer(
          std::make_unique<inject::FaultyFile>(
              std::make_unique<io::PosixWritableFile>(path(name)), faults),
          options);
      write_columnar(db, writer);
      writer.finish();
      return false;
    } catch (const inject::InjectedCrash&) {
      return true;
    }
  };

  // Locate the ticket chunk frames of an uncrashed checkpointed stream.
  WriterOptions options;
  options.chunk_rows = 4;
  options.checkpoint_every_chunks = 1;
  {
    ColumnarWriter writer(path("ref.fac"), options);
    write_columnar(db, writer);
    writer.finish();
  }
  const SalvageScan ref_scan = scan_columnar_salvage(path("ref.fac"));
  ASSERT_TRUE(ref_scan.finished);
  std::vector<SalvagedChunkRef> ticket_chunks;
  for (const SalvagedChunkRef& ref : ref_scan.chunks) {
    if (ref.table == columnar::Table::kTickets) ticket_chunks.push_back(ref);
  }
  ASSERT_GE(ticket_chunks.size(), 5u);

  // Crash while writing ticket chunk k (mid-payload): exactly the first k
  // chunks (4k rows) survive — at most one chunk of rows is lost relative
  // to everything the writer had started to persist.
  const std::size_t k = ticket_chunks.size() / 2;
  const std::int64_t crash_at = static_cast<std::int64_t>(
      ticket_chunks[k].payload_offset + ticket_chunks[k].payload_size / 2);
  ASSERT_TRUE(write_crashed("ckpt.fac", crash_at, 1));
  const SalvageReport with_ckpt =
      recover_columnar(path("ckpt.fac"), path("ckpt_rec.fac"));
  const auto tickets_idx = static_cast<std::size_t>(columnar::Table::kTickets);
  EXPECT_EQ(with_ckpt.scan.rows_salvageable[tickets_idx], 4u * k);
  EXPECT_TRUE(with_ckpt.scan.checkpoint_seen);
  EXPECT_TRUE(with_ckpt.scan.windows_recovered);

  // The checkpoint restored the writer metadata exactly.
  ChunkReader recovered(path("ckpt_rec.fac"));
  EXPECT_EQ(recovered.window().begin, ticket.begin);
  EXPECT_EQ(recovered.window().end, ticket.end);
  EXPECT_EQ(recovered.monitoring().end, monitoring.end);
  EXPECT_EQ(recovered.onoff_tracking().begin, onoff.begin);
  EXPECT_GE(recovered.next_incident(), static_cast<std::int32_t>(4 * k));

  // The same mid-chunk crash without checkpoints salvages the same rows
  // but cannot recover the custom windows (they fall back to paper
  // defaults). The checkpoint-free stream is shorter, so locate the same
  // ticket chunk in its own reference.
  {
    WriterOptions plain_options;
    plain_options.chunk_rows = 4;
    ColumnarWriter writer(path("plain_ref.fac"), plain_options);
    write_columnar(db, writer);
    writer.finish();
  }
  const SalvageScan plain_ref = scan_columnar_salvage(path("plain_ref.fac"));
  std::vector<SalvagedChunkRef> plain_ticket_chunks;
  for (const SalvagedChunkRef& ref : plain_ref.chunks) {
    if (ref.table == columnar::Table::kTickets) {
      plain_ticket_chunks.push_back(ref);
    }
  }
  ASSERT_GT(plain_ticket_chunks.size(), k);
  const std::int64_t plain_crash_at = static_cast<std::int64_t>(
      plain_ticket_chunks[k].payload_offset +
      plain_ticket_chunks[k].payload_size / 2);
  ASSERT_TRUE(write_crashed("plain.fac", plain_crash_at, 0));
  const SalvageScan plain = scan_columnar_salvage(path("plain.fac"));
  EXPECT_FALSE(plain.checkpoint_seen);
  EXPECT_FALSE(plain.windows_recovered);
}

// ---- degraded (lenient) reads ----

TEST_F(RecoveryTest, LenientReadEqualsStrictReadOnUndamagedFileAtAnyThreads) {
  ASSERT_FALSE(write_with_crash(torture_db(), "clean.fac", -1));

  std::string report_1threads;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadPool::set_default_thread_count(threads);
    DegradedReadReport report;
    const TraceDatabase lenient =
        load_columnar(path("clean.fac"), true, &report);
    EXPECT_FALSE(report.degraded());
    EXPECT_EQ(report.total_rows_skipped(), 0u);

    const TraceDatabase strict = load_columnar(path("clean.fac"));
    EXPECT_EQ(lenient.servers().size(), strict.servers().size());
    EXPECT_EQ(lenient.tickets().size(), strict.tickets().size());
    for (std::size_t i = 0; i < strict.tickets().size(); ++i) {
      ASSERT_EQ(lenient.tickets()[i].id, strict.tickets()[i].id);
      ASSERT_EQ(lenient.tickets()[i].opened, strict.tickets()[i].opened);
      ASSERT_EQ(lenient.tickets()[i].description,
                strict.tickets()[i].description);
    }

    DegradedReadReport summary_report;
    EXPECT_EQ(analysis::summarize_columnar(path("clean.fac"), true,
                                           &summary_report),
              analysis::summarize_columnar(path("clean.fac")));
    EXPECT_FALSE(summary_report.degraded());

    if (threads == 1) {
      report_1threads = report.to_string();
    } else {
      EXPECT_EQ(report.to_string(), report_1threads)
          << "degraded-read report depends on thread count";
    }
  }
  ThreadPool::set_default_thread_count(0);
}

TEST_F(RecoveryTest, LenientReadKeepsTicketsThatNameNoServer) {
  // A non-crash ticket need not name a server; strict load, CSV export and
  // convert all keep it, so an undamaged degraded read must keep it too.
  TraceDatabase db;
  db.add_server(ServerRecord{});
  Ticket ticket;
  ticket.opened = 1000;
  ticket.closed = 2000;
  ticket.description = "disk quota exceeded";
  ticket.resolution = "quota raised";
  db.add_ticket(ticket);
  db.finalize();
  save_columnar(db, path("serverless.fac"));

  ASSERT_EQ(load_columnar(path("serverless.fac")).tickets().size(), 1u);
  DegradedReadReport report;
  const TraceDatabase lenient =
      load_columnar(path("serverless.fac"), true, &report);
  EXPECT_EQ(lenient.tickets().size(), 1u);
  EXPECT_FALSE(report.degraded()) << report.to_string();
}

TEST_F(RecoveryTest, LenientReadSkipsDamagedChunksAndReportsThem) {
  ASSERT_FALSE(write_with_crash(torture_db(), "clean.fac", -1));
  std::string bytes = read_file(dir_ / "clean.fac");

  // Corrupt one mid-file ticket chunk payload; the footer still parses.
  ChunkReader clean(path("clean.fac"));
  const std::size_t tick_chunks =
      clean.chunk_count(columnar::Table::kTickets);
  ASSERT_GT(tick_chunks, 2u);
  const columnar::ChunkInfo& victim =
      clean.chunk_info(columnar::Table::kTickets, 1);
  bytes[victim.offset + victim.size / 2] ^= 0x01;
  write_file(dir_ / "bad.fac", bytes);

  EXPECT_THROW(load_columnar(path("bad.fac")), Error);

  DegradedReadReport report;
  const TraceDatabase lenient = load_columnar(path("bad.fac"), true, &report);
  EXPECT_TRUE(report.degraded());
  const auto t = static_cast<std::size_t>(columnar::Table::kTickets);
  EXPECT_EQ(report.chunks_skipped[t], 1u);
  EXPECT_EQ(report.rows_skipped[t], victim.rows);
  EXPECT_EQ(report.by_defect[static_cast<std::size_t>(
                ReadDefect::kChecksumMismatch)],
            1u);
  EXPECT_EQ(lenient.tickets().size(),
            clean.row_count(columnar::Table::kTickets) - victim.rows);
  EXPECT_NE(report.to_string().find("PARTIAL DATA"), std::string::npos);

  // Out-of-core analysis degrades the same way instead of throwing.
  DegradedReadReport summary_report;
  const analysis::OutOfCoreSummary partial =
      analysis::summarize_columnar(path("bad.fac"), true, &summary_report);
  EXPECT_TRUE(summary_report.degraded());
  EXPECT_EQ(partial.tickets,
            clean.row_count(columnar::Table::kTickets) - victim.rows);
}

// ---- located errors (satellite: table/chunk/offset in the message) ----

TEST_F(RecoveryTest, ChunkErrorNamesTableChunkAndOffset) {
  ASSERT_FALSE(write_with_crash(torture_db(), "clean.fac", -1));
  std::string bytes = read_file(dir_ / "clean.fac");
  ChunkReader clean(path("clean.fac"));
  const columnar::ChunkInfo& victim =
      clean.chunk_info(columnar::Table::kServers, 0);
  bytes[victim.offset + victim.size / 2] ^= 0x01;
  write_file(dir_ / "bad.fac", bytes);

  ChunkReader reader(path("bad.fac"));
  try {
    reader.chunk(columnar::Table::kServers, 0);
    FAIL() << "expected ChunkError";
  } catch (const ChunkError& e) {
    EXPECT_EQ(e.table(), columnar::Table::kServers);
    EXPECT_EQ(e.index(), 0u);
    EXPECT_EQ(e.offset(), victim.offset);
    EXPECT_EQ(e.defect(), ReadDefect::kChecksumMismatch);
    const std::string expected_prefix =
        "columnar: " + path("bad.fac") + ": servers chunk 0 at offset " +
        std::to_string(victim.offset) + " (" + std::to_string(victim.size) +
        " B): ";
    EXPECT_EQ(std::string(e.what()).rfind(expected_prefix, 0), 0u)
        << "message '" << e.what() << "' does not start with '"
        << expected_prefix << "'";
  }

  // The truncation defect renders with the same location format.
  const ChunkError truncated("t.fac", columnar::Table::kTickets, 3, 4096, 512,
                             ReadDefect::kTruncated,
                             "chunk range escapes the file");
  EXPECT_STREQ(truncated.what(),
               "columnar: t.fac: tickets chunk 3 at offset 4096 (512 B): "
               "chunk range escapes the file");
  EXPECT_EQ(truncated.defect(), ReadDefect::kTruncated);
}

// ---- forged values: every checksum re-signed, only the domain check left ----

TEST_F(RecoveryTest, ForgedTicketEnumFailsEveryReaderAtItsLocation) {
  ASSERT_FALSE(write_with_crash(torture_db(), "clean.fac", -1));
  const std::string clean = read_file(dir_ / "clean.fac");
  const ChunkReader reader(path("clean.fac"));
  const auto tickets = columnar::Table::kTickets;
  ASSERT_GT(reader.chunk_count(tickets), 2u);
  const columnar::ChunkInfo& victim = reader.chunk_info(tickets, 1);
  const std::string location =
      "tickets chunk 1 at offset " + std::to_string(victim.offset);

  struct Forgery {
    std::size_t column;
    std::uint8_t value;
    std::string detail;
  };
  for (const Forgery& forgery :
       {Forgery{columnar::col::kTicketTrueClass, 200,
                "tickets.true_class row 3 holds 200"},
        Forgery{columnar::col::kTicketSubsystem, 9,
                "tickets.subsystem row 3 holds 9"}}) {
    SCOPED_TRACE(forgery.detail);
    write_file(dir_ / "forged.fac", forge_byte(clean, tickets, 1,
                                               forgery.column, 3,
                                               forgery.value));
    try {
      load_columnar(path("forged.fac"));
      FAIL() << "strict load accepted a forged value";
    } catch (const ChunkError& e) {
      EXPECT_EQ(e.defect(), ReadDefect::kDecodeError);
      EXPECT_EQ(e.table(), tickets);
      EXPECT_EQ(e.index(), 1u);
      EXPECT_EQ(e.offset(), victim.offset);
      const std::string what = e.what();
      EXPECT_NE(what.find(location), std::string::npos) << what;
      EXPECT_NE(what.find(forgery.detail), std::string::npos) << what;
    }
    // The pushdown scan and recovery decode through the same check.
    EXPECT_THROW(TicketFilter().scan_columnar(ChunkReader(path("forged.fac"))),
                 ChunkError);
    // A failed recovery leaves an existing OUT as it was, and nothing
    // beside it.
    write_file(dir_ / "recovered.fac", clean);
    try {
      recover_columnar(path("forged.fac"), path("recovered.fac"));
      FAIL() << "recovery accepted a forged value";
    } catch (const ChunkError& e) {
      EXPECT_EQ(e.index(), 1u);
      EXPECT_EQ(e.offset(), victim.offset);
      EXPECT_EQ(e.defect(), ReadDefect::kDecodeError);
    }
    EXPECT_TRUE(read_file(dir_ / "recovered.fac") == clean)
        << "recovery overwrote OUT before it failed";
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      EXPECT_TRUE(name == "clean.fac" || name == "forged.fac" ||
                  name == "recovered.fac")
          << "left behind: " << name;
    }

    // A degraded read skips and records the chunk instead.
    DegradedReadReport report;
    const TraceDatabase partial =
        load_columnar(path("forged.fac"), true, &report);
    const auto t = static_cast<std::size_t>(tickets);
    EXPECT_EQ(report.chunks_skipped[t], 1u);
    EXPECT_EQ(report.rows_skipped[t], victim.rows);
    EXPECT_EQ(report.by_defect[static_cast<std::size_t>(
                  ReadDefect::kDecodeError)],
              1u);
    EXPECT_EQ(partial.tickets().size(),
              reader.row_count(tickets) - victim.rows);
    for (const Ticket& ticket : partial.tickets()) {
      ASSERT_LT(static_cast<int>(ticket.true_class), kFailureClassCount);
      ASSERT_LT(ticket.subsystem, kSubsystemCount);
    }
  }
}

TEST_F(RecoveryTest, ForgedServerSubsystemFailsTheSummaryAtItsLocation) {
  // Small chunks, so the servers table spans several.
  save_columnar(torture_db(), path("clean.fac"), 64);
  const ChunkReader reader(path("clean.fac"));
  const auto servers = columnar::Table::kServers;
  ASSERT_GT(reader.chunk_count(servers), 1u);
  const columnar::ChunkInfo& victim = reader.chunk_info(servers, 1);
  write_file(dir_ / "forged.fac",
             forge_byte(read_file(dir_ / "clean.fac"), servers, 1,
                        columnar::col::kServerSubsystem, 0, 9));

  try {
    analysis::summarize_columnar(path("forged.fac"));
    FAIL() << "summary accepted a forged subsystem";
  } catch (const ChunkError& e) {
    EXPECT_EQ(e.defect(), ReadDefect::kDecodeError);
    EXPECT_EQ(e.table(), servers);
    EXPECT_EQ(e.index(), 1u);
    EXPECT_EQ(e.offset(), victim.offset);
    EXPECT_NE(std::string(e.what()).find("servers.subsystem row 0 holds 9"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(load_columnar(path("forged.fac")), ChunkError);

  // Degraded, the summary leaves the chunk's servers out, and the load
  // keeps the server prefix before it.
  const auto s = static_cast<std::size_t>(servers);
  DegradedReadReport summary_report;
  const analysis::OutOfCoreSummary partial =
      analysis::summarize_columnar(path("forged.fac"), true, &summary_report);
  EXPECT_EQ(summary_report.chunks_skipped[s], 1u);
  EXPECT_EQ(partial.servers, reader.row_count(servers) - victim.rows);
  DegradedReadReport load_report;
  const TraceDatabase prefix =
      load_columnar(path("forged.fac"), true, &load_report);
  EXPECT_EQ(load_report.chunks_skipped[s], 1u);
  EXPECT_EQ(prefix.servers().size(), reader.chunk_info(servers, 0).rows);
}

TEST_F(RecoveryTest, ForgedDictionaryFailsTheLoadAtItsLocation) {
  ASSERT_FALSE(write_with_crash(torture_db(), "clean.fac", -1));
  const std::string clean = read_file(dir_ / "clean.fac");
  const ChunkReader reader(path("clean.fac"));
  const auto tickets = columnar::Table::kTickets;
  const columnar::ChunkInfo& victim = reader.chunk_info(tickets, 1);
  const columnar::ColumnBlockInfo& block =
      victim.columns[columnar::col::kTicketDescription];
  ASSERT_GE(block.extra, 2u);

  // A dictionary block is u32 count | u32 offsets[count + 1] | bytes |
  // u32 indices[rows] (chunk.h). Byte 11 is the high byte of offsets[1],
  // which would end slot 0 about 2 GB past the blob; the block's last byte
  // is the high byte of the last row's index.
  struct Forgery {
    std::uint64_t at;
    std::string detail;
  };
  for (const Forgery& forgery :
       {Forgery{11, "dictionary offsets decrease"},
        Forgery{block.size - 1, "dictionary index out of range"}}) {
    SCOPED_TRACE(forgery.detail);
    write_file(dir_ / "forged.fac",
               forge_byte(clean, tickets, 1,
                          columnar::col::kTicketDescription, forgery.at,
                          0x7f));
    try {
      load_columnar(path("forged.fac"));
      FAIL() << "strict load accepted a forged dictionary";
    } catch (const ChunkError& e) {
      EXPECT_EQ(e.defect(), ReadDefect::kDecodeError);
      EXPECT_EQ(e.index(), 1u);
      EXPECT_EQ(e.offset(), victim.offset);
      EXPECT_NE(std::string(e.what()).find(forgery.detail),
                std::string::npos)
          << e.what();
    }
  }
}

// An absent optional double is NaN in memory (OptionalDouble), so a
// present NaN or infinity cannot be held: the decoder refuses it at its
// location, and a degraded load skips the chunk.
TEST_F(RecoveryTest, ForgedNonFiniteUsageFailsTheLoadAtItsLocation) {
  ASSERT_FALSE(write_with_crash(torture_db(), "clean.fac", -1));
  const ChunkReader reader(path("clean.fac"));
  const auto usage = columnar::Table::kWeeklyUsage;
  ASSERT_GT(reader.chunk_count(usage), 2u);
  const columnar::ChunkInfo& victim = reader.chunk_info(usage, 1);
  std::uint32_t row = 0;
  {
    const columnar::ChunkView view = reader.chunk(usage, 1);
    const columnar::ColumnView& disk =
        view.column(columnar::col::kUsageDiskUtil);
    while (row < view.rows() && !disk.present_at(row)) ++row;
    ASSERT_LT(row, view.rows()) << "no VM row in the chunk";
  }

  // The block is the presence bitmap (padded to 8 bytes) and then the
  // values; bytes 6 and 7 of a double hold its sign and exponent, and
  // 0x7ff0 sets every exponent bit.
  const std::uint64_t bitmap_bytes = (victim.rows + 63) / 64 * 8;
  const std::uint64_t at = bitmap_bytes + std::uint64_t{row} * 8;
  std::string bytes = read_file(dir_ / "clean.fac");
  bytes = forge_byte(bytes, usage, 1, columnar::col::kUsageDiskUtil, at + 6,
                     0xf0);
  bytes = forge_byte(bytes, usage, 1, columnar::col::kUsageDiskUtil, at + 7,
                     0x7f);
  write_file(dir_ / "forged.fac", bytes);
  try {
    load_columnar(path("forged.fac"));
    FAIL() << "strict load accepted a non-finite disk_util";
  } catch (const ChunkError& e) {
    EXPECT_EQ(e.defect(), ReadDefect::kDecodeError);
    EXPECT_EQ(e.table(), usage);
    EXPECT_EQ(e.index(), 1u);
    EXPECT_EQ(e.offset(), victim.offset);
    const std::string detail = "weekly_usage.disk_util row " +
                               std::to_string(row) + " holds ";
    EXPECT_NE(std::string(e.what()).find(detail), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("not a finite value"),
              std::string::npos)
        << e.what();
  }

  DegradedReadReport report;
  const TraceDatabase partial =
      load_columnar(path("forged.fac"), true, &report);
  EXPECT_EQ(report.chunks_skipped[static_cast<std::size_t>(usage)], 1u);
  EXPECT_EQ(partial.weekly_usage().size(),
            reader.row_count(usage) - victim.rows);
}

// ---- mmap-failure fallback (satellite: forced buffered mode) ----

TEST_F(RecoveryTest, CallerSuppliedFileForcesBufferedModeWithEqualResults) {
  ASSERT_FALSE(write_with_crash(torture_db(), "clean.fac", -1));

  ChunkReader mapped(path("clean.fac"), /*use_mmap=*/true);
  ASSERT_TRUE(mapped.mmapped());
  // The caller-supplied-file constructor is the path taken when mmap is
  // unavailable: it must serve byte-identical chunks.
  ChunkReader buffered(
      std::make_unique<io::PosixReadableFile>(path("clean.fac")));
  EXPECT_FALSE(buffered.mmapped());

  for (columnar::Table t : columnar::kAllTables) {
    ASSERT_EQ(buffered.chunk_count(t), mapped.chunk_count(t));
    for (std::size_t c = 0; c < mapped.chunk_count(t); ++c) {
      EXPECT_EQ(buffered.chunk_info(t, c).checksum,
                mapped.chunk_info(t, c).checksum);
      const columnar::ChunkView va = mapped.chunk(t, c);
      const columnar::ChunkView vb = buffered.chunk(t, c);
      ASSERT_EQ(va.rows(), vb.rows());
    }
  }
  EXPECT_EQ(buffered.next_incident(), mapped.next_incident());
}

// ---- determinism (acceptance: salvage reports bit-identical at 1 vs 8) ----

TEST_F(RecoveryTest, SalvageReportsAreThreadCountInvariant) {
  const TraceDatabase& db = torture_db();
  ASSERT_FALSE(write_with_crash(db, "ref.fac", -1));
  const std::string reference = read_file(dir_ / "ref.fac");
  ASSERT_TRUE(write_with_crash(
      db, "crashed.fac", static_cast<std::int64_t>(reference.size() / 2)));

  std::string scan_text, report_text, recovered_bytes;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadPool::set_default_thread_count(threads);
    const std::string out = "rec" + std::to_string(threads) + ".fac";
    const SalvageScan scan = scan_columnar_salvage(path("crashed.fac"));
    const SalvageReport report = recover_columnar(path("crashed.fac"),
                                                  path(out));
    if (threads == 1) {
      scan_text = scan.to_string();
      report_text = report.to_string();
      recovered_bytes = read_file(dir_ / out);
      ASSERT_GT(report.rows_recovered, 0u);
    } else {
      EXPECT_EQ(scan.to_string(), scan_text);
      EXPECT_EQ(report.to_string(), report_text);
      EXPECT_EQ(read_file(dir_ / out), recovered_bytes)
          << "recovered file depends on thread count";
    }
  }
  ThreadPool::set_default_thread_count(0);
}

}  // namespace
}  // namespace fa::trace

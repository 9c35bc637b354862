// Chunked binary columnar persistence of a trace (".fac" files).
//
// One file holds all five tables of the CSV schema as a sequence of
// independent chunks (chunk.h), followed by a footer directory that records
// observation windows, the incident counter, and per-chunk/per-column
// offsets, checksums and min/max statistics. Readers locate everything from
// the footer, so chunks stream out in generation order and analysis can
// skip chunks wholesale via the min/max stats (predicate pushdown,
// filters.h).
//
// File layout (version 2, little-endian; framing in columnar_format.h):
//   "FACT" magic | u32 version                        -- 8-byte header
//   frame | frame | ...    (32-byte "FACK" frame header + 8-aligned payload;
//                           chunks and periodic footer checkpoints)
//   footer payload (directory; columnar_format.h)
//   u64 footer_size | u64 footer_checksum | "FACT" | u32 version  -- tail
//
// The tail duplicates the magic so truncation anywhere — mid-chunk,
// mid-footer, or of the tail itself — is detected before any chunk is
// trusted; the per-frame checksums make a footer-less file salvageable
// (recovery.h). CSV (csv_io.h) remains the canonical interchange format;
// this format exists for out-of-core scale (docs/SCHEMA.md).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/trace/chunk.h"
#include "src/trace/database.h"
#include "src/util/io.h"

namespace fa::trace {

inline constexpr std::array<char, 4> kColumnarMagic = {'F', 'A', 'C', 'T'};
inline constexpr std::uint32_t kColumnarVersion = 2;
inline constexpr std::uint32_t kDefaultChunkRows = 65536;

// True when `path` names an existing regular file starting with the
// columnar magic (used by CLI surfaces to dispatch CSV-dir vs columnar).
bool is_columnar_file(const std::string& path);

// ---- size/compression report (fa_trace convert / info) ----

struct ColumnReport {
  columnar::Table table;
  std::string name;
  columnar::Encoding encoding;
  std::uint64_t bytes = 0;           // payload bytes across all chunks
  std::uint64_t dict_entries = 0;    // kStringDict: summed per-chunk sizes
  std::uint64_t max_dict_entries = 0;  // kStringDict: largest per-chunk dict
};

struct FileReport {
  std::array<std::uint64_t, columnar::kTableCount> rows{};
  std::array<std::uint64_t, columnar::kTableCount> chunks{};
  std::uint64_t data_bytes = 0;    // chunk payloads, padding included
  std::uint64_t footer_bytes = 0;  // directory + tail
  std::vector<ColumnReport> columns;  // table-major, schema order
};

// ---- located read errors / degraded reads ----

// Why a chunk could not be served.
enum class ReadDefect : std::uint8_t {
  kChecksumMismatch = 0,  // payload bytes disagree with the directory
  kTruncated = 1,         // chunk range escapes the file
  kDecodeError = 2,       // checksum passed but blocks failed to parse
  kIoError = 3,           // the underlying read failed permanently
};
inline constexpr int kReadDefectCount = 4;
const char* read_defect_name(ReadDefect defect);

// Error from ChunkReader::chunk() carrying the location of the failure:
// table, chunk index, and absolute file offset/size of the chunk payload.
class ChunkError : public Error {
 public:
  ChunkError(const std::string& path, columnar::Table table,
             std::size_t index, std::uint64_t offset, std::uint64_t size,
             ReadDefect defect, const std::string& detail);

  columnar::Table table() const noexcept { return table_; }
  std::size_t index() const noexcept { return index_; }
  std::uint64_t offset() const noexcept { return offset_; }
  ReadDefect defect() const noexcept { return defect_; }

 private:
  columnar::Table table_;
  std::size_t index_;
  std::uint64_t offset_;
  ReadDefect defect_;
};

// Accumulates what a lenient (degraded) read skipped, per table and per
// defect class, so analysis output can be annotated as partial.
struct DegradedReadReport {
  std::array<std::uint64_t, columnar::kTableCount> chunks_skipped{};
  std::array<std::uint64_t, columnar::kTableCount> rows_skipped{};
  std::array<std::uint64_t, kReadDefectCount> by_defect{};
  // Rows a degraded load_columnar dropped: servers after a skipped server
  // chunk, and rows that name one of those lost servers or a server past
  // the servers table.
  std::uint64_t rows_dropped_dangling = 0;

  void record(const ChunkError& error, std::uint32_t rows);
  bool degraded() const;
  std::uint64_t total_rows_skipped() const;
  std::string to_string() const;
};

// ---- streaming writer ----

// Writer knobs. `checkpoint_every_chunks` > 0 embeds a full footer snapshot
// as a checkpoint frame after every N flushed chunks: a crash then loses at
// most the rows after the last checkpoint (at most one chunk per table when
// N == 1; see recovery.h). 0 disables checkpoints (byte-compatible with the
// plain stream, minus durability).
struct WriterOptions {
  std::uint32_t chunk_rows = kDefaultChunkRows;
  std::uint32_t checkpoint_every_chunks = 0;
  io::RetryPolicy retry{};
  io::Clock* clock = nullptr;  // nullptr: real clock
};

// Appends records of any table in any order, cutting a chunk whenever a
// table accumulates `chunk_rows` rows; finish() flushes partial chunks and
// writes the footer. Record ids are implicit (row position), so callers
// must append servers/tickets in id order — the simulator and the CSV
// bridge both do. Not thread-safe; the streaming simulator commits from
// its serial sections only, which also keeps files bit-identical at any
// --threads setting.
//
// Every table has one fill path: a span is cut at chunk boundaries and each
// slice is filled column by column (ChunkBuilder). A per-row call is a
// one-element span, so the bytes never depend on how rows were grouped
// into calls.
class ColumnarWriter {
 public:
  explicit ColumnarWriter(const std::string& path,
                          std::uint32_t chunk_rows = kDefaultChunkRows);
  ColumnarWriter(const std::string& path, const WriterOptions& options);
  // Writes through a caller-supplied file (fault injection, tests).
  ColumnarWriter(std::unique_ptr<io::WritableFile> file,
                 const WriterOptions& options = {});
  ~ColumnarWriter();
  ColumnarWriter(const ColumnarWriter&) = delete;
  ColumnarWriter& operator=(const ColumnarWriter&) = delete;

  // Defaults to the paper windows; call before finish() to override.
  void set_windows(ObservationWindow ticket, ObservationWindow monitoring,
                   ObservationWindow onoff_tracking);
  // Records the incident counter persisted in the footer (the next fresh
  // incident id; max referenced id + 1).
  void set_next_incident(std::int32_t next) { next_incident_ = next; }

  void add_servers(std::span<const ServerRecord> records);
  // A slice of more than one ticket fills the nine ticket columns
  // concurrently on the global ThreadPool (each column's builder state is
  // disjoint, so the bytes are the same at any thread count); a single
  // ticket fills them inline.
  void add_tickets(std::span<const Ticket> tickets);
  void add_weekly_usage_rows(std::span<const WeeklyUsage> rows);
  void add_power_events(std::span<const PowerEvent> events);
  void add_monthly_snapshots(std::span<const MonthlySnapshot> snapshots);

  void add_server(const ServerRecord& record) { add_servers({&record, 1}); }
  void add_ticket(const Ticket& ticket) { add_tickets({&ticket, 1}); }
  void add_weekly_usage(const WeeklyUsage& usage) {
    add_weekly_usage_rows({&usage, 1});
  }
  void add_power_event(const PowerEvent& event) {
    add_power_events({&event, 1});
  }
  void add_monthly_snapshot(const MonthlySnapshot& snapshot) {
    add_monthly_snapshots({&snapshot, 1});
  }

  // Flushes pending chunks and writes the footer + tail. Without this call
  // the file has no valid tail and strict readers reject it (recovery.h
  // salvages it).
  void finish();
  bool finished() const { return finished_; }

  // Valid after finish().
  const FileReport& report() const;

 private:
  // Cuts `rows` at chunk boundaries; fill(builder, slice) fills every
  // column of each slice, which is then counted and, when it completes a
  // chunk, flushed.
  template <typename Row, typename Fill>
  void append_slices(columnar::Table table, std::span<const Row> rows,
                     const Fill& fill);
  void flush_chunk(columnar::Table table);
  void write_checkpoint();
  void write_footer();

  std::string path_;
  io::CheckedWriter out_;
  std::uint32_t chunk_rows_;
  std::uint32_t checkpoint_every_chunks_;
  std::uint32_t chunks_since_checkpoint_ = 0;
  ObservationWindow window_;
  ObservationWindow monitoring_;
  ObservationWindow onoff_;
  std::int32_t next_incident_ = 0;
  std::vector<columnar::ChunkBuilder> builders_;
  std::array<std::vector<columnar::ChunkInfo>, columnar::kTableCount>
      directory_;
  std::array<std::uint64_t, columnar::kTableCount> row_counts_{};
  std::vector<std::byte> scratch_;
  bool finished_ = false;
  FileReport report_;
};

// ---- reader ----

// Opens a columnar file, validates header/tail/footer, and decodes chunks
// on demand. Prefers mmap (zero-copy column views into the mapping); falls
// back to buffered pread reads when mapping fails or `use_mmap` is false,
// in which case each ChunkView owns a copy of just its chunk and frees it
// with the view. A mapped chunk stays resident until release(); the chunk
// walks (for_each_chunk, TicketFilter::scan_columnar) release each chunk
// once they are done with it, so either way they keep about one chunk
// resident. Every chunk() call verifies the chunk's checksum before
// returning a view; failures throw ChunkError naming the table, chunk
// index and file offset.
class ChunkReader {
 public:
  explicit ChunkReader(const std::string& path, bool use_mmap = true);
  // Reads through a caller-supplied file (fault injection, tests); always
  // buffered.
  explicit ChunkReader(std::unique_ptr<io::ReadableFile> file,
                       io::RetryPolicy retry = {},
                       io::Clock* clock = nullptr);
  ~ChunkReader();
  ChunkReader(const ChunkReader&) = delete;
  ChunkReader& operator=(const ChunkReader&) = delete;

  const std::string& path() const { return path_; }
  bool mmapped() const { return mapping_ != nullptr; }

  const ObservationWindow& window() const { return window_; }
  const ObservationWindow& monitoring() const { return monitoring_; }
  const ObservationWindow& onoff_tracking() const { return onoff_; }
  std::int32_t next_incident() const { return next_incident_; }
  // The writer's chunk size (footer metadata).
  std::uint32_t chunk_rows() const { return chunk_rows_; }

  std::uint64_t row_count(columnar::Table table) const;
  std::size_t chunk_count(columnar::Table table) const;
  // Footer directory entry (min/max stats for pushdown) — no chunk IO.
  const columnar::ChunkInfo& chunk_info(columnar::Table table,
                                        std::size_t index) const;
  // Decodes chunk `index` of `table`, verifying its checksum and its
  // values (ChunkView). Throws ChunkError on damage.
  columnar::ChunkView chunk(columnar::Table table, std::size_t index) const;
  // Drops the resident pages of chunk `index` of `table` from the mapping
  // (madvise MADV_DONTNEED over the pages the chunk touches); a no-op in
  // buffered mode. The mapping stays valid: it is private and read-only,
  // so a later access, through a view still alive or a new chunk() call,
  // re-faults the same bytes from the page cache.
  void release(columnar::Table table, std::size_t index) const;

  // Size/compression report reconstructed from the footer (no chunk IO).
  FileReport report() const;

 private:
  void open_footer();

  std::string path_;
  std::uint64_t file_size_ = 0;
  const std::byte* mapping_ = nullptr;  // non-null in mmap mode
  std::uint64_t mapping_size_ = 0;
  std::unique_ptr<io::CheckedReader> reader_;  // buffered mode
  ObservationWindow window_;
  ObservationWindow monitoring_;
  ObservationWindow onoff_;
  std::int32_t next_incident_ = 0;
  std::uint32_t chunk_rows_ = 0;
  std::uint64_t footer_bytes_ = 0;
  std::array<std::vector<columnar::ChunkInfo>, columnar::kTableCount>
      directory_;
  std::array<std::uint64_t, columnar::kTableCount> row_counts_{};
};

// ---- row decoders (shared by the loader, recovery and pushdown scans) ----

// One decoder per table: typed spans over one chunk's columns, taken once
// per chunk (the ChunkView must outlive the decoder), and row(r) to
// assemble the record of chunk row r. ChunkView validated the enum
// columns against their domains, so row() casts without checks. Servers
// and tickets carry implicit ids: `first_id` is the table-wide row index
// of the chunk's first row.
struct ServerRows {
  ServerRows(const columnar::ChunkView& view, std::int64_t first_id);
  ServerRecord row(std::uint32_t r) const {
    ServerRecord s;
    s.id = ServerId{static_cast<std::int32_t>(first_id + r)};
    s.type = static_cast<MachineType>(type[r]);
    s.subsystem = subsystem[r];
    s.cpu_count = cpu_count[r];
    s.memory_gb = memory_gb[r];
    if (disk_gb_col.present_at(r)) s.disk_gb = disk_gb[r];
    if (disk_count_col.present_at(r)) s.disk_count = disk_count[r];
    s.host_box = BoxId{host_box[r]};
    s.first_record = first_record[r];
    return s;
  }

  std::int64_t first_id;
  std::span<const std::uint8_t> type, subsystem;
  std::span<const std::int32_t> cpu_count;
  std::span<const double> memory_gb;
  const columnar::ColumnView& disk_gb_col;  // presence of disk_gb
  std::span<const double> disk_gb;
  const columnar::ColumnView& disk_count_col;  // presence of disk_count
  std::span<const std::int32_t> disk_count, host_box;
  std::span<const std::int64_t> first_record;
};

// row(r) views its text in the chunk, valid while the ChunkView lives; a
// reader that copies the two dictionary blobs (ColumnView::dictionary())
// passes the copies to row(r, ...) to view them instead.
struct TicketRows {
  TicketRows(const columnar::ChunkView& view, std::int64_t first_id);
  Ticket row(std::uint32_t r) const {
    return row(r, description.dictionary(), resolution.dictionary());
  }
  Ticket row(std::uint32_t r, std::string_view description_dictionary,
             std::string_view resolution_dictionary) const {
    Ticket t;
    t.id = TicketId{static_cast<std::int32_t>(first_id + r)};
    t.incident = IncidentId{incident[r]};
    t.server = ServerId{server[r]};
    t.subsystem = subsystem[r];
    t.is_crash = is_crash[r] != 0;
    t.true_class = static_cast<FailureClass>(true_class[r]);
    t.opened = opened[r];
    t.closed = closed[r];
    t.description = description.slot_at(r, description_dictionary);
    t.resolution = resolution.slot_at(r, resolution_dictionary);
    return t;
  }

  std::int64_t first_id;
  std::span<const std::int32_t> incident, server;
  std::span<const std::uint8_t> subsystem, is_crash, true_class;
  std::span<const std::int64_t> opened, closed;
  const columnar::ColumnView& description;
  const columnar::ColumnView& resolution;
};

struct UsageRows {
  explicit UsageRows(const columnar::ChunkView& view);
  WeeklyUsage row(std::uint32_t r) const {
    WeeklyUsage u;
    u.server = ServerId{server[r]};
    u.week = week[r];
    u.cpu_util = cpu_util[r];
    u.mem_util = mem_util[r];
    if (disk_util_col.present_at(r)) u.disk_util = disk_util[r];
    if (net_kbps_col.present_at(r)) u.net_kbps = net_kbps[r];
    return u;
  }

  std::span<const std::int32_t> server, week;
  std::span<const double> cpu_util, mem_util;
  const columnar::ColumnView& disk_util_col;  // presence of disk_util
  std::span<const double> disk_util;
  const columnar::ColumnView& net_kbps_col;  // presence of net_kbps
  std::span<const double> net_kbps;
};

struct PowerRows {
  explicit PowerRows(const columnar::ChunkView& view);
  PowerEvent row(std::uint32_t r) const {
    return {ServerId{server[r]}, at[r], powered_on[r] != 0};
  }

  std::span<const std::int32_t> server;
  std::span<const std::int64_t> at;
  std::span<const std::uint8_t> powered_on;
};

struct SnapshotRows {
  explicit SnapshotRows(const columnar::ChunkView& view);
  MonthlySnapshot row(std::uint32_t r) const {
    return {ServerId{server[r]}, month[r], BoxId{box[r]}, consolidation[r]};
  }

  std::span<const std::int32_t> server, month, box, consolidation;
};

// ---- chunk walk ----

// Calls fn(view, first_row) for every chunk of `table` in file order;
// `first_row` is the table-wide index of the chunk's first row. Strict
// when `report` is null: a damaged chunk throws its ChunkError. Otherwise
// a damaged chunk is skipped and recorded in *report, and the chunks
// after it keep their row positions. Each chunk is released
// (ChunkReader::release) once fn returns, or once it is found damaged.
void for_each_chunk(
    const ChunkReader& reader, columnar::Table table,
    DegradedReadReport* report,
    const std::function<void(const columnar::ChunkView&, std::int64_t)>& fn);

// ---- whole-database convenience ----

// Streams every table of a finalized database through `writer` (windows +
// incident counter included); the caller still owns finish().
void write_columnar(const TraceDatabase& db, ColumnarWriter& writer);

// Writes a finalized database to `path`; returns the size report.
FileReport save_columnar(const TraceDatabase& db, const std::string& path,
                         std::uint32_t chunk_rows = kDefaultChunkRows);

// Loads a columnar file into a finalized in-memory database (see
// analysis/out_of_core.h for the streaming path). Each ticket chunk's two
// dictionaries are copied into the database's text arena once, and every
// ticket views its slots there. Strict when `report` is null: any damaged
// chunk, a value outside its column's domain, a present non-finite
// optional double, or a row naming a server past the servers table throws
// a ChunkError naming the table, chunk and offset (and the row). With a
// report the load degrades instead: damaged chunks are skipped and
// recorded, and later chunks keep their row positions. Server ids are row
// positions, so a skipped server chunk loses every server from it on (the
// servers table keeps its longest undamaged chunk prefix), and rows that
// name a server at or past the loaded prefix, lost or never in the file,
// are dropped and counted as dangling. Every other row is kept exactly as
// the strict load keeps it.
TraceDatabase load_columnar(const std::string& path, bool use_mmap = true,
                            DegradedReadReport* report = nullptr);

}  // namespace fa::trace

#include "src/trace/columnar_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <optional>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/trace/columnar_format.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace fa::trace {
namespace {

using columnar::ChunkInfo;
using columnar::ChunkView;
using columnar::ColumnBlockInfo;
using columnar::Encoding;
using columnar::Table;
using columnar::fnv1a;
using columnar::kTableCount;
using columnar::table_schema;
namespace col = columnar::col;

using format::kFrameBytes;
using format::kHeaderBytes;
using format::kTailBytes;

obs::Counter& chunks_written_counter() {
  static obs::Counter& c = obs::counter("fa.trace.columnar.chunks_written");
  return c;
}
obs::Counter& rows_written_counter() {
  static obs::Counter& c = obs::counter("fa.trace.columnar.rows_written");
  return c;
}
obs::Counter& chunks_read_counter() {
  static obs::Counter& c = obs::counter("fa.trace.columnar.chunks_read");
  return c;
}
obs::Counter& checkpoints_counter() {
  static obs::Counter& c = obs::counter("fa.trace.columnar.checkpoints");
  return c;
}
obs::Counter& chunks_skipped_counter() {
  static obs::Counter& c = obs::counter("fa.trace.columnar.chunks_skipped");
  return c;
}

FileReport build_report(
    const std::array<std::vector<ChunkInfo>, kTableCount>& directory,
    const std::array<std::uint64_t, kTableCount>& row_counts,
    std::uint64_t footer_bytes) {
  FileReport report;
  report.footer_bytes = footer_bytes;
  for (int t = 0; t < kTableCount; ++t) {
    const Table table = columnar::kAllTables[t];
    report.rows[t] = row_counts[t];
    report.chunks[t] = directory[t].size();
    for (const ChunkInfo& chunk : directory[t]) {
      report.data_bytes += chunk.size;
    }
    const auto& schema = table_schema(table);
    for (std::size_t ci = 0; ci < schema.size(); ++ci) {
      ColumnReport col;
      col.table = table;
      col.name = std::string(schema[ci].name);
      col.encoding = schema[ci].encoding;
      for (const ChunkInfo& chunk : directory[t]) {
        const ColumnBlockInfo& block = chunk.columns[ci];
        col.bytes += block.size;
        if (schema[ci].encoding == Encoding::kStringDict) {
          col.dict_entries += block.extra;
          col.max_dict_entries =
              std::max<std::uint64_t>(col.max_dict_entries, block.extra);
        }
      }
      report.columns.push_back(std::move(col));
    }
  }
  return report;
}

format::FooterImage make_footer_image(
    const ObservationWindow& window, const ObservationWindow& monitoring,
    const ObservationWindow& onoff, std::int32_t next_incident,
    std::uint32_t chunk_rows,
    const std::array<std::uint64_t, kTableCount>& row_counts,
    const std::array<std::vector<ChunkInfo>, kTableCount>& directory) {
  format::FooterImage image;
  image.window = window;
  image.monitoring = monitoring;
  image.onoff = onoff;
  image.next_incident = next_incident;
  image.chunk_rows = chunk_rows;
  image.row_counts = row_counts;
  image.directory = directory;
  return image;
}

}  // namespace

bool is_columnar_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == 4 &&
         std::memcmp(magic, kColumnarMagic.data(), 4) == 0;
}

// ---- located read errors / degraded reads ----

const char* read_defect_name(ReadDefect defect) {
  switch (defect) {
    case ReadDefect::kChecksumMismatch:
      return "checksum_mismatch";
    case ReadDefect::kTruncated:
      return "truncated";
    case ReadDefect::kDecodeError:
      return "decode_error";
    case ReadDefect::kIoError:
      return "io_error";
  }
  return "unknown";
}

ChunkError::ChunkError(const std::string& path, columnar::Table table,
                       std::size_t index, std::uint64_t offset,
                       std::uint64_t size, ReadDefect defect,
                       const std::string& detail)
    : Error("columnar: " + path + ": " +
            std::string(columnar::table_name(table)) + " chunk " +
            std::to_string(index) + " at offset " + std::to_string(offset) +
            " (" + std::to_string(size) + " B): " + detail),
      table_(table),
      index_(index),
      offset_(offset),
      defect_(defect) {}

void DegradedReadReport::record(const ChunkError& error, std::uint32_t rows) {
  const auto t = static_cast<std::size_t>(error.table());
  ++chunks_skipped[t];
  rows_skipped[t] += rows;
  ++by_defect[static_cast<std::size_t>(error.defect())];
  chunks_skipped_counter().add(1);
}

bool DegradedReadReport::degraded() const {
  for (int t = 0; t < kTableCount; ++t) {
    if (chunks_skipped[t] != 0) return true;
  }
  return rows_dropped_dangling != 0;
}

std::uint64_t DegradedReadReport::total_rows_skipped() const {
  std::uint64_t total = 0;
  for (int t = 0; t < kTableCount; ++t) total += rows_skipped[t];
  return total;
}

std::string DegradedReadReport::to_string() const {
  if (!degraded()) return "degraded read: clean (no chunks skipped)\n";
  std::string out = "degraded read: PARTIAL DATA\n";
  for (int t = 0; t < kTableCount; ++t) {
    if (chunks_skipped[t] == 0) continue;
    out += "  " + std::string(columnar::table_name(columnar::kAllTables[t])) +
           ": skipped " + std::to_string(chunks_skipped[t]) + " chunk(s), " +
           std::to_string(rows_skipped[t]) + " row(s)\n";
  }
  for (int d = 0; d < kReadDefectCount; ++d) {
    if (by_defect[d] == 0) continue;
    out += "  defect " + std::string(read_defect_name(
                             static_cast<ReadDefect>(d))) +
           ": " + std::to_string(by_defect[d]) + " chunk(s)\n";
  }
  if (rows_dropped_dangling != 0) {
    out += "  dangling rows dropped: " +
           std::to_string(rows_dropped_dangling) + "\n";
  }
  return out;
}

// ---- ColumnarWriter ----

ColumnarWriter::ColumnarWriter(const std::string& path,
                               std::uint32_t chunk_rows)
    : ColumnarWriter(path, WriterOptions{.chunk_rows = chunk_rows}) {}

ColumnarWriter::ColumnarWriter(const std::string& path,
                               const WriterOptions& options)
    : ColumnarWriter(std::make_unique<io::PosixWritableFile>(path), options) {}

ColumnarWriter::ColumnarWriter(std::unique_ptr<io::WritableFile> file,
                               const WriterOptions& options)
    : path_(file->path()),
      out_(std::move(file), options.retry, options.clock),
      chunk_rows_(options.chunk_rows),
      checkpoint_every_chunks_(options.checkpoint_every_chunks),
      window_(ticket_window()),
      monitoring_(monitoring_window()),
      onoff_(onoff_window()) {
  require(chunk_rows_ > 0, "columnar: chunk_rows must be positive");
  builders_.reserve(kTableCount);
  for (Table table : columnar::kAllTables) builders_.emplace_back(table);
  std::array<std::byte, kHeaderBytes> header;
  std::memcpy(header.data(), kColumnarMagic.data(), 4);
  const std::uint32_t version = kColumnarVersion;
  std::memcpy(header.data() + 4, &version, sizeof(version));
  out_.write(header.data(), header.size());
}

ColumnarWriter::~ColumnarWriter() = default;

void ColumnarWriter::set_windows(ObservationWindow ticket,
                                 ObservationWindow monitoring,
                                 ObservationWindow onoff_tracking) {
  require(!finished_, "columnar: set_windows after finish");
  window_ = ticket;
  monitoring_ = monitoring;
  onoff_ = onoff_tracking;
}

template <typename Row, typename Fill>
void ColumnarWriter::append_slices(Table table, std::span<const Row> rows,
                                   const Fill& fill) {
  require(!finished_, "columnar: write after finish");
  const auto t = static_cast<std::size_t>(table);
  columnar::ChunkBuilder& b = builders_[t];
  while (!rows.empty()) {
    const std::size_t n =
        std::min<std::size_t>(chunk_rows_ - b.rows(), rows.size());
    fill(b, rows.first(n));
    b.advance_rows(n);
    row_counts_[t] += n;
    rows_written_counter().add(n);
    if (b.rows() >= chunk_rows_) flush_chunk(table);
    rows = rows.subspan(n);
  }
}

namespace {

// One fill per table: each column of a slice in schema order (chunk.h).

void fill_servers(columnar::ChunkBuilder& b, std::span<const ServerRecord> s) {
  using namespace columnar::col;
  const std::size_t n = s.size();
  b.fill<std::uint8_t>(kServerType, n,
                       [&](std::size_t i) { return s[i].type; });
  b.fill<std::uint8_t>(kServerSubsystem, n,
                       [&](std::size_t i) { return s[i].subsystem; });
  b.fill<std::int32_t>(kServerCpuCount, n,
                       [&](std::size_t i) { return s[i].cpu_count; });
  b.fill<double>(kServerMemoryGb, n,
                 [&](std::size_t i) { return s[i].memory_gb; });
  b.fill_optional<double>(kServerDiskGb, n, [&](std::size_t i) -> const auto& {
    return s[i].disk_gb;
  });
  b.fill_optional<std::int32_t>(
      kServerDiskCount, n,
      [&](std::size_t i) -> const auto& { return s[i].disk_count; });
  b.fill<std::int32_t>(kServerHostBox, n,
                       [&](std::size_t i) { return s[i].host_box.value; });
  b.fill<std::int64_t>(kServerFirstRecord, n,
                       [&](std::size_t i) { return s[i].first_record; });
}

void fill_ticket_column(columnar::ChunkBuilder& b, std::span<const Ticket> t,
                        std::size_t column) {
  using namespace columnar::col;
  const std::size_t n = t.size();
  switch (column) {
    case kTicketIncident:
      b.fill<std::int32_t>(column, n,
                           [&](std::size_t i) { return t[i].incident.value; });
      break;
    case kTicketServer:
      b.fill<std::int32_t>(column, n,
                           [&](std::size_t i) { return t[i].server.value; });
      break;
    case kTicketSubsystem:
      b.fill<std::uint8_t>(column, n,
                           [&](std::size_t i) { return t[i].subsystem; });
      break;
    case kTicketIsCrash:
      b.fill<std::uint8_t>(column, n,
                           [&](std::size_t i) { return t[i].is_crash; });
      break;
    case kTicketTrueClass:
      b.fill<std::uint8_t>(column, n,
                           [&](std::size_t i) { return t[i].true_class; });
      break;
    case kTicketOpened:
      b.fill<std::int64_t>(column, n,
                           [&](std::size_t i) { return t[i].opened; });
      break;
    case kTicketClosed:
      b.fill<std::int64_t>(column, n,
                           [&](std::size_t i) { return t[i].closed; });
      break;
    case kTicketDescription:
      b.fill_strings(column, n,
                     [&](std::size_t i) { return t[i].description; });
      break;
    case kTicketResolution:
      b.fill_strings(column, n,
                     [&](std::size_t i) { return t[i].resolution; });
      break;
  }
}

void fill_usage(columnar::ChunkBuilder& b, std::span<const WeeklyUsage> u) {
  using namespace columnar::col;
  const std::size_t n = u.size();
  b.fill<std::int32_t>(kUsageServer, n,
                       [&](std::size_t i) { return u[i].server.value; });
  b.fill<std::int32_t>(kUsageWeek, n, [&](std::size_t i) { return u[i].week; });
  b.fill<double>(kUsageCpuUtil, n,
                 [&](std::size_t i) { return u[i].cpu_util; });
  b.fill<double>(kUsageMemUtil, n,
                 [&](std::size_t i) { return u[i].mem_util; });
  b.fill_optional<double>(kUsageDiskUtil, n, [&](std::size_t i) -> const auto& {
    return u[i].disk_util;
  });
  b.fill_optional<double>(kUsageNetKbps, n, [&](std::size_t i) -> const auto& {
    return u[i].net_kbps;
  });
}

void fill_power(columnar::ChunkBuilder& b, std::span<const PowerEvent> e) {
  using namespace columnar::col;
  const std::size_t n = e.size();
  b.fill<std::int32_t>(kPowerServer, n,
                       [&](std::size_t i) { return e[i].server.value; });
  b.fill<std::int64_t>(kPowerAt, n, [&](std::size_t i) { return e[i].at; });
  b.fill<std::uint8_t>(kPowerOn, n,
                       [&](std::size_t i) { return e[i].powered_on; });
}

void fill_snapshots(columnar::ChunkBuilder& b,
                    std::span<const MonthlySnapshot> m) {
  using namespace columnar::col;
  const std::size_t n = m.size();
  b.fill<std::int32_t>(kSnapServer, n,
                       [&](std::size_t i) { return m[i].server.value; });
  b.fill<std::int32_t>(kSnapMonth, n,
                       [&](std::size_t i) { return m[i].month; });
  b.fill<std::int32_t>(kSnapBox, n,
                       [&](std::size_t i) { return m[i].box.value; });
  b.fill<std::int32_t>(kSnapConsolidation, n,
                       [&](std::size_t i) { return m[i].consolidation; });
}

}  // namespace

void ColumnarWriter::add_servers(std::span<const ServerRecord> records) {
  append_slices(Table::kServers, records, fill_servers);
}

void ColumnarWriter::add_tickets(std::span<const Ticket> tickets) {
  append_slices(Table::kTickets, tickets,
                [](columnar::ChunkBuilder& b, std::span<const Ticket> slice) {
                  const auto fill = [&](std::size_t column) {
                    fill_ticket_column(b, slice, column);
                  };
                  const std::size_t columns =
                      table_schema(Table::kTickets).size();
                  // One task per ticket column for a batch. Each fills only
                  // its own column's state, so scheduling order cannot
                  // affect the encoded bytes; dictionary slots still follow
                  // row order within each text column.
                  if (slice.size() > 1) {
                    parallel_for(columns, fill);
                  } else {
                    for (std::size_t ci = 0; ci < columns; ++ci) fill(ci);
                  }
                });
}

void ColumnarWriter::add_weekly_usage_rows(std::span<const WeeklyUsage> rows) {
  append_slices(Table::kWeeklyUsage, rows, fill_usage);
}

void ColumnarWriter::add_power_events(std::span<const PowerEvent> events) {
  append_slices(Table::kPowerEvents, events, fill_power);
}

void ColumnarWriter::add_monthly_snapshots(
    std::span<const MonthlySnapshot> snapshots) {
  append_slices(Table::kSnapshots, snapshots, fill_snapshots);
}

void ColumnarWriter::flush_chunk(Table table) {
  const auto t = static_cast<std::size_t>(table);
  if (builders_[t].rows() == 0) return;
  // The chunk payload is encoded right after space reserved for its frame
  // header, so header + payload hit the file in one write.
  scratch_.assign(kFrameBytes, std::byte{0});
  ChunkInfo info = builders_[t].encode(scratch_);
  format::FrameHeader frame;
  frame.kind = format::FrameKind::kChunk;
  frame.table = static_cast<std::uint8_t>(table);
  frame.rows = info.rows;
  frame.payload_size = info.size;
  frame.checksum = info.checksum;
  format::write_frame_header(frame, scratch_.data());
  // encode() offsets are relative to the frame start (payload at
  // kFrameBytes); rebase onto the file position of this frame.
  const std::uint64_t base = out_.offset();
  info.offset += base;
  for (ColumnBlockInfo& block : info.columns) block.offset += base;
  out_.write(scratch_.data(), scratch_.size());
  directory_[t].push_back(std::move(info));
  chunks_written_counter().add(1);
  if (checkpoint_every_chunks_ > 0 &&
      ++chunks_since_checkpoint_ >= checkpoint_every_chunks_) {
    write_checkpoint();
    chunks_since_checkpoint_ = 0;
  }
}

void ColumnarWriter::write_checkpoint() {
  // A checkpoint describes durable state only: rows still buffered in the
  // builders are not on disk yet, so the snapshot counts flushed chunks,
  // not rows added (the footer parser checks directory vs row counts).
  std::array<std::uint64_t, kTableCount> flushed_rows{};
  for (std::size_t t = 0; t < kTableCount; ++t) {
    for (const ChunkInfo& info : directory_[t]) flushed_rows[t] += info.rows;
  }
  const std::vector<std::byte> payload = format::serialize_footer_payload(
      make_footer_image(window_, monitoring_, onoff_, next_incident_,
                        chunk_rows_, flushed_rows, directory_));
  scratch_.assign(kFrameBytes + format::padded(payload.size(), 8),
                  std::byte{0});
  format::FrameHeader frame;
  frame.kind = format::FrameKind::kCheckpoint;
  frame.table = format::kNoTable;
  frame.rows = 0;
  frame.payload_size = payload.size();
  frame.checksum = fnv1a(payload.data(), payload.size());
  format::write_frame_header(frame, scratch_.data());
  std::memcpy(scratch_.data() + kFrameBytes, payload.data(), payload.size());
  out_.write(scratch_.data(), scratch_.size());
  checkpoints_counter().add(1);
}

void ColumnarWriter::finish() {
  require(!finished_, "columnar: finish called twice");
  for (Table table : columnar::kAllTables) flush_chunk(table);
  write_footer();
  out_.flush();
  out_.close();
  finished_ = true;
}

void ColumnarWriter::write_footer() {
  std::vector<std::byte> bytes = format::serialize_footer_payload(
      make_footer_image(window_, monitoring_, onoff_, next_incident_,
                        chunk_rows_, row_counts_, directory_));
  const std::uint64_t footer_size = bytes.size();
  const std::uint64_t footer_checksum = fnv1a(bytes.data(), bytes.size());
  const auto put = [&bytes](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  put(&footer_size, sizeof(footer_size));
  put(&footer_checksum, sizeof(footer_checksum));
  put(kColumnarMagic.data(), kColumnarMagic.size());
  const std::uint32_t version = kColumnarVersion;
  put(&version, sizeof(version));
  out_.write(bytes.data(), bytes.size());
  report_ = build_report(directory_, row_counts_, footer_size + kTailBytes);
}

const FileReport& ColumnarWriter::report() const {
  require(finished_, "columnar: report only available after finish");
  return report_;
}

// ---- ChunkReader ----

ChunkReader::ChunkReader(const std::string& path, bool use_mmap)
    : path_(path) {
  if (use_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st {};
      if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
        void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                           PROT_READ, MAP_PRIVATE, fd, 0);
        if (map != MAP_FAILED) {
          mapping_ = static_cast<const std::byte*>(map);
          mapping_size_ = static_cast<std::uint64_t>(st.st_size);
          file_size_ = mapping_size_;
        }
      }
      // The mapping outlives the descriptor.
      ::close(fd);
    }
  }
  if (mapping_ == nullptr) {
    reader_ = std::make_unique<io::CheckedReader>(
        std::make_unique<io::PosixReadableFile>(path));
    file_size_ = reader_->size();
  }
  try {
    open_footer();
  } catch (...) {
    if (mapping_ != nullptr) {
      ::munmap(const_cast<std::byte*>(mapping_), mapping_size_);
      mapping_ = nullptr;
    }
    throw;
  }
}

ChunkReader::ChunkReader(std::unique_ptr<io::ReadableFile> file,
                         io::RetryPolicy retry, io::Clock* clock)
    : path_(file->path()),
      reader_(std::make_unique<io::CheckedReader>(std::move(file), retry,
                                                  clock)) {
  file_size_ = reader_->size();
  open_footer();
}

void ChunkReader::open_footer() {
  const auto read_at = [&](std::uint64_t offset, void* dest,
                           std::size_t size) {
    if (mapping_ != nullptr) {
      std::memcpy(dest, mapping_ + offset, size);
      return;
    }
    reader_->read_at(offset, dest, size);
  };

  require(file_size_ >= kHeaderBytes + kTailBytes,
          "columnar: " + path_ + " is truncated (no header/tail)");

  char magic[4];
  std::uint32_t version = 0;
  read_at(0, magic, 4);
  require(std::memcmp(magic, kColumnarMagic.data(), 4) == 0,
          "columnar: " + path_ + " is not a columnar trace file "
          "(bad magic)");
  read_at(4, &version, sizeof(version));
  require(version == kColumnarVersion,
          "columnar: " + path_ + " has unsupported format version " +
              std::to_string(version) + " (expected " +
              std::to_string(kColumnarVersion) + ")");

  std::uint64_t footer_size = 0;
  std::uint64_t footer_checksum = 0;
  read_at(file_size_ - kTailBytes, &footer_size, sizeof(footer_size));
  read_at(file_size_ - kTailBytes + 8, &footer_checksum,
          sizeof(footer_checksum));
  read_at(file_size_ - kTailBytes + 16, magic, 4);
  read_at(file_size_ - kTailBytes + 20, &version, sizeof(version));
  require(std::memcmp(magic, kColumnarMagic.data(), 4) == 0 &&
              version == kColumnarVersion,
          "columnar: " + path_ + " has a corrupt or truncated tail");
  require(footer_size <= file_size_ - kHeaderBytes - kTailBytes,
          "columnar: " + path_ + " footer escapes the file (truncated?)");
  const std::uint64_t footer_start = file_size_ - kTailBytes - footer_size;
  footer_bytes_ = footer_size + kTailBytes;

  std::vector<std::byte> footer(footer_size);
  read_at(footer_start, footer.data(), footer.size());
  require(fnv1a(footer.data(), footer.size()) == footer_checksum,
          "columnar: " + path_ + " footer checksum mismatch (corrupt)");

  format::FooterImage image = format::parse_footer_payload(
      footer.data(), footer.size(), footer_start, path_);
  window_ = image.window;
  monitoring_ = image.monitoring;
  onoff_ = image.onoff;
  next_incident_ = image.next_incident;
  chunk_rows_ = image.chunk_rows;
  row_counts_ = image.row_counts;
  directory_ = std::move(image.directory);
}

ChunkReader::~ChunkReader() {
  if (mapping_ != nullptr) {
    ::munmap(const_cast<std::byte*>(mapping_), mapping_size_);
  }
}

std::uint64_t ChunkReader::row_count(Table table) const {
  return row_counts_[static_cast<std::size_t>(table)];
}

std::size_t ChunkReader::chunk_count(Table table) const {
  return directory_[static_cast<std::size_t>(table)].size();
}

const ChunkInfo& ChunkReader::chunk_info(Table table,
                                         std::size_t index) const {
  const auto& chunks = directory_[static_cast<std::size_t>(table)];
  require(index < chunks.size(), "columnar: chunk index out of range");
  return chunks[index];
}

ChunkView ChunkReader::chunk(Table table, std::size_t index) const {
  const ChunkInfo& info = chunk_info(table, index);
  chunks_read_counter().add(1);
  if (info.offset > file_size_ || info.size > file_size_ - info.offset) {
    throw ChunkError(path_, table, index, info.offset, info.size,
                     ReadDefect::kTruncated,
                     "chunk escapes the file (truncated)");
  }
  const auto decode = [&](const std::byte* base,
                          std::vector<std::byte> owned) -> ChunkView {
    try {
      return ChunkView(table, info, base, std::move(owned));
    } catch (const Error& e) {
      throw ChunkError(path_, table, index, info.offset, info.size,
                       ReadDefect::kDecodeError, e.what());
    }
  };
  if (mapping_ != nullptr) {
    const std::byte* base = mapping_ + info.offset;
    if (fnv1a(base, info.size) != info.checksum) {
      throw ChunkError(path_, table, index, info.offset, info.size,
                       ReadDefect::kChecksumMismatch,
                       "checksum mismatch (corrupt)");
    }
    return decode(base, {});
  }
  std::vector<std::byte> owned(info.size);
  try {
    reader_->read_at(info.offset, owned.data(), owned.size());
  } catch (const io::IoError& e) {
    throw ChunkError(path_, table, index, info.offset, info.size,
                     ReadDefect::kIoError, e.what());
  }
  if (fnv1a(owned.data(), owned.size()) != info.checksum) {
    throw ChunkError(path_, table, index, info.offset, info.size,
                     ReadDefect::kChecksumMismatch,
                     "checksum mismatch (corrupt)");
  }
  const std::byte* base = owned.data();
  return decode(base, std::move(owned));
}

void ChunkReader::release(Table table, std::size_t index) const {
  const ChunkInfo& info = chunk_info(table, index);
  // Buffered views free their own copy; a chunk starting past the end of
  // a truncated file touched no page.
  if (mapping_ == nullptr || info.offset >= mapping_size_) return;
  static const auto page =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t begin = info.offset / page * page;
  const std::uint64_t end =
      info.offset + std::min(info.size, mapping_size_ - info.offset);
  // Best effort: should madvise fail, the pages merely stay resident.
  ::madvise(const_cast<std::byte*>(mapping_) + begin, end - begin,
            MADV_DONTNEED);
}

FileReport ChunkReader::report() const {
  return build_report(directory_, row_counts_, footer_bytes_);
}

// ---- row decoders ----

ServerRows::ServerRows(const ChunkView& view, std::int64_t first_id)
    : first_id(first_id),
      type(view.column(col::kServerType).u8_span()),
      subsystem(view.column(col::kServerSubsystem).u8_span()),
      cpu_count(view.column(col::kServerCpuCount).i32_span()),
      memory_gb(view.column(col::kServerMemoryGb).f64_span()),
      disk_gb_col(view.column(col::kServerDiskGb)),
      disk_gb(disk_gb_col.f64_span()),
      disk_count_col(view.column(col::kServerDiskCount)),
      disk_count(disk_count_col.i32_span()),
      host_box(view.column(col::kServerHostBox).i32_span()),
      first_record(view.column(col::kServerFirstRecord).i64_span()) {}

TicketRows::TicketRows(const ChunkView& view, std::int64_t first_id)
    : first_id(first_id),
      incident(view.column(col::kTicketIncident).i32_span()),
      server(view.column(col::kTicketServer).i32_span()),
      subsystem(view.column(col::kTicketSubsystem).u8_span()),
      is_crash(view.column(col::kTicketIsCrash).u8_span()),
      true_class(view.column(col::kTicketTrueClass).u8_span()),
      opened(view.column(col::kTicketOpened).i64_span()),
      closed(view.column(col::kTicketClosed).i64_span()),
      description(view.column(col::kTicketDescription)),
      resolution(view.column(col::kTicketResolution)) {}

UsageRows::UsageRows(const ChunkView& view)
    : server(view.column(col::kUsageServer).i32_span()),
      week(view.column(col::kUsageWeek).i32_span()),
      cpu_util(view.column(col::kUsageCpuUtil).f64_span()),
      mem_util(view.column(col::kUsageMemUtil).f64_span()),
      disk_util_col(view.column(col::kUsageDiskUtil)),
      disk_util(disk_util_col.f64_span()),
      net_kbps_col(view.column(col::kUsageNetKbps)),
      net_kbps(net_kbps_col.f64_span()) {}

PowerRows::PowerRows(const ChunkView& view)
    : server(view.column(col::kPowerServer).i32_span()),
      at(view.column(col::kPowerAt).i64_span()),
      powered_on(view.column(col::kPowerOn).u8_span()) {}

SnapshotRows::SnapshotRows(const ChunkView& view)
    : server(view.column(col::kSnapServer).i32_span()),
      month(view.column(col::kSnapMonth).i32_span()),
      box(view.column(col::kSnapBox).i32_span()),
      consolidation(view.column(col::kSnapConsolidation).i32_span()) {}

// ---- chunk walk ----

void for_each_chunk(
    const ChunkReader& reader, Table table, DegradedReadReport* report,
    const std::function<void(const ChunkView&, std::int64_t)>& fn) {
  std::int64_t first_row = 0;
  for (std::size_t i = 0; i < reader.chunk_count(table); ++i) {
    const std::uint32_t rows = reader.chunk_info(table, i).rows;
    std::optional<ChunkView> view;
    try {
      view.emplace(reader.chunk(table, i));
    } catch (const ChunkError& e) {
      if (report == nullptr) throw;
      report->record(e, rows);
    }
    if (view) fn(*view, first_row);
    reader.release(table, i);
    first_row += rows;
  }
}

// ---- whole-database convenience ----

void write_columnar(const TraceDatabase& db, ColumnarWriter& writer) {
  writer.set_windows(db.window(), db.monitoring(), db.onoff_tracking());
  std::int32_t next_incident = 0;
  for (const Ticket& t : db.tickets()) {
    next_incident = std::max(next_incident, t.incident.value + 1);
  }
  writer.set_next_incident(next_incident);
  writer.add_servers(db.servers());
  writer.add_tickets(db.tickets());
  for (const ServerRecord& s : db.servers()) {
    writer.add_weekly_usage_rows(db.weekly_usage_for(s.id));
  }
  for (const ServerRecord& s : db.servers()) {
    writer.add_power_events(db.power_events_for(s.id));
  }
  for (const ServerRecord& s : db.servers()) {
    writer.add_monthly_snapshots(db.snapshots_for(s.id));
  }
}

FileReport save_columnar(const TraceDatabase& db, const std::string& path,
                         std::uint32_t chunk_rows) {
  obs::Span span("trace.columnar.save");
  ColumnarWriter writer(path, chunk_rows);
  write_columnar(db, writer);
  writer.finish();
  return writer.report();
}

namespace {

// The strict load's error for row `r` of the `table` chunk that starts at
// table row `first_row`: the row names `server`, past the file's `servers`
// server rows.
[[noreturn]] void fail_past_servers(const ChunkReader& reader, Table table,
                                    std::int64_t first_row, std::uint32_t r,
                                    std::int32_t server,
                                    std::int64_t servers) {
  std::size_t index = 0;
  for (std::int64_t row = 0; row < first_row; ++index) {
    row += reader.chunk_info(table, index).rows;
  }
  const ChunkInfo& info = reader.chunk_info(table, index);
  throw ChunkError(reader.path(), table, index, info.offset, info.size,
                   ReadDefect::kDecodeError,
                   std::string(columnar::table_name(table)) + ".server row " +
                       std::to_string(r) + " names server " +
                       std::to_string(server) + ", past the servers table (" +
                       std::to_string(servers) + " rows)");
}

// Adds every row of one monitoring table to `db` through decoder Rows,
// except rows that `dangles` drops.
template <typename Rows, typename Dangles, typename Add>
void load_monitoring(const ChunkReader& reader, Table table,
                     DegradedReadReport* report, const Dangles& dangles,
                     const Add& add) {
  for_each_chunk(reader, table, report,
                 [&](const ChunkView& view, std::int64_t first_row) {
                   const Rows rows(view);
                   for (std::uint32_t r = 0; r < view.rows(); ++r) {
                     if (dangles(table, first_row, r, rows.server[r])) {
                       continue;
                     }
                     add(rows.row(r));
                   }
                 });
}

}  // namespace

TraceDatabase load_columnar(const std::string& path, bool use_mmap,
                            DegradedReadReport* report) {
  obs::Span span("trace.columnar.load");
  ChunkReader reader(path, use_mmap);
  TraceDatabase db;
  db.set_windows(reader.window(), reader.monitoring(),
                 reader.onoff_tracking());
  db.reserve(reader.row_count(Table::kServers),
             reader.row_count(Table::kTickets),
             reader.row_count(Table::kWeeklyUsage),
             reader.row_count(Table::kPowerEvents),
             reader.row_count(Table::kSnapshots));

  // Server ids are row positions, so once a server chunk is skipped every
  // later server is lost too: the servers table keeps its longest
  // undamaged chunk prefix.
  std::int64_t servers_loaded = 0;
  std::uint64_t dangling = 0;
  for_each_chunk(reader, Table::kServers, report,
                 [&](const ChunkView& view, std::int64_t first_row) {
                   if (first_row != servers_loaded) {
                     dangling += view.rows();
                     return;
                   }
                   const ServerRows rows(view, first_row);
                   for (std::uint32_t r = 0; r < view.rows(); ++r) {
                     db.add_server(rows.row(r));
                   }
                   servers_loaded += view.rows();
                 });
  // A row naming a server at or past `servers_loaded` (lost with a skipped
  // server chunk, or past the file's servers table) is dropped and counted
  // by a degraded load. A strict load loses no server, so such a row names
  // one the file lacks, and the load fails at its location.
  const auto dangles = [&](Table table, std::int64_t first_row,
                           std::uint32_t r, std::int32_t server) {
    if (server < servers_loaded) return false;
    if (report == nullptr) {
      fail_past_servers(reader, table, first_row, r, server, servers_loaded);
    }
    ++dangling;
    return true;
  };

  std::int32_t max_incident = -1;
  for_each_chunk(
      reader, Table::kTickets, report,
      [&](const ChunkView& view, std::int64_t first_row) {
        const TicketRows rows(view, first_row);
        // The chunk's two dictionaries are copied in once; each row views
        // its slots in the copies.
        const std::string_view description =
            db.store_text(rows.description.dictionary());
        const std::string_view resolution =
            db.store_text(rows.resolution.dictionary());
        for (std::uint32_t r = 0; r < view.rows(); ++r) {
          if (dangles(Table::kTickets, first_row, r, rows.server[r])) {
            continue;
          }
          max_incident = std::max(max_incident, rows.incident[r]);
          db.add_stored_ticket(rows.row(r, description, resolution));
        }
      });
  load_monitoring<UsageRows>(
      reader, Table::kWeeklyUsage, report, dangles,
      [&](const WeeklyUsage& u) { db.add_weekly_usage(u); });
  load_monitoring<PowerRows>(
      reader, Table::kPowerEvents, report, dangles,
      [&](const PowerEvent& e) { db.add_power_event(e); });
  load_monitoring<SnapshotRows>(
      reader, Table::kSnapshots, report, dangles,
      [&](const MonthlySnapshot& s) { db.add_monthly_snapshot(s); });
  if (report != nullptr) report->rows_dropped_dangling += dangling;

  // The incident counter covers every loaded ticket's incident even where
  // the footer's counter falls short of it.
  db.raise_incident_counter(std::max<std::int64_t>(
      reader.next_incident(), std::int64_t{max_incident} + 1));
  db.finalize();
  return db;
}

}  // namespace fa::trace

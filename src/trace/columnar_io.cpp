#include "src/trace/columnar_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>

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

// Per-row decode checks (decode_server, decode_ticket) call this only when
// a value is out of range, so the happy path builds no message.
[[noreturn]] void fail_value(const char* what, std::int64_t value) {
  throw Error(std::string("columnar: invalid ") + what + " " +
              std::to_string(value));
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

void ColumnarWriter::append_rows_metric(Table table) {
  const auto t = static_cast<std::size_t>(table);
  ++row_counts_[t];
  rows_written_counter().add(1);
  if (builders_[t].rows() >= chunk_rows_) flush_chunk(table);
}

void ColumnarWriter::add_server(const ServerRecord& record) {
  require(!finished_, "columnar: write after finish");
  append_record(builders_[static_cast<std::size_t>(Table::kServers)], record);
  append_rows_metric(Table::kServers);
}

void ColumnarWriter::add_ticket(const Ticket& ticket) {
  require(!finished_, "columnar: write after finish");
  append_record(builders_[static_cast<std::size_t>(Table::kTickets)], ticket);
  append_rows_metric(Table::kTickets);
}

void ColumnarWriter::add_tickets(std::span<const Ticket> tickets) {
  require(!finished_, "columnar: write after finish");
  using namespace columnar::col;
  const auto t = static_cast<std::size_t>(Table::kTickets);
  columnar::ChunkBuilder& b = builders_[t];
  std::size_t done = 0;
  while (done < tickets.size()) {
    const std::size_t room = chunk_rows_ - b.rows();
    const std::size_t n = std::min(room, tickets.size() - done);
    const std::span<const Ticket> batch = tickets.subspan(done, n);
    // One task per ticket column. Each fills only its own column's state, so
    // scheduling order cannot affect the encoded bytes; dictionary slots
    // still follow row order within each text column.
    parallel_for(9, [&](std::size_t ci) {
      switch (ci) {
        case kTicketIncident:
          b.fill_ints(kTicketIncident, n,
                      [&](std::size_t i) { return batch[i].incident.value; });
          break;
        case kTicketServer:
          b.fill_ints(kTicketServer, n,
                      [&](std::size_t i) { return batch[i].server.value; });
          break;
        case kTicketSubsystem:
          b.fill_ints(kTicketSubsystem, n, [&](std::size_t i) {
            return static_cast<std::int64_t>(batch[i].subsystem);
          });
          break;
        case kTicketIsCrash:
          b.fill_ints(kTicketIsCrash, n, [&](std::size_t i) {
            return static_cast<std::int64_t>(batch[i].is_crash ? 1 : 0);
          });
          break;
        case kTicketTrueClass:
          b.fill_ints(kTicketTrueClass, n, [&](std::size_t i) {
            return static_cast<std::int64_t>(batch[i].true_class);
          });
          break;
        case kTicketOpened:
          b.fill_ints(kTicketOpened, n,
                      [&](std::size_t i) { return batch[i].opened; });
          break;
        case kTicketClosed:
          b.fill_ints(kTicketClosed, n,
                      [&](std::size_t i) { return batch[i].closed; });
          break;
        case kTicketDescription:
          b.fill_strings(kTicketDescription, n, [&](std::size_t i) {
            return std::string_view(batch[i].description);
          });
          break;
        case kTicketResolution:
          b.fill_strings(kTicketResolution, n, [&](std::size_t i) {
            return std::string_view(batch[i].resolution);
          });
          break;
      }
    });
    b.advance_rows(n);
    row_counts_[t] += n;
    rows_written_counter().add(n);
    done += n;
    if (b.rows() >= chunk_rows_) flush_chunk(Table::kTickets);
  }
}

void ColumnarWriter::add_weekly_usage(const WeeklyUsage& usage) {
  require(!finished_, "columnar: write after finish");
  append_record(builders_[static_cast<std::size_t>(Table::kWeeklyUsage)],
                usage);
  append_rows_metric(Table::kWeeklyUsage);
}

void ColumnarWriter::add_power_event(const PowerEvent& event) {
  require(!finished_, "columnar: write after finish");
  append_record(builders_[static_cast<std::size_t>(Table::kPowerEvents)],
                event);
  append_rows_metric(Table::kPowerEvents);
}

void ColumnarWriter::add_monthly_snapshot(const MonthlySnapshot& snapshot) {
  require(!finished_, "columnar: write after finish");
  append_record(builders_[static_cast<std::size_t>(Table::kSnapshots)],
                snapshot);
  append_rows_metric(Table::kSnapshots);
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

std::optional<ChunkView> ChunkReader::try_chunk(
    Table table, std::size_t index, DegradedReadReport* report) const {
  try {
    return chunk(table, index);
  } catch (const ChunkError& e) {
    if (report != nullptr) report->record(e, chunk_info(table, index).rows);
    return std::nullopt;
  }
}

FileReport ChunkReader::report() const {
  return build_report(directory_, row_counts_, footer_bytes_);
}

// ---- record bridge ----

void append_record(columnar::ChunkBuilder& b, const ServerRecord& r) {
  using namespace columnar::col;
  b.add_int(kServerType, static_cast<std::int64_t>(r.type));
  b.add_int(kServerSubsystem, r.subsystem);
  b.add_int(kServerCpuCount, r.cpu_count);
  b.add_double(kServerMemoryGb, r.memory_gb);
  b.add_opt_double(kServerDiskGb, r.disk_gb);
  b.add_opt_int(kServerDiskCount, r.disk_count);
  b.add_int(kServerHostBox, r.host_box.value);
  b.add_int(kServerFirstRecord, r.first_record);
  b.next_row();
}

void append_record(columnar::ChunkBuilder& b, const Ticket& t) {
  using namespace columnar::col;
  b.add_int(kTicketIncident, t.incident.value);
  b.add_int(kTicketServer, t.server.value);
  b.add_int(kTicketSubsystem, t.subsystem);
  b.add_int(kTicketIsCrash, t.is_crash ? 1 : 0);
  b.add_int(kTicketTrueClass, static_cast<std::int64_t>(t.true_class));
  b.add_int(kTicketOpened, t.opened);
  b.add_int(kTicketClosed, t.closed);
  b.add_string(kTicketDescription, t.description);
  b.add_string(kTicketResolution, t.resolution);
  b.next_row();
}

void append_record(columnar::ChunkBuilder& b, const WeeklyUsage& u) {
  using namespace columnar::col;
  b.add_int(kUsageServer, u.server.value);
  b.add_int(kUsageWeek, u.week);
  b.add_double(kUsageCpuUtil, u.cpu_util);
  b.add_double(kUsageMemUtil, u.mem_util);
  b.add_opt_double(kUsageDiskUtil, u.disk_util);
  b.add_opt_double(kUsageNetKbps, u.net_kbps);
  b.next_row();
}

void append_record(columnar::ChunkBuilder& b, const PowerEvent& e) {
  using namespace columnar::col;
  b.add_int(kPowerServer, e.server.value);
  b.add_int(kPowerAt, e.at);
  b.add_int(kPowerOn, e.powered_on ? 1 : 0);
  b.next_row();
}

void append_record(columnar::ChunkBuilder& b, const MonthlySnapshot& s) {
  using namespace columnar::col;
  b.add_int(kSnapServer, s.server.value);
  b.add_int(kSnapMonth, s.month);
  b.add_int(kSnapBox, s.box.value);
  b.add_int(kSnapConsolidation, s.consolidation);
  b.next_row();
}

ServerRecord decode_server(const ChunkView& view, std::uint32_t row,
                           std::int64_t first_row_id) {
  using namespace columnar::col;
  ServerRecord r;
  r.id = ServerId{static_cast<std::int32_t>(first_row_id + row)};
  const std::int64_t type = view.column(kServerType).int_at(row);
  if (type < 0 || type >= kMachineTypeCount) fail_value("machine type", type);
  r.type = static_cast<MachineType>(type);
  const std::int64_t sys = view.column(kServerSubsystem).int_at(row);
  if (sys < 0 || sys >= kSubsystemCount) fail_value("subsystem", sys);
  r.subsystem = static_cast<Subsystem>(sys);
  r.cpu_count = static_cast<int>(view.column(kServerCpuCount).int_at(row));
  r.memory_gb = view.column(kServerMemoryGb).double_at(row);
  if (view.column(kServerDiskGb).present_at(row)) {
    r.disk_gb = view.column(kServerDiskGb).double_at(row);
  }
  if (view.column(kServerDiskCount).present_at(row)) {
    r.disk_count =
        static_cast<int>(view.column(kServerDiskCount).int_at(row));
  }
  r.host_box = BoxId{
      static_cast<std::int32_t>(view.column(kServerHostBox).int_at(row))};
  r.first_record = view.column(kServerFirstRecord).int_at(row);
  return r;
}

Ticket decode_ticket(const ChunkView& view, std::uint32_t row,
                     std::int64_t first_row_id) {
  using namespace columnar::col;
  Ticket t;
  t.id = TicketId{static_cast<std::int32_t>(first_row_id + row)};
  t.incident = IncidentId{
      static_cast<std::int32_t>(view.column(kTicketIncident).int_at(row))};
  t.server = ServerId{
      static_cast<std::int32_t>(view.column(kTicketServer).int_at(row))};
  const std::int64_t sys = view.column(kTicketSubsystem).int_at(row);
  if (sys < 0 || sys >= kSubsystemCount) fail_value("subsystem", sys);
  t.subsystem = static_cast<Subsystem>(sys);
  const std::int64_t crash = view.column(kTicketIsCrash).int_at(row);
  if (crash != 0 && crash != 1) fail_value("is_crash", crash);
  t.is_crash = crash != 0;
  const std::int64_t cls = view.column(kTicketTrueClass).int_at(row);
  if (cls < 0 || cls >= kFailureClassCount) fail_value("failure class", cls);
  t.true_class = static_cast<FailureClass>(cls);
  t.opened = view.column(kTicketOpened).int_at(row);
  t.closed = view.column(kTicketClosed).int_at(row);
  t.description = std::string(view.column(kTicketDescription).string_at(row));
  t.resolution = std::string(view.column(kTicketResolution).string_at(row));
  return t;
}

WeeklyUsage decode_weekly_usage(const ChunkView& view, std::uint32_t row) {
  using namespace columnar::col;
  WeeklyUsage u;
  u.server = ServerId{
      static_cast<std::int32_t>(view.column(kUsageServer).int_at(row))};
  u.week = static_cast<int>(view.column(kUsageWeek).int_at(row));
  u.cpu_util = view.column(kUsageCpuUtil).double_at(row);
  u.mem_util = view.column(kUsageMemUtil).double_at(row);
  if (view.column(kUsageDiskUtil).present_at(row)) {
    u.disk_util = view.column(kUsageDiskUtil).double_at(row);
  }
  if (view.column(kUsageNetKbps).present_at(row)) {
    u.net_kbps = view.column(kUsageNetKbps).double_at(row);
  }
  return u;
}

PowerEvent decode_power_event(const ChunkView& view, std::uint32_t row) {
  using namespace columnar::col;
  PowerEvent e;
  e.server = ServerId{
      static_cast<std::int32_t>(view.column(kPowerServer).int_at(row))};
  e.at = view.column(kPowerAt).int_at(row);
  e.powered_on = view.column(kPowerOn).int_at(row) != 0;
  return e;
}

MonthlySnapshot decode_snapshot(const ChunkView& view, std::uint32_t row) {
  using namespace columnar::col;
  MonthlySnapshot s;
  s.server = ServerId{
      static_cast<std::int32_t>(view.column(kSnapServer).int_at(row))};
  s.month = static_cast<int>(view.column(kSnapMonth).int_at(row));
  s.box = BoxId{
      static_cast<std::int32_t>(view.column(kSnapBox).int_at(row))};
  s.consolidation =
      static_cast<int>(view.column(kSnapConsolidation).int_at(row));
  return s;
}

// ---- whole-database convenience ----

void write_columnar(const TraceDatabase& db, ColumnarWriter& writer) {
  writer.set_windows(db.window(), db.monitoring(), db.onoff_tracking());
  std::int32_t next_incident = 0;
  for (const Ticket& t : db.tickets()) {
    next_incident = std::max(next_incident, t.incident.value + 1);
  }
  writer.set_next_incident(next_incident);
  for (const ServerRecord& s : db.servers()) writer.add_server(s);
  writer.add_tickets(db.tickets());
  for (const ServerRecord& s : db.servers()) {
    for (const WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      writer.add_weekly_usage(u);
    }
  }
  for (const ServerRecord& s : db.servers()) {
    for (const PowerEvent& e : db.power_events_for(s.id)) {
      writer.add_power_event(e);
    }
  }
  for (const ServerRecord& s : db.servers()) {
    for (const MonthlySnapshot& m : db.snapshots_for(s.id)) {
      writer.add_monthly_snapshot(m);
    }
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

TraceDatabase load_columnar(const std::string& path, bool use_mmap) {
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

  std::int64_t first_row = 0;
  for (std::size_t i = 0; i < reader.chunk_count(Table::kServers); ++i) {
    const ChunkView view = reader.chunk(Table::kServers, i);
    for (std::uint32_t r = 0; r < view.rows(); ++r) {
      db.add_server(decode_server(view, r, first_row));
    }
    first_row += view.rows();
  }
  first_row = 0;
  for (std::size_t i = 0; i < reader.chunk_count(Table::kTickets); ++i) {
    using namespace columnar::col;
    const columnar::ChunkInfo& info = reader.chunk_info(Table::kTickets, i);
    // The footer min/max stats validate whole chunks of enum-like columns
    // at once; fall back to per-row checks only when a chunk lacks stats.
    const auto in_range = [&](std::size_t column, std::int64_t lo,
                              std::int64_t hi) {
      const columnar::ColumnStats& stats = info.columns[column].stats;
      return stats.has_minmax && stats.min >= lo && stats.max <= hi;
    };
    if (!in_range(kTicketSubsystem, 0, kSubsystemCount - 1) ||
        !in_range(kTicketIsCrash, 0, 1) ||
        !in_range(kTicketTrueClass, 0, kFailureClassCount - 1)) {
      const ChunkView view = reader.chunk(Table::kTickets, i);
      for (std::uint32_t r = 0; r < view.rows(); ++r) {
        db.add_ticket(decode_ticket(view, r, first_row));
      }
      first_row += view.rows();
      continue;
    }
    const ChunkView view = reader.chunk(Table::kTickets, i);
    const auto incident = view.column(kTicketIncident).i32_span();
    const auto server = view.column(kTicketServer).i32_span();
    const auto subsystem = view.column(kTicketSubsystem).u8_span();
    const auto is_crash = view.column(kTicketIsCrash).u8_span();
    const auto true_class = view.column(kTicketTrueClass).u8_span();
    const auto opened = view.column(kTicketOpened).i64_span();
    const auto closed = view.column(kTicketClosed).i64_span();
    const columnar::ColumnView& description =
        view.column(kTicketDescription);
    const columnar::ColumnView& resolution =
        view.column(kTicketResolution);
    for (std::uint32_t r = 0; r < view.rows(); ++r) {
      Ticket t;
      t.id = TicketId{static_cast<std::int32_t>(first_row + r)};
      t.incident = IncidentId{incident[r]};
      t.server = ServerId{server[r]};
      t.subsystem = static_cast<Subsystem>(subsystem[r]);
      t.is_crash = is_crash[r] != 0;
      t.true_class = static_cast<FailureClass>(true_class[r]);
      t.opened = opened[r];
      t.closed = closed[r];
      t.description = std::string(description.string_at(r));
      t.resolution = std::string(resolution.string_at(r));
      db.add_ticket(std::move(t));
    }
    first_row += view.rows();
  }
  // The monitoring tables are the row-count bulk of a trace; decode them
  // through typed column spans instead of the per-value generic accessors.
  using namespace columnar::col;
  for (std::size_t i = 0; i < reader.chunk_count(Table::kWeeklyUsage); ++i) {
    const ChunkView view = reader.chunk(Table::kWeeklyUsage, i);
    const auto server = view.column(kUsageServer).i32_span();
    const auto week = view.column(kUsageWeek).i32_span();
    const auto cpu = view.column(kUsageCpuUtil).f64_span();
    const auto mem = view.column(kUsageMemUtil).f64_span();
    const columnar::ColumnView& disk = view.column(kUsageDiskUtil);
    const columnar::ColumnView& net = view.column(kUsageNetKbps);
    for (std::uint32_t r = 0; r < view.rows(); ++r) {
      WeeklyUsage u;
      u.server = ServerId{server[r]};
      u.week = week[r];
      u.cpu_util = cpu[r];
      u.mem_util = mem[r];
      if (disk.present_at(r)) u.disk_util = disk.double_at(r);
      if (net.present_at(r)) u.net_kbps = net.double_at(r);
      db.add_weekly_usage(u);
    }
  }
  for (std::size_t i = 0; i < reader.chunk_count(Table::kPowerEvents); ++i) {
    const ChunkView view = reader.chunk(Table::kPowerEvents, i);
    const auto server = view.column(kPowerServer).i32_span();
    const auto at = view.column(kPowerAt).i64_span();
    const auto on = view.column(kPowerOn).u8_span();
    for (std::uint32_t r = 0; r < view.rows(); ++r) {
      db.add_power_event({ServerId{server[r]}, at[r], on[r] != 0});
    }
  }
  for (std::size_t i = 0; i < reader.chunk_count(Table::kSnapshots); ++i) {
    const ChunkView view = reader.chunk(Table::kSnapshots, i);
    const auto server = view.column(kSnapServer).i32_span();
    const auto month = view.column(kSnapMonth).i32_span();
    const auto box = view.column(kSnapBox).i32_span();
    const auto consolidation = view.column(kSnapConsolidation).i32_span();
    for (std::uint32_t r = 0; r < view.rows(); ++r) {
      db.add_monthly_snapshot(
          {ServerId{server[r]}, month[r], BoxId{box[r]}, consolidation[r]});
    }
  }
  for (std::int32_t i = 0; i < reader.next_incident(); ++i) {
    db.new_incident();
  }
  db.finalize();
  return db;
}

TraceDatabase load_columnar_lenient(const std::string& path,
                                    DegradedReadReport& report,
                                    bool use_mmap) {
  obs::Span span("trace.columnar.load_lenient");
  ChunkReader reader(path, use_mmap);
  TraceDatabase db;
  db.set_windows(reader.window(), reader.monitoring(),
                 reader.onoff_tracking());

  // Server ids are row positions, so a damaged server chunk orphans every
  // later positional id: keep only the longest undamaged chunk prefix.
  std::int64_t servers_loaded = 0;
  bool server_gap = false;
  for (std::size_t i = 0; i < reader.chunk_count(Table::kServers); ++i) {
    if (server_gap) {
      report.rows_dropped_dangling +=
          reader.chunk_info(Table::kServers, i).rows;
      continue;
    }
    const auto view = reader.try_chunk(Table::kServers, i, &report);
    if (!view) {
      server_gap = true;
      continue;
    }
    for (std::uint32_t r = 0; r < view->rows(); ++r) {
      db.add_server(decode_server(*view, r, servers_loaded + r));
    }
    servers_loaded += view->rows();
  }
  const auto server_ok = [&](std::int32_t sid) {
    return sid >= 0 && sid < servers_loaded;
  };

  // For the reference-free positional ids of the remaining tables, skipping
  // a damaged chunk is safe as long as `first_row` still advances by the
  // skipped chunk's row count (later decoded records keep their positions
  // in derived values like next_incident).
  std::int32_t max_incident = -1;
  std::int64_t first_row = 0;
  for (std::size_t i = 0; i < reader.chunk_count(Table::kTickets); ++i) {
    const std::uint32_t chunk_rows =
        reader.chunk_info(Table::kTickets, i).rows;
    const auto view = reader.try_chunk(Table::kTickets, i, &report);
    if (view) {
      for (std::uint32_t r = 0; r < view->rows(); ++r) {
        Ticket t = decode_ticket(*view, r, first_row);
        if (!server_ok(t.server.value)) {
          ++report.rows_dropped_dangling;
          continue;
        }
        max_incident = std::max(max_incident, t.incident.value);
        db.add_ticket(std::move(t));
      }
    }
    first_row += chunk_rows;
  }
  for (std::size_t i = 0; i < reader.chunk_count(Table::kWeeklyUsage); ++i) {
    const auto view = reader.try_chunk(Table::kWeeklyUsage, i, &report);
    if (!view) continue;
    for (std::uint32_t r = 0; r < view->rows(); ++r) {
      WeeklyUsage u = decode_weekly_usage(*view, r);
      if (!server_ok(u.server.value)) {
        ++report.rows_dropped_dangling;
        continue;
      }
      db.add_weekly_usage(std::move(u));
    }
  }
  for (std::size_t i = 0; i < reader.chunk_count(Table::kPowerEvents); ++i) {
    const auto view = reader.try_chunk(Table::kPowerEvents, i, &report);
    if (!view) continue;
    for (std::uint32_t r = 0; r < view->rows(); ++r) {
      PowerEvent e = decode_power_event(*view, r);
      if (!server_ok(e.server.value)) {
        ++report.rows_dropped_dangling;
        continue;
      }
      db.add_power_event(e);
    }
  }
  for (std::size_t i = 0; i < reader.chunk_count(Table::kSnapshots); ++i) {
    const auto view = reader.try_chunk(Table::kSnapshots, i, &report);
    if (!view) continue;
    for (std::uint32_t r = 0; r < view->rows(); ++r) {
      MonthlySnapshot s = decode_snapshot(*view, r);
      if (!server_ok(s.server.value)) {
        ++report.rows_dropped_dangling;
        continue;
      }
      db.add_monthly_snapshot(s);
    }
  }
  const std::int32_t next_incident =
      std::max(reader.next_incident(), max_incident + 1);
  for (std::int32_t i = 0; i < next_incident; ++i) db.new_incident();
  db.finalize();
  return db;
}

}  // namespace fa::trace

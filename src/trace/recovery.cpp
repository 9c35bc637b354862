#include "src/trace/recovery.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>
#include <system_error>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/trace/columnar_format.h"
#include "src/util/error.h"

namespace fa::trace {
namespace {

using columnar::ChunkInfo;
using columnar::ChunkView;
using columnar::Table;
using columnar::fnv1a;
using columnar::kTableCount;
namespace fs = std::filesystem;

obs::Counter& chunks_salvaged_counter() {
  static obs::Counter& c = obs::counter("fa.trace.recovery.chunks_salvaged");
  return c;
}
obs::Counter& rows_salvaged_counter() {
  static obs::Counter& c = obs::counter("fa.trace.recovery.rows_salvaged");
  return c;
}

std::string table_label(int t) {
  return std::string(columnar::table_name(columnar::kAllTables[t]));
}

}  // namespace

std::uint64_t SalvageScan::total_rows() const {
  std::uint64_t total = 0;
  for (int t = 0; t < kTableCount; ++t) total += rows_salvageable[t];
  return total;
}

std::string SalvageScan::to_string() const {
  std::string out = "salvage scan: " + path + "\n";
  out += "  file size: " + std::to_string(file_size) + " bytes\n";
  if (!header_ok) {
    out += "  header: INVALID (" + stop_reason + ")\n";
    return out;
  }
  out += "  header: ok (version " + std::to_string(version) + ")\n";
  out += finished ? "  state: finished (clean footer)\n"
                  : "  state: unfinished or truncated (no valid footer)\n";
  out += "  valid prefix: " + std::to_string(valid_prefix_end) +
         " bytes; scan stopped: " + stop_reason + "\n";
  for (int t = 0; t < kTableCount; ++t) {
    if (chunks_salvageable[t] == 0) continue;
    out += "  " + table_label(t) + ": " +
           std::to_string(chunks_salvageable[t]) + " chunk(s), " +
           std::to_string(rows_salvageable[t]) + " row(s) salvageable\n";
  }
  if (!chunks.empty()) {
    const SalvagedChunkRef& last = chunks.back();
    out += "  last valid chunk: " +
           std::string(columnar::table_name(last.table)) + " at offset " +
           std::to_string(last.payload_offset) + " (" +
           std::to_string(last.rows) + " rows)\n";
  }
  out += "  estimated recoverable rows: " + std::to_string(total_rows()) +
         "\n";
  out += checkpoint_seen
             ? "  checkpoint: found (windows + incident counter recovered)\n"
             : "  checkpoint: none before the damage\n";
  return out;
}

std::string SalvageReport::to_string() const {
  return scan.to_string() + (degraded.degraded() ? degraded.to_string() : "") +
         "recovered: " + std::to_string(rows_recovered) + " row(s) in " +
         std::to_string(chunks_recovered) + " chunk(s)\n";
}

SalvageScan scan_columnar_salvage(const std::string& path) {
  obs::Span span("trace.recovery.scan");
  SalvageScan scan;
  scan.path = path;

  io::CheckedReader reader(std::make_unique<io::PosixReadableFile>(path));
  scan.file_size = reader.size();

  // A clean tail means the writer finished: take metadata from the real
  // footer and treat the whole data region as the valid prefix.
  try {
    ChunkReader finished(path, /*use_mmap=*/false);
    scan.finished = true;
    scan.windows_recovered = true;
    scan.window = finished.window();
    scan.monitoring = finished.monitoring();
    scan.onoff = finished.onoff_tracking();
    scan.next_incident = finished.next_incident();
    scan.chunk_rows = finished.chunk_rows();
  } catch (const Error&) {
    scan.finished = false;
  }

  if (scan.file_size < format::kHeaderBytes) {
    scan.stop_reason = "file smaller than the 8-byte header";
    return scan;
  }
  std::array<std::byte, format::kHeaderBytes> header;
  reader.read_at(0, header.data(), header.size());
  if (std::memcmp(header.data(), kColumnarMagic.data(), 4) != 0) {
    scan.stop_reason = "not a columnar trace file (bad magic)";
    return scan;
  }
  std::memcpy(&scan.version, header.data() + 4, sizeof(scan.version));
  if (scan.version != kColumnarVersion) {
    scan.stop_reason = "unsupported format version " +
                       std::to_string(scan.version) + " (expected " +
                       std::to_string(kColumnarVersion) +
                       "; pre-frame versions are not salvageable)";
    return scan;
  }
  scan.header_ok = true;
  scan.valid_prefix_end = format::kHeaderBytes;

  std::uint64_t cursor = format::kHeaderBytes;
  std::vector<std::byte> payload;
  std::array<std::byte, format::kFrameBytes> frame_bytes;
  while (true) {
    if (cursor + format::kFrameBytes > scan.file_size) {
      scan.stop_reason = scan.finished && !scan.chunks.empty()
                             ? "reached the footer"
                             : "no room for another frame header";
      break;
    }
    reader.read_at(cursor, frame_bytes.data(), frame_bytes.size());
    format::FrameHeader frame;
    if (!format::parse_frame_header(frame_bytes.data(), frame)) {
      scan.stop_reason = scan.finished
                             ? "reached the footer"
                             : "invalid frame header at offset " +
                                   std::to_string(cursor);
      break;
    }
    const std::uint64_t payload_offset = cursor + format::kFrameBytes;
    if (frame.payload_size > scan.file_size - payload_offset) {
      scan.stop_reason = "frame at offset " + std::to_string(cursor) +
                         " escapes the file (truncated mid-write)";
      break;
    }
    payload.resize(frame.payload_size);
    reader.read_at(payload_offset, payload.data(), payload.size());
    if (fnv1a(payload.data(), payload.size()) != frame.checksum) {
      scan.stop_reason = "payload checksum mismatch at offset " +
                         std::to_string(cursor) + " (torn or corrupt write)";
      break;
    }
    if (frame.kind == format::FrameKind::kCheckpoint) {
      try {
        const format::FooterImage image = format::parse_footer_payload(
            payload.data(), payload.size(), cursor, path);
        scan.checkpoint_seen = true;
        scan.windows_recovered = true;
        scan.window = image.window;
        scan.monitoring = image.monitoring;
        scan.onoff = image.onoff;
        scan.next_incident =
            std::max(scan.next_incident, image.next_incident);
        scan.chunk_rows = image.chunk_rows;
      } catch (const Error&) {
        scan.stop_reason = "corrupt checkpoint at offset " +
                           std::to_string(cursor);
        break;
      }
    } else {
      SalvagedChunkRef ref;
      ref.table = static_cast<Table>(frame.table);
      ref.rows = frame.rows;
      ref.payload_offset = payload_offset;
      ref.payload_size = frame.payload_size;
      ref.checksum = frame.checksum;
      const auto t = static_cast<std::size_t>(ref.table);
      scan.rows_salvageable[t] += ref.rows;
      ++scan.chunks_salvageable[t];
      scan.chunks.push_back(ref);
    }
    cursor = format::padded(payload_offset + frame.payload_size, 8);
    scan.valid_prefix_end = cursor;
  }

  // Without a checkpoint the writer's chunk size is still recoverable:
  // mid-stream chunks are cut at exactly chunk_rows rows (partial chunks
  // exist only right before a footer), so the largest salvaged chunk is
  // the writer's chunk size.
  if (scan.chunk_rows == 0) {
    for (const SalvagedChunkRef& ref : scan.chunks) {
      scan.chunk_rows = std::max(scan.chunk_rows, ref.rows);
    }
  }
  return scan;
}

namespace {

// Re-encodes the chunks report.scan found in `in` into a finished columnar
// file at `out`, counting what it wrote into `report`.
void write_salvage(const std::string& in, const std::string& out,
                   SalvageReport& report) {
  const SalvageScan& scan = report.scan;
  WriterOptions options;
  options.chunk_rows =
      scan.chunk_rows > 0 ? scan.chunk_rows : kDefaultChunkRows;
  // No checkpoints in the output: recovery emits the canonical layout, so
  // recovering an already-recovered file reproduces it byte for byte.
  ColumnarWriter writer(out, options);
  if (scan.windows_recovered) {
    writer.set_windows(scan.window, scan.monitoring, scan.onoff);
  }

  io::CheckedReader reader(std::make_unique<io::PosixReadableFile>(in));
  std::int32_t max_incident = -1;
  std::array<std::int64_t, kTableCount> first_row{};
  std::array<std::size_t, kTableCount> chunk_index{};
  for (const SalvagedChunkRef& ref : scan.chunks) {
    const auto t = static_cast<std::size_t>(ref.table);
    std::vector<std::byte> payload(ref.payload_size);
    reader.read_at(ref.payload_offset, payload.data(), payload.size());
    // A salvaged chunk passed its frame checksum; a chunk whose blocks or
    // values still fail to decode stops recovery at its location.
    const ChunkView view = [&] {
      try {
        const ChunkInfo info = format::reconstruct_chunk_info(
            ref.table, ref.rows, payload, in);
        return ChunkView(ref.table, info, nullptr, std::move(payload));
      } catch (const Error& e) {
        throw ChunkError(in, ref.table, chunk_index[t], ref.payload_offset,
                         ref.payload_size, ReadDefect::kDecodeError,
                         e.what());
      }
    }();
    switch (ref.table) {
      case Table::kServers: {
        const ServerRows rows(view, first_row[t]);
        for (std::uint32_t r = 0; r < view.rows(); ++r) {
          writer.add_server(rows.row(r));
        }
        break;
      }
      case Table::kTickets: {
        const TicketRows rows(view, first_row[t]);
        for (std::uint32_t r = 0; r < view.rows(); ++r) {
          max_incident = std::max(max_incident, rows.incident[r]);
          writer.add_ticket(rows.row(r));
        }
        break;
      }
      case Table::kWeeklyUsage: {
        const UsageRows rows(view);
        for (std::uint32_t r = 0; r < view.rows(); ++r) {
          writer.add_weekly_usage(rows.row(r));
        }
        break;
      }
      case Table::kPowerEvents: {
        const PowerRows rows(view);
        for (std::uint32_t r = 0; r < view.rows(); ++r) {
          writer.add_power_event(rows.row(r));
        }
        break;
      }
      case Table::kSnapshots: {
        const SnapshotRows rows(view);
        for (std::uint32_t r = 0; r < view.rows(); ++r) {
          writer.add_monthly_snapshot(rows.row(r));
        }
        break;
      }
    }
    ++chunk_index[t];
    first_row[t] += view.rows();
    report.rows_recovered += view.rows();
    ++report.chunks_recovered;
    chunks_salvaged_counter().add(1);
    rows_salvaged_counter().add(view.rows());
  }
  writer.set_next_incident(std::max(scan.next_incident, max_incident + 1));
  writer.finish();
}

// The degraded load of a finished file whose frame scan stopped before a
// chunk its footer lists (a damaged frame ends the scan, so the frame
// salvage would lose every chunk after it). Nothing for any other file, or
// when that load fails: a file recovered from a crash can hold crash
// tickets naming servers its servers table never got, which finalize()
// refuses, and the frame salvage still keeps such a file's prefix.
std::optional<TraceDatabase> load_past_damage(const std::string& in,
                                              SalvageReport& report) {
  if (!report.scan.finished) return std::nullopt;
  try {
    const ChunkReader reader(in, /*use_mmap=*/false);
    bool missed = false;
    for (Table table : columnar::kAllTables) {
      const auto t = static_cast<std::size_t>(table);
      missed |= reader.chunk_count(table) != report.scan.chunks_salvageable[t];
    }
    if (!missed) return std::nullopt;
    return load_columnar(in, true, &report.degraded);
  } catch (const Error&) {
    report.degraded = DegradedReadReport{};
    return std::nullopt;
  }
}

// Rewrites the degraded load of a finished file: the rows it keeps, with
// the footer's windows, incident counter and chunk size.
void write_loaded(const TraceDatabase& db, const std::string& out,
                  SalvageReport& report) {
  ColumnarWriter writer(out, report.scan.chunk_rows);
  write_columnar(db, writer);
  std::int32_t next_incident = report.scan.next_incident;
  for (const Ticket& t : db.tickets()) {
    next_incident = std::max(next_incident, t.incident.value + 1);
  }
  writer.set_next_incident(next_incident);
  writer.finish();
  for (Table table : columnar::kAllTables) {
    const auto t = static_cast<std::size_t>(table);
    report.rows_recovered += writer.report().rows[t];
    report.chunks_recovered += writer.report().chunks[t];
  }
  chunks_salvaged_counter().add(report.chunks_recovered);
  rows_salvaged_counter().add(report.rows_recovered);
}

}  // namespace

SalvageReport recover_columnar(const std::string& in, const std::string& out) {
  obs::Span span("trace.recovery.recover");
  SalvageReport report;
  report.scan = scan_columnar_salvage(in);
  require(report.scan.header_ok, "columnar: " + in +
                                     " cannot be salvaged: " +
                                     report.scan.stop_reason);

  // The salvage goes to a file beside `out` that replaces it only once it
  // is finished, so a recovery that fails part way leaves `out` as it was.
  const std::string partial = out + ".partial";
  try {
    if (const std::optional<TraceDatabase> db = load_past_damage(in, report)) {
      write_loaded(*db, partial, report);
    } else {
      write_salvage(in, partial, report);
    }
    std::error_code error;
    fs::rename(partial, out, error);
    require(!error, "columnar: cannot rename " + partial + " to " + out +
                        ": " + error.message());
  } catch (...) {
    std::error_code ignored;
    fs::remove(partial, ignored);
    throw;
  }
  return report;
}

}  // namespace fa::trace

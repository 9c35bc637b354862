// Crash-consistent salvage of ".fac" columnar trace files.
//
// A ColumnarWriter that dies before finish() — crash, full disk, kill —
// leaves a file with no valid footer, which strict readers reject outright.
// But every chunk that made it to disk is individually checksummed behind a
// self-describing frame header (columnar_format.h), so the data is not
// lost: scan_columnar_salvage() walks the frame stream from the file
// header, verifies each payload checksum, and stops at the first byte that
// is not an intact frame. recover_columnar() then re-encodes the salvaged
// longest-valid-prefix of rows into a fresh, canonical columnar file with
// a proper footer — a byte-exact row prefix of what the uncrashed writer
// would have produced. A file whose footer is intact but whose scan stops
// at a damaged chunk is recovered through its footer instead: the
// directory locates every chunk, so recovery keeps every intact chunk,
// also those after the damaged one.
//
// Writers can bound the damage further with WriterOptions::
// checkpoint_every_chunks: each checkpoint frame snapshots the full footer
// (windows + incident counter + directory), so recovery after a crash at
// row N restores writer metadata from the last checkpoint and loses at
// most the rows after it — at most one chunk per table when N == 1.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/columnar_io.h"

namespace fa::trace {

// One salvageable chunk found by the scan, in stream order.
struct SalvagedChunkRef {
  columnar::Table table;
  std::uint32_t rows = 0;
  std::uint64_t payload_offset = 0;  // absolute file offset of the payload
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
};

// Result of walking a (possibly truncated) columnar file's frame stream.
struct SalvageScan {
  std::string path;
  std::uint64_t file_size = 0;
  bool header_ok = false;       // file magic + supported version
  std::uint32_t version = 0;
  bool finished = false;        // strict open succeeded (valid footer)
  std::uint64_t valid_prefix_end = 0;  // first byte past the last intact frame
  std::string stop_reason;      // why the scan stopped there

  std::vector<SalvagedChunkRef> chunks;  // intact chunks, stream order
  std::array<std::uint64_t, columnar::kTableCount> rows_salvageable{};
  std::array<std::uint64_t, columnar::kTableCount> chunks_salvageable{};

  // Writer metadata recovered from the last intact checkpoint frame (or the
  // final footer when `finished`); paper defaults otherwise.
  bool checkpoint_seen = false;
  bool windows_recovered = false;
  ObservationWindow window;
  ObservationWindow monitoring;
  ObservationWindow onoff;
  std::int32_t next_incident = 0;
  std::uint32_t chunk_rows = 0;  // 0 when no checkpoint/footer was found

  std::uint64_t total_rows() const;
  std::uint64_t total_chunks() const { return chunks.size(); }
  // Human-readable salvage diagnostic (fa_trace info on a damaged file).
  std::string to_string() const;
};

// Walks `path` and reports what is salvageable. Never throws on damage —
// a file that is not even a columnar header yields header_ok == false with
// an empty chunk list. Throws io::IoError only when the file cannot be
// read at all.
SalvageScan scan_columnar_salvage(const std::string& path);

// What recover_columnar() did.
struct SalvageReport {
  SalvageScan scan;
  // What the degraded load of a damaged finished file skipped.
  DegradedReadReport degraded;
  std::uint64_t rows_recovered = 0;
  std::uint64_t chunks_recovered = 0;
  std::string to_string() const;
};

// Salvages `in` into a fresh columnar file at `out` (strict-readable,
// canonical layout: recover(recover(x)) == recover(x)). A finished file
// (valid footer) whose frame scan misses chunks the footer lists is
// rewritten from its degraded load (load_columnar with a report): every
// intact chunk is kept, and the windows, incident counter and chunk size
// come from the footer. Any other file, and a finished file whose degraded
// load fails, keeps the longest valid prefix of its frame stream (all of
// it for an intact finished file); windows and incident counter come from
// the last checkpoint or the footer, chunk size from the same source,
// falling back to kDefaultChunkRows. Throws fa::Error when `in` has no
// salvageable columnar header at all. The file is written as `out` +
// ".partial" and renamed over `out` once finished; when anything throws (a
// salvaged chunk that fails to decode, say), the partial file is removed
// and an existing `out` keeps its bytes.
SalvageReport recover_columnar(const std::string& in, const std::string& out);

}  // namespace fa::trace

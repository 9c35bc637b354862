// Minimal CSV reader/writer (RFC-4180-style quoting) used to persist and
// reload simulated traces, mirroring the paper's flat database exports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace fa {

class CsvWriter {
 public:
  // The writer does not own the stream; callers keep it alive. When `path`
  // is non-empty, every write is checked and a stream failure throws
  // io::IoError naming the path and the byte offset where the write broke
  // (ENOSPC and friends otherwise vanish into a silent failbit).
  explicit CsvWriter(std::ostream& out, std::string path = "");

  // Renders the row into an internal buffer and writes it with a single
  // stream call; steady-state rows allocate nothing.
  void write_row(const std::vector<std::string>& fields);

  // Flushes the stream and re-checks its state; call at end of file so
  // buffered data that only fails at flush time still surfaces an error.
  void flush();

  // Bytes handed to the stream so far (the offset reported on failure).
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  void check(const char* action) const;

  std::ostream* out_;
  std::string path_;   // empty = unchecked legacy mode
  std::uint64_t bytes_written_ = 0;
  std::string line_;  // reused across rows
};

class CsvReader {
 public:
  explicit CsvReader(std::istream& in);

  // Reads the next record (handles quoted fields with embedded commas,
  // quotes and newlines). Returns false at end of input. Field strings in
  // `fields` are reused in place, so a caller looping with one vector pays
  // no per-field allocation once capacities warm up.
  bool read_row(std::vector<std::string>& fields);

 private:
  std::istream* in_;
  std::string line_;  // reused across rows
};

// Field conversion helpers, the one set the trace loader (in both modes)
// and the fault injector read fields with; throw fa::Error with the
// offending text.
// parse_int rejects values outside the int64 range; parse_double accepts
// anything strtod does, including "nan"/"inf" spellings.
std::int64_t parse_int(const std::string& field);
double parse_double(const std::string& field);
// Like parse_double but additionally rejects non-finite values. Trace
// loaders use this: a "nan" in an export is a defect, not a measurement.
double parse_finite_double(const std::string& field);

}  // namespace fa

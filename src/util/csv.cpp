#include "src/util/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>

#include "src/util/error.h"
#include "src/util/io.h"

namespace fa {
namespace {

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

// The parsers run once per CSV field, so they build a message only when a
// check fails: "<what> '<field>'".
[[noreturn]] void fail_field(const char* what, const std::string& field) {
  throw Error(std::string(what) + " '" + field + "'");
}

}  // namespace

CsvWriter::CsvWriter(std::ostream& out, std::string path)
    : out_(&out), path_(std::move(path)) {}

void CsvWriter::check(const char* action) const {
  if (path_.empty() || out_->good()) return;
  throw io::IoError(path_, bytes_written_,
                    std::string(action) + " failed (stream in error state)");
}

void CsvWriter::flush() {
  out_->flush();
  check("flush");
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  line_.clear();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line_ += ',';
    const std::string& field = fields[i];
    if (needs_quoting(field)) {
      line_ += '"';
      for (char c : field) {
        if (c == '"') line_ += '"';
        line_ += c;
      }
      line_ += '"';
    } else {
      line_ += field;
    }
  }
  line_ += '\n';
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  check("write");
  bytes_written_ += line_.size();
}

CsvReader::CsvReader(std::istream& in) : in_(&in) {}

bool CsvReader::read_row(std::vector<std::string>& fields) {
  // Overwrite the caller's field strings in place and trim the vector at
  // the end, so their capacities survive from row to row.
  std::size_t count = 0;
  const auto next_field = [&]() -> std::string& {
    if (count == fields.size()) fields.emplace_back();
    std::string& field = fields[count++];
    field.clear();
    return field;
  };

  if (!std::getline(*in_, line_)) {
    fields.clear();
    return false;
  }
  std::string* field = &next_field();
  bool in_quotes = false;
  std::size_t i = 0;
  while (true) {
    if (i == line_.size()) {
      if (!in_quotes) break;
      // Embedded newline inside a quoted field: the record continues on
      // the next physical line.
      *field += '\n';
      require(static_cast<bool>(std::getline(*in_, line_)),
              "CsvReader: unterminated quoted field at end of input");
      i = 0;
      continue;
    }
    const char c = line_[i++];
    if (in_quotes) {
      if (c == '"') {
        if (i < line_.size() && line_[i] == '"') {
          *field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        *field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      field = &next_field();
    } else if (c == '\r') {
      // Swallow; CRLF line endings terminate the row via getline.
    } else {
      *field += c;
    }
  }
  fields.resize(count);
  return true;
}

std::int64_t parse_int(const std::string& field) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0') {
    fail_field("parse_int: invalid integer", field);
  }
  if (errno == ERANGE) fail_field("parse_int: out-of-range integer", field);
  return v;
}

double parse_double(const std::string& field) {
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    fail_field("parse_double: invalid number", field);
  }
  return v;
}

double parse_finite_double(const std::string& field) {
  const double v = parse_double(field);
  if (!std::isfinite(v)) {
    fail_field("parse_finite_double: non-finite number", field);
  }
  return v;
}

}  // namespace fa

#include "src/trace/sanitize.h"

#include <algorithm>
#include <sstream>

#include "src/util/csv.h"
#include "src/util/error.h"

namespace fa::trace {

std::string_view to_string(DefectClass cls) {
  switch (cls) {
    case DefectClass::kUnparseableField: return "unparseable_field";
    case DefectClass::kNonFiniteNumeric: return "non_finite_numeric";
    case DefectClass::kDuplicateId: return "duplicate_id";
    case DefectClass::kOutOfWindowTimestamp: return "out_of_window";
    case DefectClass::kEndBeforeOpen: return "end_before_open";
    case DefectClass::kOrphanReference: return "orphan_reference";
    case DefectClass::kTruncatedSeries: return "truncated_series";
    case DefectClass::kUnknownEnum: return "unknown_enum";
  }
  throw Error("to_string: invalid DefectClass");
}

std::string_view to_string(DefectAction action) {
  switch (action) {
    case DefectAction::kRepaired: return "repaired";
    case DefectAction::kQuarantined: return "quarantined";
  }
  throw Error("to_string: invalid DefectAction");
}

std::size_t SanitizationReport::count(DefectClass cls) const {
  std::size_t n = 0;
  for (const Defect& d : defects) n += d.cls == cls;
  return n;
}

std::size_t SanitizationReport::count(const std::string& file,
                                      DefectClass cls) const {
  std::size_t n = 0;
  for (const Defect& d : defects) n += d.cls == cls && d.file == file;
  return n;
}

std::size_t SanitizationReport::repaired() const {
  std::size_t n = 0;
  for (const Defect& d : defects) n += d.action == DefectAction::kRepaired;
  return n;
}

std::size_t SanitizationReport::quarantined() const {
  std::size_t n = 0;
  for (const Defect& d : defects) n += d.action == DefectAction::kQuarantined;
  return n;
}

std::size_t SanitizationReport::rows_read(const std::string& file) const {
  for (const FileStats& f : files) {
    if (f.file == file) return f.rows;
  }
  return 0;
}

std::size_t SanitizationReport::rows_kept(const std::string& file) const {
  for (const FileStats& f : files) {
    if (f.file == file) return f.kept;
  }
  return 0;
}

std::size_t SanitizationReport::rows_dropped(const std::string& file) const {
  return rows_read(file) - rows_kept(file);
}

std::vector<std::size_t> SanitizationReport::quarantined_rows(
    const std::string& file) const {
  std::vector<std::size_t> rows;
  for (const Defect& d : defects) {
    if (d.file == file && d.action == DefectAction::kQuarantined) {
      rows.push_back(d.row);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string SanitizationReport::to_string() const {
  std::string out = "sanitization report: " +
                    std::to_string(total_defects()) + " defects (" +
                    std::to_string(repaired()) + " repaired, " +
                    std::to_string(quarantined()) + " quarantined, " +
                    std::to_string(cascade_drops) + " cascade drops)\n";
  for (DefectClass cls : kAllDefectClasses) {
    const std::size_t n = count(cls);
    if (n == 0) continue;
    out += "  " + std::string(trace::to_string(cls)) + ": " +
           std::to_string(n) + "\n";
  }
  for (const FileStats& f : files) {
    out += "  " + f.file + ": " + std::to_string(f.kept) + "/" +
           std::to_string(f.rows) + " rows kept\n";
  }
  return out;
}

std::string SanitizationReport::counts_csv() const {
  std::string out = "class,count\n";
  for (DefectClass cls : kAllDefectClasses) {
    out += std::string(trace::to_string(cls)) + "," +
           std::to_string(count(cls)) + "\n";
  }
  return out;
}

std::string SanitizationReport::defects_csv() const {
  std::ostringstream stream;
  CsvWriter w(stream);
  w.write_row({"file", "row", "class", "action", "detail"});
  for (const Defect& d : defects) {
    w.write_row({d.file, std::to_string(d.row),
                 std::string(trace::to_string(d.cls)),
                 std::string(trace::to_string(d.action)), d.detail});
  }
  return stream.str();
}

}  // namespace fa::trace

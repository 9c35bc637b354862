// Defect taxonomy and report of the paper's data-sanitization step. A
// lenient load_database (csv_io.h) classifies every defective row into one
// class below and either repairs it by an explicit rule or quarantines it,
// and accounts for each in a SanitizationReport; a strict load refuses the
// export at its first defect instead. The fault injector
// (src/inject/corruptor.h) plants defects of the same classes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fa::trace {

// Defect taxonomy. Every quarantined or repaired row is attributed to
// exactly one class (the first one detected, in the order below), so
// injected defect counts can be compared 1:1 against sanitization reports.
enum class DefectClass : std::uint8_t {
  // A field fails to parse or holds a value outside its column's domain
  // (wrong column count, bad integer, an integer wider than the field it
  // fills, an incident outside [0, 2147483646], consolidation < 1, ...).
  kUnparseableField = 0,
  // A numeric field parses but is nan/inf.
  kNonFiniteNumeric = 1,
  // A row reuses an id column value already seen in its file. Repair:
  // keep-first, drop later duplicates. A strict load refuses any id that
  // is not its row's position.
  kDuplicateId = 2,
  // A timestamp lies outside the declared observation window. Repair:
  // clip tickets into the ticket window, power events into monitoring
  // coverage; week/month indexed rows are quarantined. A strict load
  // checks no windows; it refuses only a week or month wider than int.
  kOutOfWindowTimestamp = 3,
  // A ticket closes before it opens.
  kEndBeforeOpen = 4,
  // A row references a machine the inventory does not contain (orphan
  // crash ticket / monitoring record), or a crash ticket lacks an incident.
  // Repair: drop the orphan row; missing incidents get a fresh id (the
  // ticket is quarantined once every incident id is taken).
  kOrphanReference = 5,
  // A server's weekly monitoring series ends before the observation year
  // does. The gap is tolerated (rows kept) but recorded. Not checked by a
  // strict load.
  kTruncatedSeries = 6,
  // An enum-valued field holds an unknown symbol. Repair: unknown failure
  // classes fall back to "other"; unknown machine types are quarantined.
  kUnknownEnum = 7,
};

inline constexpr int kDefectClassCount = 8;
inline constexpr std::array<DefectClass, kDefectClassCount> kAllDefectClasses =
    {DefectClass::kUnparseableField, DefectClass::kNonFiniteNumeric,
     DefectClass::kDuplicateId,      DefectClass::kOutOfWindowTimestamp,
     DefectClass::kEndBeforeOpen,    DefectClass::kOrphanReference,
     DefectClass::kTruncatedSeries,  DefectClass::kUnknownEnum};

std::string_view to_string(DefectClass cls);

enum class DefectAction : std::uint8_t {
  kRepaired = 0,     // row kept (possibly rewritten) or dropped by rule
  kQuarantined = 1,  // row dropped with no applicable repair rule
};

std::string_view to_string(DefectAction action);

struct SanitizationReport {
  struct Defect {
    std::string file;  // e.g. "tickets.csv"
    // 1-based data-record index within the file (the header is record 0;
    // quoted fields may span physical lines, so this counts CSV records).
    std::size_t row = 0;
    DefectClass cls = DefectClass::kUnparseableField;
    DefectAction action = DefectAction::kQuarantined;
    std::string detail;
  };

  struct FileStats {
    std::string file;
    std::size_t rows = 0;  // data records read
    std::size_t kept = 0;  // records that reached the database
  };

  std::vector<Defect> defects;
  std::vector<FileStats> files;
  // Rows dropped (or references cleared) only because they referenced a
  // quarantined server row; consequences of another defect, not defects of
  // their own.
  std::size_t cascade_drops = 0;

  std::size_t total_defects() const { return defects.size(); }
  std::size_t count(DefectClass cls) const;
  std::size_t count(const std::string& file, DefectClass cls) const;
  std::size_t repaired() const;
  std::size_t quarantined() const;
  std::size_t rows_read(const std::string& file) const;
  std::size_t rows_kept(const std::string& file) const;
  std::size_t rows_dropped(const std::string& file) const;
  // Ascending record indices of quarantined rows in `file`.
  std::vector<std::size_t> quarantined_rows(const std::string& file) const;

  // Human-readable report: per-class counts, per-file read/kept/dropped.
  std::string to_string() const;
  // Stable machine-readable per-class counts: "class,count" lines, one per
  // defect class in enum order (diffable against an injector's report).
  std::string counts_csv() const;
  // Full defect list: "file,row,class,action,detail" lines.
  std::string defects_csv() const;
};

}  // namespace fa::trace

// CSV persistence of a TraceDatabase: one file per table, mirroring flat
// exports of the paper's ticket / inventory / monitoring databases. This is
// also the adapter surface for running the analysis on real trace exports.
#pragma once

#include <string>
#include <vector>

#include "src/trace/database.h"
#include "src/util/csv.h"

namespace fa::trace {

struct SanitizationReport;

// Canonical file names and header rows of the on-disk schema, shared by
// the loader and the fault injector (src/inject/corruptor.h).
inline const std::string kMetaFile = "meta.csv";
inline const std::string kServersFile = "servers.csv";
inline const std::string kTicketsFile = "tickets.csv";
inline const std::string kWeeklyUsageFile = "weekly_usage.csv";
inline const std::string kPowerEventsFile = "power_events.csv";
inline const std::string kSnapshotsFile = "snapshots.csv";

const std::vector<std::string>& meta_header();
const std::vector<std::string>& servers_header();
const std::vector<std::string>& tickets_header();
const std::vector<std::string>& weekly_usage_header();
const std::vector<std::string>& power_events_header();
const std::vector<std::string>& snapshots_header();

// Reads the header row of `reader` and throws fa::Error unless it equals
// `want`; the message names the file, both headers, and the first
// difference (missing/extra/mismatched column).
void expect_header(CsvReader& reader, const std::vector<std::string>& want,
                   const std::string& path);

// Writes servers.csv, tickets.csv, weekly_usage.csv, power_events.csv and
// snapshots.csv into `directory` (created if missing).
void save_database(const TraceDatabase& db, const std::string& directory);

// Loads the files written by save_database and returns a finalized
// database. One decoder per table turns each record into its row or into a
// located defect (sanitize.h lists the classes); missing files and bad
// headers throw in both modes.
//
// Without a report the load is strict: the first defect throws fa::Error
// naming the file, the 1-based record, the column and the value. Ids must
// also equal their row position and every server reference must name a
// loaded server; observation windows and series length are not checked.
//
// With a report the load is lenient, the reproduction of the paper's
// sanitization step: each defect is recorded in `*report` (overwritten)
// and its row repaired or quarantined by the rule of its class, and the
// fa.sanitize.* counters are added to.
TraceDatabase load_database(const std::string& directory,
                            SanitizationReport* report = nullptr);

}  // namespace fa::trace

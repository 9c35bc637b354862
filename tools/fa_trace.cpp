// fa_trace — command-line front end of the failure-analysis toolkit.
//
//   fa_trace simulate --out DIR|FILE.fac [--scale S] [--seed N]
//                     [--checkpoint-every N] [--io-crash-at BYTE [--io-seed N]]
//       Simulate a datacenter trace. A directory --out exports the
//       five-file CSV schema (servers/tickets/weekly_usage/power_events/
//       snapshots); a FILE.fac --out streams chunks straight into the
//       binary columnar format with memory bounded by chunk size, so
//       --scale may exceed 1 (e.g. 8x the paper fleet). Columnar only:
//       --checkpoint-every N embeds a footer checkpoint every N chunks
//       (a crash then loses at most one chunk); --io-crash-at BYTE routes
//       the writes through the deterministic fault injector and simulates
//       a power loss at that file offset (exit code 3), leaving a
//       truncated file for `fa_trace recover` to salvage.
//
//   fa_trace report [--lenient] [--scale S] [DIR|FILE.fac]
//       Load a CSV or columnar trace and print the full failure-analysis summary:
//       population, classification, failure rates, recurrence, repair
//       times, spatial dependency and reliability metrics. With
//       --lenient, defective rows are repaired or quarantined instead of
//       aborting the load, and the sanitization report is printed first.
//       On a columnar file --lenient is storage-level instead: chunks that
//       fail their checksum are skipped, the degraded-read report is
//       printed, and the analysis is marked as covering partial data (or
//       skipped, exit 0, when no crash ticket survived the read).
//       Without DIR, the report runs on a default simulated trace
//       (paper defaults scaled by --scale, default 0.1) — no files needed.
//
//   fa_trace profile [COMMAND ...]
//       Run any fa_trace command (default: report on the default
//       simulation) with instrumentation on, print the metrics table and
//       write fa_metrics.json + fa_trace_events.json (paths overridable
//       with the global --metrics / --trace-out flags). The trace file
//       loads in chrome://tracing or https://ui.perfetto.dev. The command
//       is then re-run at 1/2/4/8 worker threads and a per-stage serial
//       fraction (Amdahl least-squares fit over the four runs) is printed.
//
//   fa_trace sanitize DIR [--counts-csv FILE] [--defects-csv FILE]
//       Load a CSV trace in lenient mode and print the sanitization
//       report (per-class defect counts, per-file kept/dropped rows).
//       Optionally write machine-readable per-class counts and the full
//       defect list as CSV.
//
//   fa_trace corrupt --in DIR --out DIR [--seed N] [--rate R]
//                    [--mix class=rate,...] [--counts-csv FILE]
//       Deterministically inject defects into a clean export. --rate R
//       sets every class to rate R; --mix overrides individual classes
//       (e.g. --mix duplicate_id=0.02,unknown_enum=0.01). Identical
//       seed + mix produce byte-identical output at any thread count.
//
//   fa_trace convert --in DIR|FILE.fac --out DIR|FILE.fac
//                    [--chunk-rows N]
//       Bridge CSV <-> columnar: a directory input converts to a columnar
//       file, a columnar input back to the CSV directory schema (CSV stays
//       the canonical interchange format). Prints per-column size and
//       dictionary-cardinality statistics for the columnar side.
//
//   fa_trace info FILE.fac
//       Dump a columnar file's footer: observation windows, per-table row
//       and chunk counts, and each chunk's offset, size, checksum and
//       per-column min/max statistics. On a truncated or crash-damaged
//       file the footer is unreadable; info then prints a salvage
//       diagnostic (last valid chunk, estimated recoverable rows) and
//       points at `fa_trace recover` (exit code 3).
//
//   fa_trace recover IN.fac OUT.fac [--report FILE]
//       Salvage a damaged columnar file: scan the frame stream for the
//       longest valid prefix (verifying every chunk checksum), then
//       rewrite the surviving rows as a fresh, fully valid columnar file
//       with a clean footer. A file whose footer is intact keeps every
//       intact chunk, also those after a damaged one (the rows
//       `report --lenient` analyzes). Prints the salvage report
//       (optionally also written to --report FILE). Recovery is
//       idempotent: recovering an already-recovered file reproduces it
//       byte for byte.
//
//   fa_trace watch [DIR|FILE.fac] [--scale S] [--seed N] [--shift D:F]...
//                  [--cutoff D] [--ooo reject|buffer|drop] [--slack MIN]
//                  [--threshold NATS] [--warmup-weeks W]
//                  [--alerts-out FILE] [--score] [--horizon D]
//                  [--stats-every D [--stats-out FILE]]
//       Replay one trace (default: a simulated fleet) as a timestamp-ordered
//       event stream through the online detector and print alerts live with
//       their detection timestamps, then the stream summary. Each --shift
//       D:F multiplies the failure rate by F from day D of the stream on
//       (the scripted ground truth); --cutoff D ends the stream early at
//       day D. --ooo selects the out-of-order policy (--slack sets the
//       reorder-buffer tolerance in minutes). --alerts-out writes the
//       byte-stable alert log (identical at any --threads); --score prints
//       precision/recall/latency against the injected change points, with
//       an alert counted for a change within --horizon days (default 84 —
//       low-rate strata near the arming floor legitimately take weeks).
//       --stats-every D emits a JSONL health heartbeat every D stream-days
//       (schema: tools/health_schema.json) to --stats-out, or interleaved
//       on stdout without it.
//
//   fa_trace serve [--tenants N] [--scale S] [--seed BASE] [--shift D:F]...
//                  [--cutoff D] [--threshold NATS] [--warmup-weeks W]
//                  [--score] [--horizon D] [--throttle T:MIN]...
//                  [--stats-every D [--stats-out FILE]]
//       Multiplex N independent tenant streams (seeds BASE..BASE+N-1) over
//       the shared thread pool, one online detector per tenant, and print
//       the per-tenant summary table in tenant order. Results are
//       bit-identical at any --threads; per-tenant event/alert counters are
//       exported under fa.detect.* with a tenant label (see --metrics).
//       Each --throttle T:MIN puts a deterministic slow-consumer model
//       (virtual single-server queue, MIN sim-minutes of service per event)
//       in front of tenant T's detector: events are forwarded unchanged so
//       detection is unaffected, but backpressure (queue depth, waits) is
//       accounted and printed. --stats-every D streams per-tenant JSONL
//       health heartbeats, merged in (sim-time, tenant) order, to
//       --stats-out or stdout; the "det" object of every line is
//       byte-identical at any --threads.
//
//   fa_trace top FILE.jsonl
//       Render the latest heartbeat per tenant from a --stats-out file as a
//       health table (events, alerts, lag quantiles, reorder-buffer and
//       backpressure state), plus the per-stratum rows that have fired
//       alerts. A cheap terminal dashboard over the JSONL schema.
//
//   fa_trace classify DIR|FILE.fac
//       Load a CSV or columnar trace, run crash extraction + k-means classification
//       and print the per-class ticket distribution (and, when the trace
//       carries ground-truth labels, the accuracy and confusion matrix).
//
//   fa_trace fit DIR (interfailure|repair) (pm|vm)
//       Fit the candidate distributions to the chosen metric and print
//       the ranked results.
//
//   fa_trace transitions DIR
//       Print the same-server weekly failure class-transition matrix.
//
// Global flags (any command):
//   --threads N       worker threads for parallel stages (0 = all cores,
//                     at most 1024)
//   --no-obs          turn off metric/span recording at runtime
//   --metrics PATH    write the metrics JSON snapshot before exiting
//   --trace-out PATH  write the Chrome trace-event JSON before exiting
//
// Exit codes: 0 success, 1 analysis/data error, 2 usage error,
// 3 I/O failure (unreadable, truncated or crash-damaged file).
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/analysis/failure_rates.h"
#include "src/analysis/interfailure.h"
#include "src/analysis/out_of_core.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/recurrence.h"
#include "src/analysis/reliability.h"
#include "src/analysis/repair_times.h"
#include "src/analysis/report.h"
#include "src/analysis/spatial.h"
#include "src/analysis/transitions.h"
#include "src/detect/serve.h"
#include "src/inject/corruptor.h"
#include "src/inject/io_faults.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/sim/validation.h"
#include "src/stats/fitting.h"
#include "src/trace/columnar_io.h"
#include "src/trace/csv_io.h"
#include "src/trace/recovery.h"
#include "src/trace/sanitize.h"
#include "src/trace/trace_writer.h"
#include "src/util/error.h"
#include "src/util/io.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace {

using namespace fa;

int usage() {
  std::cerr
      << "usage:\n"
         "  fa_trace simulate --out DIR|FILE.fac [--scale S] [--seed N]\n"
         "                    [--checkpoint-every N] [--io-crash-at BYTE "
         "[--io-seed N]]\n"
         "  fa_trace report [--lenient] [--scale S] [DIR|FILE.fac]\n"
         "  fa_trace convert --in DIR|FILE.fac --out DIR|FILE.fac "
         "[--chunk-rows N]\n"
         "  fa_trace info FILE.fac\n"
         "  fa_trace recover IN.fac OUT.fac [--report FILE]\n"
         "  fa_trace watch [DIR|FILE.fac] [--scale S] [--seed N] "
         "[--shift D:F]...\n"
         "                 [--cutoff D] [--ooo reject|buffer|drop] "
         "[--slack MIN]\n"
         "                 [--threshold NATS] [--warmup-weeks W]\n"
         "                 [--alerts-out FILE] [--score] [--horizon D]\n"
         "                 [--stats-every D [--stats-out FILE]]\n"
         "  fa_trace serve [--tenants N] [--scale S] [--seed BASE] "
         "[--shift D:F]...\n"
         "                 [--cutoff D] [--threshold NATS] "
         "[--warmup-weeks W]\n"
         "                 [--score] [--horizon D] [--throttle T:MIN]...\n"
         "                 [--stats-every D [--stats-out FILE]]\n"
         "  fa_trace top FILE.jsonl\n"
         "  fa_trace classify DIR|FILE.fac\n"
         "  fa_trace fit DIR (interfailure|repair) (pm|vm)\n"
         "  fa_trace transitions DIR\n"
         "  fa_trace sanitize DIR [--counts-csv FILE] [--defects-csv FILE]\n"
         "  fa_trace corrupt --in DIR --out DIR [--seed N] [--rate R]\n"
         "                   [--mix class=rate,...] [--counts-csv FILE]\n"
         "  fa_trace profile [COMMAND ...]\n"
         "global flags: --threads N, --no-obs, --metrics PATH,\n"
         "              --trace-out PATH\n"
         "exit codes: 0 ok, 1 analysis/data error, 2 usage, 3 I/O failure\n";
  return 2;
}

// A malformed numeric flag or operand; main() reports it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Parses all of `text` as a T with std::from_chars, as
// ThreadPool::parse_thread_count does for --threads: leading whitespace or
// '+', a sign on an unsigned type, out-of-range values and trailing
// characters are rejected, and floating-point values must be finite.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

// The operand of the numeric flag at args[i], which must exist; advances i
// past it. Throws UsageError naming the flag and the operand when the
// operand does not parse.
template <typename T>
T number_flag(const std::vector<std::string>& args, std::size_t& i) {
  const std::string& flag = args[i];
  const std::string& text = args[++i];
  const std::optional<T> value = parse_number<T>(text);
  if (!value) throw UsageError("invalid " + flag + " value '" + text + "'");
  return *value;
}

// Same for a FIRST:SECOND operand (`shape` names the parts), split at its
// first colon.
template <typename First, typename Second>
std::pair<First, Second> number_pair(const std::vector<std::string>& args,
                                     std::size_t& i, std::string_view shape) {
  const std::string& flag = args[i];
  const std::string& text = args[++i];
  const auto colon = text.find(':');
  if (colon != std::string::npos) {
    const auto first = parse_number<First>(text.substr(0, colon));
    const auto second = parse_number<Second>(text.substr(colon + 1));
    if (first && second) return {*first, *second};
  }
  throw UsageError(flag + " expects " + std::string(shape) + ", got '" +
                   text + "'");
}

int unknown_command(const std::string& command) {
  std::cerr << "fa_trace: unknown command '" << command
            << "'\navailable commands: simulate, report, watch, serve, top, "
               "convert, info, recover, classify, fit, transitions, "
               "sanitize, corrupt, profile\n";
  return usage();
}

// Writes `text` to `path`, failing loudly (reports written to an
// unwritable location must not vanish silently).
void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  require(out.good(), "cannot open " + path + " for writing");
  out << text;
  require(out.good(), "failed writing " + path);
}

// A trace and the analysis pipeline over it. The pipeline points into the
// database, so it is declared after it and destroyed first.
struct AnalyzedTrace {
  std::shared_ptr<const trace::TraceDatabase> db;
  std::shared_ptr<const analysis::AnalysisPipeline> pipeline;
};

AnalyzedTrace analyzed(trace::TraceDatabase db) {
  auto shared = std::make_shared<const trace::TraceDatabase>(std::move(db));
  auto pipeline = std::make_shared<const analysis::AnalysisPipeline>(*shared);
  return {std::move(shared), std::move(pipeline)};
}

trace::TraceDatabase load_trace(const std::string& path) {
  return trace::is_columnar_file(path) ? trace::load_columnar(path)
                                       : trace::load_database(path);
}

int cmd_simulate(const std::vector<std::string>& args) {
  std::string out;
  double scale = 1.0;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::uint32_t checkpoint_every = 0;
  std::int64_t io_crash_at = -1;
  std::uint64_t io_seed = 1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) {
      out = args[++i];
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      scale = number_flag<double>(args, i);
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      seed = number_flag<std::uint64_t>(args, i);
      have_seed = true;
    } else if (args[i] == "--checkpoint-every" && i + 1 < args.size()) {
      checkpoint_every = number_flag<std::uint32_t>(args, i);
    } else if (args[i] == "--io-crash-at" && i + 1 < args.size()) {
      io_crash_at = number_flag<std::int64_t>(args, i);
    } else if (args[i] == "--io-seed" && i + 1 < args.size()) {
      io_seed = number_flag<std::uint64_t>(args, i);
    } else {
      std::cerr << "simulate: unknown argument '" << args[i] << "'\n";
      return usage();
    }
  }
  if (out.empty() || scale <= 0.0) return usage();
  if ((checkpoint_every > 0 || io_crash_at >= 0) && !out.ends_with(".fac")) {
    std::cerr << "simulate: --checkpoint-every / --io-crash-at apply to "
                 "columnar (.fac) output only\n";
    return usage();
  }

  auto config = sim::SimulationConfig::paper_defaults().scaled(scale);
  if (have_seed) config.seed = seed;

  if (out.ends_with(".fac")) {
    // Stream chunks straight into the columnar format: no database is ever
    // materialized, so large --scale factors run in chunk-bounded memory.
    trace::WriterOptions options;
    options.checkpoint_every_chunks = checkpoint_every;
    std::unique_ptr<io::WritableFile> file =
        std::make_unique<io::PosixWritableFile>(out);
    if (io_crash_at >= 0) {
      inject::IoFaultConfig faults;
      faults.seed = io_seed;
      faults.crash_at_byte = io_crash_at;
      file = std::make_unique<inject::FaultyFile>(std::move(file), faults);
    }
    trace::ColumnarTraceWriter writer(std::move(file), options);
    sim::simulate_to(config, writer);
    std::cout << "wrote " << writer.server_count() << " servers, "
              << writer.ticket_count() << " tickets to " << out
              << " (columnar)\n";
    return 0;
  }

  const trace::TraceDatabase db = sim::simulate(config);
  const auto validation = sim::validate_trace(db, config);
  trace::save_database(db, out);
  std::cout << "wrote " << db.servers().size() << " servers, "
            << db.tickets().size() << " tickets to " << out << "\n"
            << validation.to_string();
  return validation.ok() ? 0 : 1;
}

int cmd_report(const std::string& dir, bool lenient, double scale) {
  AnalyzedTrace ctx;
  if (dir.empty()) {
    // No trace directory: report on the default simulation (so `profile
    // report` exercises the full simulate + analyze path).
    ctx = analyzed(
        sim::simulate(sim::SimulationConfig::paper_defaults().scaled(scale)));
  } else if (lenient && trace::is_columnar_file(dir)) {
    // Storage-level leniency: skip damaged chunks, report what was
    // lost and analyze the surviving rows (clearly marked as partial).
    trace::DegradedReadReport degraded;
    trace::TraceDatabase db = trace::load_columnar(dir, true, &degraded);
    std::cout << degraded.to_string();
    if (degraded.degraded() && analysis::extract_crash_tickets(db).empty()) {
      // Say what the read kept; there is nothing left to analyze.
      std::cout << "no crash tickets survived the degraded read; nothing to "
                   "analyze\n";
      return 0;
    }
    if (degraded.degraded()) {
      std::cout << "warning: analysis below covers PARTIAL DATA; recover "
                   "the file with `fa_trace recover`\n";
    }
    std::cout << "\n";
    ctx = analyzed(std::move(db));
  } else if (lenient) {
    auto result = analysis::analyze_lenient(dir);
    std::cout << result.report.to_string();
    if (result.tickets_dropped > 0) {
      std::cout << "tickets dropped before analysis: "
                << result.tickets_dropped << "\n";
    }
    std::cout << "\n";
    ctx = {std::move(result.db), std::move(result.pipeline)};
  } else {
    ctx = analyzed(load_trace(dir));
  }
  const trace::TraceDatabase& db = *ctx.db;
  const analysis::AnalysisPipeline& pipeline = *ctx.pipeline;
  const auto& failures = pipeline.failures();

  std::cout << "trace: " << db.servers().size() << " servers ("
            << db.server_count(trace::MachineType::kPhysical) << " PM, "
            << db.server_count(trace::MachineType::kVirtual) << " VM), "
            << db.tickets().size() << " tickets, " << failures.size()
            << " crash tickets\n\n";

  analysis::TextTable table({"metric", "PM", "VM"});
  std::array<analysis::ReliabilityReport, 2> reports;
  std::array<double, 2> recurrence{}, random{};
  for (int t = 0; t < trace::kMachineTypeCount; ++t) {
    const analysis::Scope scope{static_cast<trace::MachineType>(t),
                                std::nullopt};
    reports[static_cast<std::size_t>(t)] =
        analysis::reliability_report(db, failures, scope);
    recurrence[static_cast<std::size_t>(t)] = analysis::recurrent_probability(
        db, failures, scope, kMinutesPerWeek);
    random[static_cast<std::size_t>(t)] = analysis::random_failure_probability(
        db, failures, scope, analysis::Granularity::kWeekly);
  }
  const auto row = [&](const std::string& name, auto fn) {
    table.add_row({name, fn(0), fn(1)});
  };
  row("weekly failure rate", [&](int t) {
    const analysis::Scope scope{static_cast<trace::MachineType>(t),
                                std::nullopt};
    return format_double(
        analysis::failure_rate_summary(db, failures, scope,
                                       analysis::Granularity::kWeekly)
            .mean,
        5);
  });
  row("random weekly probability",
      [&](int t) { return format_double(random[static_cast<std::size_t>(t)], 5); });
  row("recurrent weekly probability", [&](int t) {
    return format_double(recurrence[static_cast<std::size_t>(t)], 3);
  });
  row("recurrence ratio", [&](int t) {
    const auto i = static_cast<std::size_t>(t);
    return random[i] > 0 ? format_double(recurrence[i] / random[i], 1) + "x"
                         : std::string("n.a.");
  });
  row("MTTR [hours]", [&](int t) {
    return format_double(reports[static_cast<std::size_t>(t)].mttr_hours, 1);
  });
  row("availability", [&](int t) {
    return format_double(
               100.0 * reports[static_cast<std::size_t>(t)].availability, 4) +
           "%";
  });
  std::cout << table.to_string() << "\n";

  const auto spatial = analysis::analyze_spatial(db, pipeline.class_lookup());
  std::cout << "incidents: " << spatial.incident_count << " ("
            << format_double(100.0 * spatial.all.two_or_more, 1)
            << "% affect >= 2 servers; widest "
            << spatial.max_servers_in_incident << " servers)\n";
  return 0;
}

// Renders the per-column size and dictionary statistics of a columnar file
// (the compression story: which columns carry the bytes, and how small the
// per-chunk free-text dictionaries stay).
std::string columnar_stats(const trace::FileReport& report) {
  analysis::TextTable table({"table", "column", "encoding", "bytes", "dict"});
  for (const trace::ColumnReport& c : report.columns) {
    table.add_row({std::string(trace::columnar::table_name(c.table)), c.name,
                   std::string(trace::columnar::encoding_name(c.encoding)),
                   std::to_string(c.bytes),
                   c.max_dict_entries > 0
                       ? std::to_string(c.max_dict_entries) + " max/chunk"
                       : std::string("-")});
  }
  std::ostringstream out;
  out << table.to_string() << "rows:";
  for (trace::columnar::Table t : trace::columnar::kAllTables) {
    const auto i = static_cast<std::size_t>(t);
    out << " " << trace::columnar::table_name(t) << "="
        << report.rows[i] << " (" << report.chunks[i] << " chunks)";
  }
  out << "\ndata " << report.data_bytes << " B + footer "
      << report.footer_bytes << " B\n";
  return out.str();
}

int cmd_convert(const std::vector<std::string>& args) {
  std::string in, out;
  std::uint32_t chunk_rows = trace::kDefaultChunkRows;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--in" && i + 1 < args.size()) {
      in = args[++i];
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out = args[++i];
    } else if (args[i] == "--chunk-rows" && i + 1 < args.size()) {
      chunk_rows = number_flag<std::uint32_t>(args, i);
    } else {
      std::cerr << "convert: unknown argument '" << args[i] << "'\n";
      return usage();
    }
  }
  if (in.empty() || out.empty() || chunk_rows == 0) return usage();

  if (trace::is_columnar_file(in)) {
    const trace::TraceDatabase db = trace::load_columnar(in);
    trace::save_database(db, out);
    const trace::ChunkReader reader(in);
    std::cout << "converted columnar -> CSV: " << db.servers().size()
              << " servers, " << db.tickets().size() << " tickets to " << out
              << "\n"
              << columnar_stats(reader.report());
    return 0;
  }
  if (std::filesystem::is_directory(in)) {
    const trace::TraceDatabase db = trace::load_database(in);
    const trace::FileReport report = trace::save_columnar(db, out, chunk_rows);
    std::cout << "converted CSV -> columnar: " << db.servers().size()
              << " servers, " << db.tickets().size() << " tickets to " << out
              << "\n"
              << columnar_stats(report);
    return 0;
  }
  std::cerr << "convert: '" << in
            << "' is neither a CSV trace directory nor a columnar file\n";
  return 1;
}

// Footer unreadable: the file is truncated or crash-damaged. Print what a
// salvage scan can still see and point at the recovery path instead of
// leaving the user with a bare parse error.
int info_salvage_diagnostic(const std::string& path,
                            const std::string& error) {
  std::cerr << "error: " << error << "\n";
  const trace::SalvageScan scan = trace::scan_columnar_salvage(path);
  std::cout << scan.to_string();
  if (scan.header_ok && scan.total_chunks() > 0) {
    std::cout << "recover the valid prefix with: fa_trace recover " << path
              << " RECOVERED.fac\n";
  }
  return 3;
}

int cmd_info(const std::string& path) {
  std::unique_ptr<trace::ChunkReader> opened;
  try {
    opened = std::make_unique<trace::ChunkReader>(path);
  } catch (const io::IoError&) {
    throw;  // unreadable at the filesystem level: nothing to salvage
  } catch (const Error& e) {
    if (!trace::is_columnar_file(path)) throw;
    return info_salvage_diagnostic(path, e.what());
  }
  const trace::ChunkReader& reader = *opened;
  const auto window_line = [](const char* name, const ObservationWindow& w) {
    std::cout << "  " << name << " [" << w.begin << ", " << w.end << ")\n";
  };
  std::cout << path << ": columnar trace v" << trace::kColumnarVersion
            << (reader.mmapped() ? ", mmap" : ", buffered")
            << "\nwindows (minutes since trace epoch):\n";
  window_line("ticket    ", reader.window());
  window_line("monitoring", reader.monitoring());
  window_line("on/off    ", reader.onoff_tracking());
  std::cout << "next incident id: " << reader.next_incident() << "\n";

  for (trace::columnar::Table t : trace::columnar::kAllTables) {
    const auto& schema = trace::columnar::table_schema(t);
    std::cout << trace::columnar::table_name(t) << ": "
              << reader.row_count(t) << " rows in " << reader.chunk_count(t)
              << " chunk(s)\n";
    for (std::size_t i = 0; i < reader.chunk_count(t); ++i) {
      const trace::columnar::ChunkInfo& info = reader.chunk_info(t, i);
      std::cout << "  chunk " << i << ": offset " << info.offset << ", "
                << info.size << " B, " << info.rows << " rows, checksum "
                << std::hex << std::setfill('0') << std::setw(16)
                << info.checksum << std::dec << std::setfill(' ') << "\n";
      std::string stats;
      for (std::size_t c = 0; c < schema.size(); ++c) {
        const trace::columnar::ColumnBlockInfo& block = info.columns[c];
        if (!block.stats.has_minmax && block.extra == 0) continue;
        if (!stats.empty()) stats += ", ";
        stats += std::string(schema[c].name);
        if (block.stats.has_minmax) {
          stats += " [" + std::to_string(block.stats.min) + ", " +
                   std::to_string(block.stats.max) + "]";
        } else {
          stats += " dict=" + std::to_string(block.extra);
        }
      }
      if (!stats.empty()) std::cout << "    " << stats << "\n";
    }
  }
  return 0;
}

int cmd_recover(const std::vector<std::string>& args) {
  std::string in, out, report_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--report" && i + 1 < args.size()) {
      report_path = args[++i];
    } else if (in.empty() && !args[i].starts_with("--")) {
      in = args[i];
    } else if (out.empty() && !args[i].starts_with("--")) {
      out = args[i];
    } else {
      std::cerr << "recover: unknown argument '" << args[i] << "'\n";
      return usage();
    }
  }
  if (in.empty() || out.empty()) return usage();

  const trace::SalvageReport report = trace::recover_columnar(in, out);
  std::cout << report.to_string() << "wrote recovered trace to " << out
            << "\n";
  if (!report_path.empty()) write_text_file(report_path, report.to_string());
  return 0;
}

// Shared flag state of the streaming-detection verbs (watch / serve).
struct StreamFlags {
  std::vector<std::pair<double, double>> shifts;  // (day-of-stream, factor)
  double cutoff_days = 0.0;
  double threshold_nats = 0.0;   // 0 = detector default
  double warmup_weeks = 0.0;     // 0 = detector default
  std::string ooo;               // "", "reject", "buffer", "drop"
  double slack_minutes = 0.0;
  bool score = false;
  double horizon_days = 84.0;
  double stats_every_days = 0.0;  // heartbeat cadence; 0 = no heartbeats
  std::string stats_out;          // heartbeat JSONL sink ("" = stdout)
};

// Consumes a stream flag at args[i] if it is one; returns true and advances
// `i` past any operand. Each --shift D:F operand means "rate x F from
// stream day D on".
bool consume_stream_flag(const std::vector<std::string>& args, std::size_t& i,
                         StreamFlags& flags) {
  const std::string& arg = args[i];
  const bool has_operand = i + 1 < args.size();
  if (arg == "--shift" && has_operand) {
    flags.shifts.push_back(number_pair<double, double>(args, i, "DAY:FACTOR"));
  } else if (arg == "--cutoff" && has_operand) {
    flags.cutoff_days = number_flag<double>(args, i);
  } else if (arg == "--threshold" && has_operand) {
    flags.threshold_nats = number_flag<double>(args, i);
  } else if (arg == "--warmup-weeks" && has_operand) {
    flags.warmup_weeks = number_flag<double>(args, i);
  } else if (arg == "--ooo" && has_operand) {
    flags.ooo = args[++i];
  } else if (arg == "--slack" && has_operand) {
    flags.slack_minutes = number_flag<double>(args, i);
  } else if (arg == "--score") {
    flags.score = true;
  } else if (arg == "--horizon" && has_operand) {
    flags.horizon_days = number_flag<double>(args, i);
  } else if (arg == "--stats-every" && has_operand) {
    flags.stats_every_days = number_flag<double>(args, i);
  } else if (arg == "--stats-out" && has_operand) {
    flags.stats_out = args[++i];
  } else {
    return false;
  }
  return true;
}

sim::StreamScenario build_scenario(const StreamFlags& flags,
                                   const ObservationWindow& window) {
  sim::StreamScenario scenario;
  for (const auto& [day, factor] : flags.shifts) {
    scenario.shifts.push_back({window.begin + from_days(day), factor});
  }
  if (flags.cutoff_days > 0.0) {
    scenario.cutoff = window.begin + from_days(flags.cutoff_days);
  }
  return scenario;
}

// Returns false (after reporting) on an unknown --ooo policy.
bool build_detector_options(const StreamFlags& flags,
                            detect::DetectorOptions& options) {
  if (flags.threshold_nats > 0.0) {
    options.cusum_threshold = flags.threshold_nats;
  }
  if (flags.warmup_weeks > 0.0) {
    options.warmup =
        static_cast<Duration>(flags.warmup_weeks * kMinutesPerWeek);
  }
  if (flags.ooo == "buffer") {
    options.out_of_order = detect::OutOfOrderPolicy::kBuffer;
    options.reorder_slack =
        flags.slack_minutes > 0.0
            ? static_cast<Duration>(flags.slack_minutes)
            : kMinutesPerDay;
  } else if (flags.ooo == "drop") {
    options.out_of_order = detect::OutOfOrderPolicy::kDrop;
  } else if (!flags.ooo.empty() && flags.ooo != "reject") {
    std::cerr << "unknown --ooo policy '" << flags.ooo
              << "' (expected reject, buffer or drop)\n";
    return false;
  }
  return true;
}

int cmd_watch(const std::vector<std::string>& args) {
  std::string dir, alerts_out;
  double scale = 0.5;
  std::uint64_t seed = 0;
  bool have_seed = false;
  StreamFlags flags;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (consume_stream_flag(args, i, flags)) {
      continue;
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      scale = number_flag<double>(args, i);
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      seed = number_flag<std::uint64_t>(args, i);
      have_seed = true;
    } else if (args[i] == "--alerts-out" && i + 1 < args.size()) {
      alerts_out = args[++i];
    } else if (dir.empty() && !args[i].starts_with("--")) {
      dir = args[i];
    } else {
      std::cerr << "watch: unknown argument '" << args[i] << "'\n";
      return usage();
    }
  }
  if (scale <= 0.0) return usage();
  if (!flags.stats_out.empty() && flags.stats_every_days <= 0.0) {
    std::cerr << "watch: --stats-out needs --stats-every D\n";
    return usage();
  }

  std::shared_ptr<const trace::TraceDatabase> db;
  if (dir.empty()) {
    auto config = sim::SimulationConfig::paper_defaults().scaled(scale);
    if (have_seed) config.seed = seed;
    db = std::make_shared<const trace::TraceDatabase>(sim::simulate(config));
  } else {
    db = std::make_shared<const trace::TraceDatabase>(load_trace(dir));
  }

  const sim::StreamScenario scenario = build_scenario(flags, db->window());
  detect::DetectorOptions options;
  options.tenant = "watch";
  if (!build_detector_options(flags, options)) return usage();

  detect::OnlineDetector detector(std::move(options));
  detector.set_alert_callback([](const detect::Alert& alert) {
    std::cout << detect::alert_line(alert) << "\n";
  });

  // Optional health heartbeats: wrap the detector in a HealthMonitor and
  // stream each JSONL line as soon as the boundary is crossed (live, not
  // batched — the point of a heartbeat).
  std::ofstream stats_file;
  std::ostream* stats_stream = nullptr;
  if (flags.stats_every_days > 0.0) {
    if (flags.stats_out.empty()) {
      stats_stream = &std::cout;
    } else {
      stats_file.open(flags.stats_out);
      require(stats_file.good(),
              "cannot open " + flags.stats_out + " for writing");
      stats_stream = &stats_file;
    }
  }
  trace::StreamSink* sink = &detector;
  std::unique_ptr<detect::HealthMonitor> monitor;
  if (stats_stream) {
    detect::HealthOptions health;
    health.every = from_days(flags.stats_every_days);
    monitor = std::make_unique<detect::HealthMonitor>(
        detector, detector, nullptr, health, "watch",
        [stats_stream](const detect::Heartbeat& hb) {
          (*stats_stream) << hb.line << "\n" << std::flush;
        });
    sink = monitor.get();
  }

  sim::emit_stream(*db, scenario, *sink);
  const detect::DetectorReport& report = detector.report();

  std::cout << "\n" << report.to_string();
  if (!alerts_out.empty()) write_text_file(alerts_out, report.alert_log());
  if (flags.score) {
    detect::ScoreOptions score_options;
    score_options.match_horizon = from_days(flags.horizon_days);
    const detect::DetectionScore score = detect::score_alerts(
        scenario.change_points(), report.alerts, score_options);
    std::cout << "score: " << score.to_string() << "\n";
  }
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  int tenants = 4;
  double scale = 0.3;
  std::uint64_t base_seed = 1;
  // (tenant index, minutes): each --throttle T:MIN makes tenant T a slow
  // consumer that takes MIN sim-minutes per event.
  std::vector<std::pair<int, double>> throttles;
  StreamFlags flags;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (consume_stream_flag(args, i, flags)) {
      continue;
    } else if (args[i] == "--tenants" && i + 1 < args.size()) {
      tenants = number_flag<int>(args, i);
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      scale = number_flag<double>(args, i);
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      base_seed = number_flag<std::uint64_t>(args, i);
    } else if (args[i] == "--throttle" && i + 1 < args.size()) {
      throttles.push_back(number_pair<int, double>(args, i, "TENANT:MINUTES"));
    } else {
      std::cerr << "serve: unknown argument '" << args[i] << "'\n";
      return usage();
    }
  }
  if (tenants <= 0 || scale <= 0.0) return usage();
  if (!flags.stats_out.empty() && flags.stats_every_days <= 0.0) {
    std::cerr << "serve: --stats-out needs --stats-every D\n";
    return usage();
  }
  for (const auto& [index, minutes] : throttles) {
    if (index < 0 || index >= tenants || minutes < 0.0) {
      std::cerr << "serve: --throttle tenant " << index
                << " out of range (0.." << tenants - 1 << ")\n";
      return usage();
    }
  }

  detect::DetectorOptions options;
  if (!build_detector_options(flags, options)) return usage();
  const sim::StreamScenario scenario =
      build_scenario(flags, ticket_window());

  std::vector<detect::TenantSpec> specs(static_cast<std::size_t>(tenants));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "tenant-" + std::to_string(i);
    specs[i].config = sim::SimulationConfig::paper_defaults().scaled(scale);
    specs[i].config.seed = base_seed + i;
    specs[i].scenario = scenario;
    specs[i].detector = options;
  }
  for (const auto& [index, minutes] : throttles) {
    specs[static_cast<std::size_t>(index)].throttle.service_minutes =
        static_cast<Duration>(minutes);
  }
  detect::ScoreOptions score_options;
  score_options.match_horizon = from_days(flags.horizon_days);
  detect::HealthOptions health;
  if (flags.stats_every_days > 0.0) {
    health.every = from_days(flags.stats_every_days);
  }
  const std::vector<detect::TenantResult> results =
      detect::serve_tenants(specs, score_options, health);

  analysis::TextTable table({"tenant", "events", "crashes", "usage", "alerts",
                             "precision", "recall", "latency_d"});
  std::uint64_t total_events = 0, total_alerts = 0;
  for (const detect::TenantResult& r : results) {
    total_events += r.report.events;
    total_alerts += r.report.alerts.size();
    const bool scored = !r.change_points.empty();
    table.add_row(
        {r.name, std::to_string(r.report.events),
         std::to_string(r.report.crash_tickets),
         std::to_string(r.report.usage_samples),
         std::to_string(r.report.alerts.size()),
         scored ? format_double(r.score.precision(), 3) : std::string("-"),
         scored ? format_double(r.score.recall(), 3) : std::string("-"),
         scored ? format_double(to_days(r.score.median_latency()), 2)
                : std::string("-")});
  }
  std::cout << table.to_string() << "served " << results.size()
            << " tenant streams: " << total_events << " events, "
            << total_alerts << " alerts\n";

  // Backpressure accounting for throttled tenants only, so the default
  // serve output (and its goldens) is unchanged.
  for (const detect::TenantResult& r : results) {
    const detect::BackpressureStats& bp = r.backpressure;
    if (bp.events == 0) continue;
    std::cout << r.name << " backpressure: " << bp.delayed << "/" << bp.events
              << " events delayed, max queue " << bp.max_queue_depth
              << ", max wait " << bp.max_wait << "m, p99 wait "
              << format_double(bp.wait_minutes.quantile(0.99), 0) << "m\n";
  }

  if (health.every > 0) {
    // Merge per-tenant heartbeat streams into one JSONL feed ordered by
    // (sim-time, tenant slot, seq) — deterministic at any --threads.
    struct Entry {
      TimePoint at;
      std::size_t slot;
      std::uint64_t seq;
      const std::string* line;
    };
    std::vector<Entry> entries;
    for (std::size_t i = 0; i < results.size(); ++i) {
      for (const detect::Heartbeat& hb : results[i].heartbeats) {
        entries.push_back({hb.at, i, hb.seq, &hb.line});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return std::tie(a.at, a.slot, a.seq) <
                       std::tie(b.at, b.slot, b.seq);
              });
    std::string jsonl;
    for (const Entry& e : entries) {
      jsonl += *e.line;
      jsonl += '\n';
    }
    if (flags.stats_out.empty()) {
      std::cout << jsonl;
    } else {
      write_text_file(flags.stats_out, jsonl);
      std::cout << "wrote " << entries.size() << " heartbeats to "
                << flags.stats_out << "\n";
    }
  }
  return 0;
}

// `fa_trace top`: one-shot health dashboard over a --stats-out JSONL file.
// Keeps the newest heartbeat per tenant (tenants in first-seen order) and
// renders the per-tenant health table plus any strata that fired alerts.
int cmd_top(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "top: cannot open " << path << "\n";
    return 3;
  }
  std::vector<std::string> order;                // tenants, first-seen order
  std::map<std::string, std::string> latest;     // tenant -> newest line
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string tenant;
    if (!detect::heartbeat_string(line, "tenant", tenant)) {
      std::cerr << "top: line without a tenant field in " << path << "\n";
      return 1;
    }
    if (!latest.contains(tenant)) order.push_back(tenant);
    latest[tenant] = line;  // lines are time-ordered; last one wins
  }
  if (order.empty()) {
    std::cerr << "top: no heartbeats in " << path << "\n";
    return 1;
  }

  const auto count = [](std::string_view scope, std::string_view key) {
    double v = 0.0;
    detect::heartbeat_number(scope, key, v);
    return std::to_string(static_cast<long long>(v));
  };
  const auto quantile = [](std::string_view scope, std::string_view family,
                           std::string_view key) {
    double v = 0.0;
    detect::heartbeat_number(detect::heartbeat_object(scope, family), key, v);
    return format_double(v, 0);
  };

  analysis::TextTable table({"tenant", "time", "events", "alerts", "lag_p99m",
                             "wm_p99m", "ooo", "qdepth", "delayed"});
  analysis::TextTable strata({"tenant", "stratum", "crashes", "rate_wk",
                              "alerts", "armed"});
  std::size_t alerting = 0;
  for (const std::string& tenant : order) {
    const std::string_view det = detect::heartbeat_object(latest[tenant], "det");
    if (det.empty()) {
      std::cerr << "top: heartbeat for " << tenant << " has no det object\n";
      return 1;
    }
    std::string when;
    detect::heartbeat_string(det, "time", when);
    const std::string_view queue = detect::heartbeat_object(det, "queue");
    table.add_row({tenant, when, count(det, "events"), count(det, "alerts"),
                   quantile(det, "event_lag_minutes", "p99"),
                   quantile(det, "watermark_lag_minutes", "p99"),
                   count(det, "ooo_pending"), count(queue, "depth"),
                   count(queue, "delayed")});
    for (const std::string_view item :
         detect::heartbeat_items(detect::heartbeat_array(det, "strata"))) {
      double stratum_alerts = 0.0;
      detect::heartbeat_number(item, "alerts", stratum_alerts);
      if (stratum_alerts <= 0.0) continue;
      ++alerting;
      std::string name;
      detect::heartbeat_string(item, "name", name);
      double rate = 0.0;
      detect::heartbeat_number(item, "window_rate", rate);
      strata.add_row({tenant, name, count(item, "crashes"),
                      format_double(rate, 4), count(item, "alerts"),
                      item.find("\"armed\": true") != std::string_view::npos
                          ? "yes"
                          : "no"});
    }
  }
  std::cout << table.to_string();
  if (alerting > 0) {
    std::cout << "\nstrata with alerts:\n" << strata.to_string();
  } else {
    std::cout << "no stratum-level alerts\n";
  }
  return 0;
}

int cmd_classify(const std::string& dir) {
  const auto ctx = analyzed(load_trace(dir));
  const analysis::AnalysisPipeline& pipeline = *ctx.pipeline;
  const auto& result = pipeline.classification();

  analysis::TextTable table({"class", "tickets", "share"});
  std::array<int, trace::kFailureClassCount> counts{};
  for (const trace::Ticket* t : pipeline.failures()) {
    ++counts[static_cast<std::size_t>(pipeline.class_of(*t))];
  }
  const auto total = static_cast<double>(pipeline.failures().size());
  for (trace::FailureClass c : trace::kAllFailureClasses) {
    const int n = counts[static_cast<std::size_t>(c)];
    table.add_row({std::string(trace::to_string(c)), std::to_string(n),
                   format_double(100.0 * n / total, 1) + "%"});
  }
  std::cout << table.to_string() << "\naccuracy vs trace labels: "
            << format_double(100.0 * result.accuracy, 1) << "%\n";
  return 0;
}

int cmd_fit(const std::string& dir, const std::string& metric,
            const std::string& type_name) {
  const auto ctx = analyzed(load_trace(dir));
  const trace::TraceDatabase& db = *ctx.db;
  const analysis::AnalysisPipeline& pipeline = *ctx.pipeline;
  const auto type = trace::machine_type_from_string(
      type_name == "pm" ? "PM" : type_name == "vm" ? "VM" : type_name);
  const analysis::Scope scope{type, std::nullopt};

  std::vector<double> sample;
  if (metric == "interfailure") {
    sample = analysis::per_server_interfailure_days(db, pipeline.failures(),
                                                    scope);
  } else if (metric == "repair") {
    sample = analysis::repair_hours(db, pipeline.failures(), scope);
  } else {
    return usage();
  }
  require(sample.size() >= 30, "fit: sample too small (" +
                                   std::to_string(sample.size()) +
                                   " observations)");

  analysis::TextTable table({"family", "parameters", "logL", "AIC", "KS"});
  for (const auto& fit : stats::fit_candidates(sample)) {
    table.add_row({fit.dist->name(), fit.dist->describe(),
                   format_double(fit.log_likelihood, 1),
                   format_double(fit.aic, 1),
                   format_double(fit.ks_statistic, 4)});
  }
  std::cout << metric << " sample (" << type_name << "): " << sample.size()
            << " observations\n"
            << table.to_string();
  return 0;
}

int cmd_transitions(const std::string& dir) {
  const auto ctx = analyzed(load_trace(dir));
  const trace::TraceDatabase& db = *ctx.db;
  const analysis::AnalysisPipeline& pipeline = *ctx.pipeline;
  const auto result = analysis::analyze_transitions(
      db, pipeline.failures(), pipeline.class_lookup(), kMinutesPerWeek);

  analysis::TextTable table({"from \\ to", "HW", "Net", "Power", "Reboot",
                             "SW", "Other", "P(follow-up)"});
  for (trace::FailureClass from : trace::kAllFailureClasses) {
    const auto i = static_cast<std::size_t>(from);
    std::vector<std::string> row = {std::string(trace::to_string(from))};
    for (std::size_t j = 0; j < trace::kFailureClassCount; ++j) {
      row.push_back(format_double(result.probability[i][j], 2));
    }
    row.push_back(format_double(result.followup_probability[i], 3));
    table.add_row(std::move(row));
  }
  std::cout << "same-server class transitions within a week\n"
            << table.to_string();
  return 0;
}

int cmd_sanitize(const std::vector<std::string>& args) {
  std::string dir, counts_csv, defects_csv;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--counts-csv" && i + 1 < args.size()) {
      counts_csv = args[++i];
    } else if (args[i] == "--defects-csv" && i + 1 < args.size()) {
      defects_csv = args[++i];
    } else if (dir.empty() && !args[i].starts_with("--")) {
      dir = args[i];
    } else {
      std::cerr << "sanitize: unknown argument '" << args[i] << "'\n";
      return usage();
    }
  }
  if (dir.empty()) return usage();

  trace::SanitizationReport report;
  const trace::TraceDatabase db = trace::load_database(dir, &report);
  std::cout << report.to_string() << "kept: " << db.servers().size()
            << " servers, " << db.tickets().size() << " tickets\n";
  if (!counts_csv.empty()) {
    write_text_file(counts_csv, report.counts_csv());
  }
  if (!defects_csv.empty()) {
    write_text_file(defects_csv, report.defects_csv());
  }
  return 0;
}

// Parses "class=rate,class=rate,..." into `mix`; returns false (after
// printing the offending token) on malformed input.
bool parse_mix(const std::string& spec, inject::DefectMix& mix) {
  for (const std::string& entry : split(spec, ',')) {
    const auto eq = entry.find('=');
    const std::optional<double> rate =
        eq == std::string::npos
            ? std::nullopt
            : parse_number<double>(std::string_view(entry).substr(eq + 1));
    if (!rate) {
      std::cerr << "corrupt: --mix entry '" << entry
                << "' is not class=rate\n";
      return false;
    }
    const std::string name = entry.substr(0, eq);
    bool known = false;
    for (trace::DefectClass cls : trace::kAllDefectClasses) {
      if (trace::to_string(cls) == name) {
        mix.set_rate(cls, *rate);
        known = true;
        break;
      }
    }
    if (!known) {
      std::cerr << "corrupt: unknown defect class '" << name << "'\n";
      return false;
    }
  }
  return true;
}

int cmd_corrupt(const std::vector<std::string>& args) {
  std::string in_dir, out_dir, mix_spec, counts_csv;
  std::uint64_t seed = 1;
  double rate = 0.0;
  bool have_rate = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--in" && i + 1 < args.size()) {
      in_dir = args[++i];
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_dir = args[++i];
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      seed = number_flag<std::uint64_t>(args, i);
    } else if (args[i] == "--rate" && i + 1 < args.size()) {
      rate = number_flag<double>(args, i);
      have_rate = true;
    } else if (args[i] == "--mix" && i + 1 < args.size()) {
      mix_spec = args[++i];
    } else if (args[i] == "--counts-csv" && i + 1 < args.size()) {
      counts_csv = args[++i];
    } else {
      std::cerr << "corrupt: unknown argument '" << args[i] << "'\n";
      return usage();
    }
  }
  if (in_dir.empty() || out_dir.empty()) return usage();
  if (!have_rate && mix_spec.empty()) {
    std::cerr << "corrupt: nothing to inject (give --rate and/or --mix)\n";
    return usage();
  }
  if (have_rate && (rate < 0.0 || rate > 1.0)) return usage();

  inject::DefectMix mix =
      have_rate ? inject::DefectMix::uniform(rate) : inject::DefectMix{};
  if (!mix_spec.empty() && !parse_mix(mix_spec, mix)) return usage();

  const auto report = inject::corrupt_database(in_dir, out_dir, seed, mix);
  std::cout << report.to_string()
            << "wrote corrupted export to " << out_dir << "\n";
  if (!counts_csv.empty()) write_text_file(counts_csv, report.counts_csv());
  return 0;
}

// Dispatches a parsed command line (global flags already stripped).
int run_command(const std::vector<std::string>& args) {
  const std::string& command = args[0];
  if (command == "simulate") {
    return cmd_simulate({args.begin() + 1, args.end()});
  }
  if (command == "report") {
    std::vector<std::string> rest(args.begin() + 1, args.end());
    bool lenient = false;
    double scale = 0.1;
    std::string dir;
    for (std::size_t i = 0; i < rest.size(); ++i) {
      if (rest[i] == "--lenient") {
        lenient = true;
      } else if (rest[i] == "--scale" && i + 1 < rest.size()) {
        scale = number_flag<double>(rest, i);
      } else if (dir.empty() && !rest[i].starts_with("--")) {
        dir = rest[i];
      } else {
        std::cerr << "report: unknown argument '" << rest[i] << "'\n";
        return usage();
      }
    }
    if (scale <= 0.0) return usage();
    return cmd_report(dir, lenient, scale);
  }
  if (command == "watch") {
    return cmd_watch({args.begin() + 1, args.end()});
  }
  if (command == "serve") {
    return cmd_serve({args.begin() + 1, args.end()});
  }
  if (command == "top" && args.size() == 2) {
    return cmd_top(args[1]);
  }
  if (command == "convert") {
    return cmd_convert({args.begin() + 1, args.end()});
  }
  if (command == "info" && args.size() == 2) {
    return cmd_info(args[1]);
  }
  if (command == "recover" && args.size() >= 3) {
    return cmd_recover({args.begin() + 1, args.end()});
  }
  if (command == "classify" && args.size() == 2) {
    return cmd_classify(args[1]);
  }
  if (command == "fit" && args.size() == 4) {
    return cmd_fit(args[1], args[2], args[3]);
  }
  if (command == "transitions" && args.size() == 2) {
    return cmd_transitions(args[1]);
  }
  if (command == "sanitize") {
    return cmd_sanitize({args.begin() + 1, args.end()});
  }
  if (command == "corrupt") {
    return cmd_corrupt({args.begin() + 1, args.end()});
  }
  if (command == "classify" || command == "fit" ||
      command == "transitions" || command == "info" ||
      command == "recover" || command == "top") {
    return usage();  // known command, wrong arity
  }
  return unknown_command(command);
}

// Amdahl sweep behind `fa_trace profile`: re-runs the profiled command at
// 1, 2, 4 and 8 worker threads (fresh registry, stdout suppressed), then least-squares-fits the serial fraction of every stage
// span recorded in all four runs (stats::amdahl_serial_fraction). A
// fraction near 1 means the stage does not scale with threads.
void print_amdahl_sweep(const std::vector<std::string>& args) {
  constexpr std::array<int, 4> kThreads = {1, 2, 4, 8};
  std::map<std::string, std::array<double, kThreads.size()>> totals;
  std::map<std::string, std::size_t> seen;
  const std::size_t previous = fa::ThreadPool::default_thread_count();
  for (std::size_t ti = 0; ti < kThreads.size(); ++ti) {
    fa::obs::MetricsRegistry::global().reset();
    fa::ThreadPool::set_default_thread_count(
        static_cast<std::size_t>(kThreads[ti]));
    std::ostringstream discard;
    std::streambuf* saved = std::cout.rdbuf(discard.rdbuf());
    bool ok = true;
    try {
      ok = run_command(args) == 0;
    } catch (const std::exception&) {
      ok = false;
    }
    std::cout.rdbuf(saved);
    if (!ok) {
      // The instrumented run succeeded, so a sweep failure (e.g. an output
      // path that cannot be rewritten) only skips the fit.
      fa::ThreadPool::set_default_thread_count(previous);
      std::cout << "amdahl sweep skipped: command failed at "
                << kThreads[ti] << " threads\n";
      return;
    }
    for (const auto& span :
         fa::obs::MetricsRegistry::global().snapshot().spans) {
      totals[span.name][ti] = span.total_ms;
      ++seen[span.name];
    }
  }
  fa::ThreadPool::set_default_thread_count(previous);

  analysis::TextTable table(
      {"stage", "1t ms", "2t ms", "4t ms", "8t ms", "serial fraction"});
  for (const auto& [name, ms] : totals) {
    if (seen[name] != kThreads.size()) continue;  // not present in every run
    std::array<std::string, kThreads.size()> cells;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      cells[i] = format_double(ms[i], 1);
    }
    const double s = stats::amdahl_serial_fraction(
        kThreads, std::span<const double>(ms));
    table.add_row({name, cells[0], cells[1], cells[2], cells[3],
                   format_double(s, 2)});
  }
  std::cout << "\nthread scaling (1/2/4/8 worker threads, Amdahl fit):\n"
            << table.to_string();
  if (fa::ThreadPool::hardware_threads() <= 1) {
    std::cout << "note: this host has 1 hardware core; the sweep "
                 "oversubscribes it and the fit is not meaningful\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string metrics_path, trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-obs") {
      fa::obs::set_enabled(false);
    } else if (arg == "--threads" && i + 1 < argc) {
      const std::string value = argv[++i];
      const auto threads = fa::ThreadPool::parse_thread_count(value);
      if (!threads) {
        std::cerr << "invalid --threads value '" << value
                  << "' (expected an integer from 0 to "
                  << fa::ThreadPool::kMaxThreads << ")\n";
        return 2;
      }
      fa::ThreadPool::set_default_thread_count(*threads);
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(12);
    } else {
      args.push_back(arg);
    }
  }
  bool profile = false;
  if (!args.empty() && args[0] == "profile") {
    profile = true;
    args.erase(args.begin());
    if (metrics_path.empty()) metrics_path = "fa_metrics.json";
    if (trace_path.empty()) trace_path = "fa_trace_events.json";
    if (args.empty()) args.emplace_back("report");
  }
  if (args.empty()) return usage();

  int rc;
  try {
    rc = run_command(args);
  } catch (const UsageError& e) {
    std::cerr << e.what() << "\n";
    rc = 2;
  } catch (const fa::io::IoError& e) {
    std::cerr << "i/o error: " << e.what() << "\n";
    rc = 3;
  } catch (const fa::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 1;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    rc = 1;
  }

  if (profile) {
    std::cout << "\n"
              << fa::obs::render_table(
                     fa::obs::MetricsRegistry::global().snapshot());
  }
  if (!fa::obs::export_registry_files(metrics_path, trace_path)) {
    if (rc == 0) rc = 1;
  } else if (profile) {
    std::cout << "wrote " << metrics_path << " and " << trace_path
              << " (load the trace in chrome://tracing or ui.perfetto.dev)\n";
  }
  // The sweep runs after the export so the JSON artifacts keep describing
  // the instrumented run, not the last sweep iteration.
  if (profile && rc == 0) print_amdahl_sweep(args);
  return rc;
}

// Workload `storage`: the out-of-core path at scale 8. One pass is a write
// phase, sim::simulate_to -> trace::ColumnarTraceWriter into a fresh .fac
// file, and a read phase, trace::load_columnar + analysis::summarize_columnar
// over that file. The checks: the file's bytes never change between passes
// (traced or not), the streaming summary equals the summary of the loaded
// database, and the loaded row counts equal the writer's tallies.
#include <filesystem>
#include <optional>
#include <sstream>

#include "perfbench/sinks.h"
#include "perfbench/workloads.h"
#include "src/analysis/out_of_core.h"
#include "src/sim/config.h"
#include "src/sim/simulator.h"
#include "src/trace/columnar_io.h"
#include "src/trace/trace_writer.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace trace = fa::trace;

constexpr double kScale = 8.0;

class Storage final : public Workload {
 public:
  explicit Storage(const RunOptions& options)
      : options_(options), path_(options.work_dir + "/storage.fac") {
    fs::create_directories(options.work_dir);
  }

  ~Storage() override {
    std::error_code ignored;
    fs::remove(path_, ignored);
  }

  void generate_inputs() override {
    config_ = fa::sim::SimulationConfig::paper_defaults().scaled(kScale);
    config_.seed = options_.seed;
  }

  PassResult run_pass(Tracer* tracer, bool plant_fault) override {
    PassResult result;
    result.attempted = 1;
    fs::remove(path_);
    try {
      cycle(tracer, plant_fault, result);
    } catch (const std::exception& e) {
      result.fail(std::string("storage: ") + e.what());
    }
    // Deleting the file before the kernel writes it back keeps disk
    // write-back out of the next pass.
    fs::remove(path_);
    return result;
  }

  Figures figures() const override { return figures_; }

  void describe(std::ostream& out) const override {
    out << "inputs: scale " << kScale << " fleet, simulation seed "
        << options_.seed << "\n"
        << "storage file: " << path_
        << " (flush policy: none; the columnar writer never calls fsync, and "
           "each file is deleted at the end of its pass)\n";
  }

 private:
  void cycle(Tracer* tracer, bool plant_fault, PassResult& result) {
    std::size_t servers = 0, tickets = 0;
    trace::FileReport report;
    CallTimer sink;
    result.phases.push_back(timed_phase("write", tracer, [&] {
      Span span(tracer, "sim.generate");
      std::optional<trace::ColumnarTraceWriter> writer;
      sink.time([&] { writer.emplace(path_); });
      if (tracer == nullptr) {
        fa::sim::simulate_to(config_, *writer);
      } else {
        TimedTraceWriter timed(*writer, sink);
        fa::sim::simulate_to(config_, timed);
      }
      servers = writer->server_count();
      tickets = writer->ticket_count();
      report = writer->report();
      sink.time([&] { writer.reset(); });
      if (tracer != nullptr) {
        tracer->add_folded(span.id(), "trace.encode", sink);
      }
    }));
    if (plant_fault) fs::resize_file(path_, fs::file_size(path_) / 2);

    std::optional<trace::TraceDatabase> db;
    fa::analysis::OutOfCoreSummary scanned;
    result.phases.push_back(timed_phase("read", tracer, [&] {
      {
        Span span(tracer, "trace.load");
        db = trace::load_columnar(path_);
      }
      Span span(tracer, "trace.scan");
      scanned = fa::analysis::summarize_columnar(path_);
    }));

    const std::uint64_t file_bytes = fs::file_size(path_);
    const std::uint64_t digest = file_digest(path_);
    if (!reference_) reference_ = digest;
    const auto fail = [&](const std::string& why) {
      result.fail("storage: " + why);
    };
    if (digest != *reference_) {
      fail("file bytes differ from the first pass's file");
    } else if (scanned != fa::analysis::summarize_database(*db)) {
      fail("summarize_columnar disagrees with summarize_database");
    } else if (db->servers().size() != servers ||
               db->tickets().size() != tickets ||
               report.rows[0] != scanned.servers ||
               report.rows[1] != scanned.tickets ||
               report.rows[2] != scanned.weekly_usage_rows ||
               report.rows[3] != scanned.power_events ||
               report.rows[4] != scanned.snapshots) {
      fail("row counts differ from the writer's tallies");
    }

    std::uint64_t rows = 0, chunks = 0;
    std::array<std::uint64_t, trace::columnar::kTableCount> bytes{};
    for (const trace::ColumnReport& c : report.columns) {
      bytes[static_cast<std::size_t>(c.table)] += c.bytes;
    }
    figures_ = {{"sim.tickets", static_cast<double>(tickets)},
                {"trace.fac_mb", static_cast<double>(file_bytes) / 1e6}};
    for (trace::columnar::Table table : trace::columnar::kAllTables) {
      const auto t = static_cast<std::size_t>(table);
      rows += report.rows[t];
      chunks += report.chunks[t];
      figures_["trace.bytes_per_row." +
               std::string(trace::columnar::table_name(table))] =
          report.rows[t] == 0 ? 0.0
                              : static_cast<double>(bytes[t]) /
                                    static_cast<double>(report.rows[t]);
    }
    figures_["sim.events"] = static_cast<double>(rows);
    figures_["trace.chunks"] = static_cast<double>(chunks);
    if (tracer != nullptr) add_call_figures(figures_, "trace.write", sink);
  }

  RunOptions options_;
  std::string path_;
  fa::sim::SimulationConfig config_;
  std::optional<std::uint64_t> reference_;
  Figures figures_;
};

}  // namespace

std::unique_ptr<Workload> make_storage(const RunOptions& options) {
  return std::make_unique<Storage>(options);
}

}  // namespace perfbench

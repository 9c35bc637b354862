// Workload `online`: eight tenant traces at scale 0.5 replayed as event
// streams with the calibrated x4 hazard shift at stream day 180. Set-up
// simulates the traces; one pass runs, per tenant, sim::emit_stream ->
// detect::OnlineDetector -> detect::score_alerts, one tenant per task of
// fa::parallel_for. The checks: alert logs never change between passes or
// thread counts, and at the default base seed tenant 0's log equals the
// checked-in golden log and every tenant scores precision = recall = 1.
#include <fstream>
#include <sstream>
#include <vector>

#include "perfbench/sinks.h"
#include "perfbench/workloads.h"
#include "src/detect/detector.h"
#include "src/detect/scoring.h"
#include "src/sim/config.h"
#include "src/sim/simulator.h"
#include "src/sim/stream.h"
#include "src/util/thread_pool.h"

namespace perfbench {

namespace {

constexpr int kTenants = 8;
constexpr double kScale = 0.5;
constexpr double kShiftDay = 180.0;
constexpr double kShiftFactor = 4.0;
// Timing every detector call would bill the clock's cost (comparable to a
// call) to the detector, so traced passes time a 1-in-8 sample of calls.
constexpr std::uint32_t kDetectorSampleEvery = 8;
constexpr const char* kGoldenLog =
    "tools/golden/watch_alerts_scale05_seed1.log";

struct TenantOutcome {
  std::string alert_log;
  std::uint64_t events = 0;
  std::uint64_t tickets = 0;
  std::uint64_t alerts = 0;
  fa::detect::DetectionScore score;
  CallTimer detector{kDetectorSampleEvery};
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class Online final : public Workload {
 public:
  explicit Online(const RunOptions& options) : options_(options) {
    if (options_.default_seed) {
      golden_ = read_file(options_.repo_root + "/" + kGoldenLog);
    }
  }

  void generate_inputs() override {
    traces_.clear();
    for (int i = 0; i < kTenants; ++i) {
      auto config = fa::sim::SimulationConfig::paper_defaults().scaled(kScale);
      config.seed = options_.seed + static_cast<std::uint64_t>(i);
      traces_.push_back(fa::sim::simulate(config));
    }
    scenario_ = {};
    scenario_.shifts.push_back(
        {traces_.front().window().begin + fa::from_days(kShiftDay),
         kShiftFactor});
  }

  PassResult run_pass(Tracer* tracer, bool plant_fault) override {
    std::vector<TenantOutcome> out(traces_.size());
    PassResult result;
    result.phases.push_back(timed_phase("pass", tracer, [&] {
      fa::parallel_for(traces_.size(), [&](std::size_t i) {
        run_tenant(i, tracer, out[i]);
      });
    }));
    if (plant_fault) flip_first_alert(out.front().alert_log);
    check(out, result);

    std::uint64_t events = 0, tickets = 0, alerts = 0;
    std::size_t changes = 0, detected = 0, true_alerts = 0, false_alerts = 0;
    std::vector<double> latency_days;
    CallTimer detector{kDetectorSampleEvery};
    for (const TenantOutcome& t : out) {
      for (fa::Duration d : t.score.latencies) {
        latency_days.push_back(fa::to_days(d));
      }
      events += t.events;
      tickets += t.tickets;
      alerts += t.alerts;
      changes += t.score.changes;
      detected += t.score.detected;
      true_alerts += t.score.true_positive_alerts;
      false_alerts += t.score.false_positive_alerts;
      detector.merge(t.detector);
    }
    const auto share = [](std::size_t num, std::size_t den) {
      return den == 0 ? 1.0 : static_cast<double>(num) / den;
    };
    figures_ = {
        {"sim.tickets", static_cast<double>(tickets)},
        {"sim.events", static_cast<double>(events)},
        {"detect.alerts", static_cast<double>(alerts)},
        {"detect.precision", share(true_alerts, true_alerts + false_alerts)},
        {"detect.recall", share(detected, changes)},
        {"detect.latency_days", median(latency_days)},
    };
    if (tracer != nullptr) {
      add_call_figures(figures_, "detect.on_event", detector);
    }
    return result;
  }

  Figures figures() const override { return figures_; }

  void describe(std::ostream& out) const override {
    out << "inputs: " << kTenants << " tenant traces at scale " << kScale
        << ", seeds " << options_.seed << ".." << options_.seed + kTenants - 1
        << ", hazard x" << kShiftFactor << " from stream day " << kShiftDay
        << "\n";
  }

 private:
  void run_tenant(std::size_t i, Tracer* tracer, TenantOutcome& out) const {
    fa::detect::DetectorOptions options;
    options.tenant = "t";
    options.tenant += std::to_string(i);
    fa::detect::OnlineDetector detector(std::move(options));
    {
      Span span(tracer, "sim.emit_stream");
      if (tracer == nullptr) {
        fa::sim::emit_stream(traces_[i], scenario_, detector);
      } else {
        TimedSink sink(detector, out.detector);
        fa::sim::emit_stream(traces_[i], scenario_, sink);
        tracer->add_folded(span.id(), "detect.detector", out.detector);
      }
    }
    Span span(tracer, "detect.score");
    const fa::detect::DetectorReport& report = detector.report();
    out.score = fa::detect::score_alerts(scenario_.change_points(),
                                         report.alerts);
    out.alert_log = report.alert_log();
    out.events = report.events;
    out.tickets = report.tickets;
    out.alerts = report.alerts.size();
  }

  void check(const std::vector<TenantOutcome>& out, PassResult& result) {
    if (reference_.empty()) {
      for (const TenantOutcome& t : out) reference_.push_back(t.alert_log);
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      ++result.attempted;
      const std::string tenant = "online: tenant " + std::to_string(i);
      if (out[i].alert_log != reference_[i]) {
        result.fail(tenant + ": alert log differs from the first pass's");
      } else if (i == 0 && options_.default_seed &&
                 out[i].alert_log != golden_) {
        result.fail(tenant + ": alert log differs from " + kGoldenLog);
      } else if (options_.default_seed && (out[i].score.precision() != 1.0 ||
                                           out[i].score.recall() != 1.0)) {
        result.fail(tenant + ": " + out[i].score.to_string());
      }
    }
  }

  // The planted fault for the self-tests: one alert line changed.
  static void flip_first_alert(std::string& log) {
    if (log.empty()) {
      log = "ALERT planted\n";
    } else {
      log[0] = log[0] == 'A' ? 'a' : 'A';
    }
  }

  RunOptions options_;
  std::string golden_;
  std::vector<fa::trace::TraceDatabase> traces_;
  fa::sim::StreamScenario scenario_;
  std::vector<std::string> reference_;
  Figures figures_;
};

}  // namespace

std::unique_ptr<Workload> make_online(const RunOptions& options) {
  return std::make_unique<Online>(options);
}

}  // namespace perfbench

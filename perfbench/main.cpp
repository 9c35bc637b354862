// Benchmark driver: runs one workload for a fixed time and prints every
// metric by name with its unit, then one JSON line with the result.
//
//   fa_perfbench --workload repro|online|storage [--seed N] [--seconds S]
//                [--trace 0|1] [--work-dir DIR] [--repo-root DIR]
//                [--plant-fault]
//
// End-to-end mode (--trace 0) sets up several times (inputs + one untimed
// warm-up pass each, at 1 thread), then alternates passes at 4 and at 1
// worker threads until --seconds have passed, and reports medians; the
// gated times are in reference seconds (harness.h). Traced mode (--trace 1)
// sets up once and interleaves untraced 1-thread, traced 1-thread and
// untraced 4-thread passes; the per-layer breakdown is the traced pass with
// the median wall time. --plant-fault corrupts the first timed pass's output
// so the self-tests can show that its check fails.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "src/obs/metrics.h"

namespace perfbench {

namespace {

constexpr std::size_t kThreads = 4;  // the multi-threaded passes' count

struct WorkloadSpec {
  std::string_view name;
  std::uint64_t default_seed;
  std::unique_ptr<Workload> (*make)(const RunOptions&);
  // Set-up repetitions behind setup_s: as many as the run's time budget
  // allows for the workload's set-up length (README.md).
  int setups;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"repro", 42, make_repro, 9},
    {"online", 1, make_online, 7},
    {"storage", 42, make_storage, 5},
};

struct Metric {
  std::string name;
  std::string unit;
};

// Must match BENCHMARK.json, in order. wall_1t_ref_s and setup_s are in
// reference seconds. The 4-thread pass time is printed as wall_s and
// reported per layer as util.wall_4t_s, but not gated: on the shared host
// its run-to-run spread exceeded every allowed bound (README.md).
const std::vector<Metric> kEndToEnd = {
    {"wall_1t_ref_s", "s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

// Must match BENCHMARK.json, in order. A metric of a layer that a workload
// never runs reads 0.
const std::vector<Metric> kPerLayer = {
    // Self time of each span, named after it (span name + "_s").
    {"sim.simulate_s", "s"},
    {"sim.generate_s", "s"},
    {"sim.emit_stream_s", "s"},
    {"trace.database_s", "s"},
    {"trace.finalize_s", "s"},
    {"trace.encode_s", "s"},
    {"trace.load_s", "s"},
    {"trace.scan_s", "s"},
    {"analysis.pipeline_s", "s"},
    {"analysis.tables_s", "s"},
    {"stats.fit_s", "s"},
    {"detect.detector_s", "s"},
    {"detect.score_s", "s"},
    {"tracer.overhead_s", "s"},
    {"unattributed_s", "s"},
    {"traced_pass_s", "s"},
    {"tracing_overhead", "ratio"},
    // Calls into the writer (repro, storage) and the detector (online).
    {"trace.write_calls", "count"},
    {"trace.write_samples", "count"},
    {"trace.write_p50_ns", "ns"},
    {"trace.write_p99_ns", "ns"},
    {"detect.on_event_calls", "count"},
    {"detect.on_event_samples", "count"},
    {"detect.on_event_p50_ns", "ns"},
    {"detect.on_event_p99_ns", "ns"},
    {"util.wall_4t_s", "s"},
    {"util.speedup_4t", "ratio"},
    {"detect.events_per_s", "1/s"},
    {"sim.tickets", "count"},
    {"sim.events", "count"},
    {"trace.fac_mb", "MB"},
    {"trace.chunks", "count"},
    {"trace.bytes_per_row.servers", "B"},
    {"trace.bytes_per_row.tickets", "B"},
    {"trace.bytes_per_row.weekly_usage", "B"},
    {"trace.bytes_per_row.power_events", "B"},
    {"trace.bytes_per_row.snapshots", "B"},
    {"analysis.accuracy", "ratio"},
    {"analysis.kmeans_distances", "count"},
    {"analysis.kmeans_iterations", "count"},
    {"analysis.kmeans_prune_ratio", "ratio"},
    {"detect.alerts", "count"},
    {"detect.precision", "ratio"},
    {"detect.recall", "ratio"},
    {"detect.latency_days", "d"},
};

struct Args {
  const WorkloadSpec* workload = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string repo_root = ".";
  bool plant_fault = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fa_perfbench: " << why << "\n"
            << "usage: fa_perfbench --workload repro|online|storage "
               "[--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR] "
               "[--repo-root DIR] [--plant-fault]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(std::string(arg) + " needs a value");
      return argv[++i];
    };
    const auto number = [&](const std::string& text) {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !(v >= 0.0)) {
        usage("bad value '" + text + "' for " + std::string(arg));
      }
      return v;
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const WorkloadSpec& w : kWorkloads) {
        if (w.name == name) args.workload = &w;
      }
      if (args.workload == nullptr) usage("unknown workload '" + name + "'");
    } else if (arg == "--seed") {
      const std::string text = value();
      std::uint64_t seed = 0;
      const auto [end, ec] =
          std::from_chars(text.data(), text.data() + text.size(), seed);
      if (ec != std::errc() || end != text.data() + text.size()) {
        usage("bad seed '" + text + "'");
      }
      args.seed = seed;
    } else if (arg == "--seconds") {
      args.seconds = number(value());
    } else if (arg == "--trace") {
      const std::string text = value();
      if (text != "0" && text != "1") usage("--trace takes 0 or 1");
      args.trace = text == "1";
    } else if (arg == "--work-dir") {
      args.work_dir = value();
    } else if (arg == "--repo-root") {
      args.repo_root = value();
    } else if (arg == "--plant-fault") {
      args.plant_fault = true;
    } else {
      usage("unknown argument '" + std::string(arg) + "'");
    }
  }
  if (args.workload == nullptr) usage("--workload is required");
  return args;
}

std::string number_text(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

// Accumulates pass outcomes of one run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const PassResult& pass) {
    attempted += pass.attempted;
    failed += pass.failed;
    for (const std::string& e : pass.errors) {
      if (errors.size() < 20) errors.push_back(e);
    }
  }
};

// Timings of untraced passes, by thread count.
struct Timings {
  std::map<std::size_t, std::vector<double>> pass_s;
  // Each pass's peak resident set. A pass's peak depends on how the heap was
  // left by the passes before it, so the gated figure is a median over
  // passes; the highest over all passes is printed as max_rss_mb.
  std::map<std::size_t, std::vector<double>> pass_rss_mb;
  std::map<std::string, std::vector<double>> phase_s;  // at kThreads
  std::map<std::string, double> phase_rss_mb;          // highest, any threads
  double max_rss_mb = 0.0;

  void add(std::size_t threads, const PassResult& pass) {
    pass_s[threads].push_back(pass.seconds());
    pass_rss_mb[threads].push_back(pass.peak_rss_mb());
    max_rss_mb = std::max(max_rss_mb, pass.peak_rss_mb());
    for (const Phase& p : pass.phases) {
      if (threads == kThreads) phase_s[p.name].push_back(p.seconds);
      double& rss = phase_rss_mb[p.name];
      rss = std::max(rss, p.peak_rss_mb);
    }
  }
  double median_s(std::size_t threads) const {
    const auto it = pass_s.find(threads);
    return it == pass_s.end() ? 0.0 : median(it->second);
  }
};

class Runner {
 public:
  Runner(const Args& args, Clock::time_point process_start)
      : args_(args), process_start_(process_start) {
    RunOptions options;
    options.seed = args.seed.value_or(args.workload->default_seed);
    options.default_seed = options.seed == args.workload->default_seed;
    options.work_dir = args.work_dir;
    options.repo_root = args.repo_root;
    workload_ = args.workload->make(options);
    std::cout << "perfbench: workload=" << args.workload->name
              << " seed=" << options.seed
              << (options.default_seed ? " (default)" : " (non-default)")
              << " threads=" << kThreads << ",1 seconds=" << args.seconds
              << " trace=" << (args.trace ? 1 : 0) << "\n";
  }

  int run() {
    set_up(args_.trace ? 1 : args_.workload->setups);
    workload_->describe(std::cout);
    return args_.trace ? run_traced() : run_end_to_end();
  }

 private:
  // Runs one untraced or traced pass at `threads`, switching and warming
  // the pool first when the count changes. Observability stays on, as the
  // CLI ships it; its registry is cleared so that each pass starts from the
  // state a fresh process would have.
  PassResult pass(std::size_t threads, Tracer* tracer, bool plant_fault) {
    if (threads != threads_) {
      use_threads(threads);
      threads_ = threads;
    }
    fa::obs::MetricsRegistry::global().reset();
    PassResult result = workload_->run_pass(tracer, plant_fault);
    tally_.add(result);
    return result;
  }

  // Set-up runs at 1 thread, like the gated passes: the single-threaded
  // reference kernel tracks the host's speed for single-threaded work only
  // (README.md). Each repetition follows a kernel run. The first also starts
  // the pool; the time from process start to its end (one kernel run
  // included) is printed on its own, as first_setup_s.
  void set_up(int repetitions) {
    for (int k = 0; k < repetitions; ++k) {
      const double kernel_s = reference_kernel_s();
      const auto begin = Clock::now();
      workload_->generate_inputs();
      pass(1, nullptr, false);
      setup_s_.push_back(seconds_between(begin, Clock::now()));
      setup_ref_s_.push_back(reference_seconds(setup_s_.back(), kernel_s));
      kernel_s_.push_back(kernel_s);
      if (k == 0) {
        first_setup_s_ = seconds_between(process_start_, Clock::now());
      }
    }
  }

  // Runs rounds of passes until the next round would overrun --seconds.
  template <typename Round>
  void measure(Round&& round) {
    const auto begin = Clock::now();
    double longest = 0.0;
    for (int r = 0;; ++r) {
      const auto round_begin = Clock::now();
      round(r);
      longest = std::max(longest, seconds_between(round_begin, Clock::now()));
      if (seconds_between(begin, Clock::now()) + longest > args_.seconds) {
        return;
      }
    }
  }

  int run_end_to_end() {
    Timings timings;
    std::vector<double> wall_1t_ref_s;
    bool plant = args_.plant_fault;
    measure([&](int r) {
      // ABBA order, so that slow drift of the host hits both counts alike.
      for (std::size_t threads :
           r % 2 == 0 ? std::vector<std::size_t>{kThreads, 1}
                      : std::vector<std::size_t>{1, kThreads}) {
        // Each 1-thread pass follows a reference kernel run, so that it can
        // be expressed in reference seconds.
        const double kernel_s = threads == 1 ? reference_kernel_s() : 0.0;
        const PassResult result = pass(threads, nullptr, plant);
        timings.add(threads, result);
        if (threads == 1) {
          wall_1t_ref_s.push_back(
              reference_seconds(result.seconds(), kernel_s));
          kernel_s_.push_back(kernel_s);
        }
        plant = false;
      }
    });

    const std::map<std::string, double> e2e = {
        {"wall_1t_ref_s", median(wall_1t_ref_s)},
        {"peak_rss_mb", median(timings.pass_rss_mb[1])},
        {"setup_s", median(setup_ref_s_)},
    };
    print_timing_summary(timings);
    std::cout << "gated (times in reference seconds, " << kReferenceS
              << " s per reference kernel run):\n";
    for (const Metric& m : kEndToEnd) {
      print_line(m.name, e2e.at(m.name), m.unit);
    }
    std::cout << "reported, not gated (wall-clock seconds):\n";
    print_line("wall_1t_s", timings.median_s(1), "s");
    print_line("wall_s", timings.median_s(kThreads), "s");
    print_line("setup_wall_s", median(setup_s_), "s");
    print_line("first_setup_s", first_setup_s_, "s");
    print_line("reference_kernel_s", median(kernel_s_), "s");
    print_line("max_rss_mb", timings.max_rss_mb, "MB");
    if (timings.phase_s.size() > 1) {
      std::cout << "phases (median at " << kThreads
                << " threads; peak RSS over all passes):\n";
      for (const auto& [phase, seconds] : timings.phase_s) {
        print_line(phase + "_s", median(seconds), "s");
        print_line(phase + "_rss_mb", timings.phase_rss_mb.at(phase), "MB");
      }
    }
    print_figures(workload_->figures());
    return finish(e2e, kEndToEnd);
  }

  int run_traced() {
    Timings timings;
    Tracer tracer;
    std::vector<std::pair<double, int>> traced;  // (wall s, pass id)
    std::map<int, Figures> figures;
    measure([&](int r) {
      for (int step = 0; step < 3; ++step) {
        switch ((step + r) % 3) {
          case 0:
            timings.add(1, pass(1, nullptr, false));
            break;
          case 1: {
            const int id = static_cast<int>(traced.size());
            tracer.set_pass(id);
            pass(1, &tracer, false);
            traced.emplace_back(tracer.pass_seconds(id), id);
            figures[id] = workload_->figures();
            break;
          }
          default:
            timings.add(kThreads, pass(kThreads, nullptr, false));
        }
      }
    });

    // The breakdown is that of one real pass, the one with the median
    // traced wall time, so its self times add up to its wall time exactly.
    std::sort(traced.begin(), traced.end());
    const auto [traced_s, id] = traced[(traced.size() - 1) / 2];
    const std::map<std::string, double> self = tracer.self_times(id);
    Figures layer = figures.at(id);
    for (const auto& [name, seconds] : self) {
      const std::string metric = name + "_s";
      if (std::none_of(kPerLayer.begin(), kPerLayer.end(),
                       [&](const Metric& m) { return m.name == metric; })) {
        throw std::logic_error("span '" + name + "' has no per-layer metric");
      }
      layer[metric] = seconds;
    }
    std::vector<double> traced_all;
    for (const auto& t : traced) traced_all.push_back(t.first);
    const double untraced_1t = timings.median_s(1);
    const double untraced_4t = timings.median_s(kThreads);
    layer["traced_pass_s"] = traced_s;
    layer["tracing_overhead"] = median(traced_all) / untraced_1t - 1.0;
    layer["util.wall_4t_s"] = untraced_4t;
    layer["util.speedup_4t"] = untraced_1t / untraced_4t;
    if (self.contains("detect.detector")) {
      layer["detect.events_per_s"] = layer["sim.events"] / untraced_4t;
    }

    print_timing_summary(timings);
    std::cout << "traced passes: " << traced.size()
              << " at 1 thread, median " << number_text(median(traced_all))
              << " s; tracing overhead "
              << number_text(100.0 * layer["tracing_overhead"])
              << "% against the untraced 1-thread median\n"
              << "breakdown of traced pass " << id << " (" << traced_s
              << " s), self time per span:\n";
    double sum = 0.0;
    for (const auto& [name, seconds] : self) {
      sum += seconds;
      std::printf("  %-22s %10.6f s  %5.1f%%\n", name.c_str(), seconds,
                  100.0 * seconds / traced_s);
    }
    std::printf("  %-22s %10.6f s  (traced pass wall %.6f s)\n", "sum", sum,
                traced_s);
    for (const std::string prefix : {"trace.write", "detect.on_event"}) {
      if (!layer.contains(prefix + "_calls")) continue;
      const double calls = layer.at(prefix + "_calls");
      const double samples = layer.at(prefix + "_samples");
      std::cout << prefix << " timing: " << samples << " of " << calls
                << " calls timed ("
                << (samples < calls ? "pseudo-random sample, total scaled up"
                                    : "every call")
                << "), " << number_text(clock_overhead_s() * 1e9)
                << " ns clock overhead subtracted per timed call\n";
    }
    const std::string spans =
        args_.work_dir + "/spans_" + std::string(args_.workload->name) +
        ".json";
    tracer.write_json(spans);
    std::cout << "spans: " << spans << "\n";
    print_figures(layer);
    return finish(layer, kPerLayer);
  }

  void print_timing_summary(const Timings& timings) const {
    std::cout << "set-up: " << setup_s_.size() << " x, median "
              << number_text(median(setup_s_)) << " s\n";
    for (auto [threads, seconds] : timings.pass_s) {
      std::sort(seconds.begin(), seconds.end());
      const auto at = [&](double q) {
        return seconds[static_cast<std::size_t>(
            q * static_cast<double>(seconds.size() - 1))];
      };
      std::printf(
          "untraced passes at %zu thread(s): n=%zu, min %.4f, p25 %.4f, "
          "median %.4f, p75 %.4f, max %.4f s\n",
          threads, seconds.size(), seconds.front(), at(0.25),
          median(seconds), at(0.75), seconds.back());
    }
  }

  static void print_line(const std::string& name, double value,
                         const std::string& unit) {
    std::printf("  %-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }

  static void print_figures(const Figures& figures) {
    std::cout << "figures:\n";
    for (const auto& [name, value] : figures) print_line(name, value, "");
  }

  int finish(const std::map<std::string, double>& values,
             const std::vector<Metric>& metrics) const {
    std::cout << "operations: " << tally_.attempted << " attempted, "
              << tally_.failed << " failed\n";
    for (const std::string& e : tally_.errors) {
      std::cout << "check failed: " << e << "\n";
    }
    std::string json = "{\"correct\": ";
    json += tally_.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally_.attempted);
    json += ", \"failed\": " + std::to_string(tally_.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto it = values.find(metrics[i].name);
      json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
              number_text(it == values.end() ? 0.0 : it->second) +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
  }

  Args args_;
  Clock::time_point process_start_;
  std::unique_ptr<Workload> workload_;
  std::size_t threads_ = 0;
  std::vector<double> setup_s_;      // wall-clock seconds
  std::vector<double> setup_ref_s_;  // reference seconds
  std::vector<double> kernel_s_;     // reference kernel runs
  double first_setup_s_ = 0.0;
  Tally tally_;
};

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    std::filesystem::create_directories(args.work_dir);
    perfbench::Runner runner(args, process_start);
    return runner.run();
  } catch (const std::exception& e) {
    std::cerr << "fa_perfbench: " << e.what() << "\n";
    return 1;
  }
}

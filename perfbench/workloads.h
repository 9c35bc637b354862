// The benchmark's three workloads behind one interface. Each pass calls the
// repository's libraries through their public entry points only, and checks
// its own outputs before the next pass starts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "perfbench/harness.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 0;
  // The checked-in golden log and the precision check hold only at a
  // workload's default seed; other seeds keep the invariance checks.
  bool default_seed = true;
  std::string work_dir;   // scratch files (the storage workload's .fac)
  std::string repo_root;  // checkout root, for checked-in golden files
};

// Per-layer figures of the last pass that spans do not give: counts,
// ratios, bytes and quality guards, keyed by metric name.
using Figures = std::map<std::string, double>;

// The figures of a traced pass's call timer, named after the calls it timed
// (`prefix` = "trace.write" or "detect.on_event"): calls, timed calls and
// the per-call latency quantiles.
inline void add_call_figures(Figures& figures, const std::string& prefix,
                             const CallTimer& timer) {
  figures[prefix + "_calls"] = static_cast<double>(timer.calls());
  figures[prefix + "_samples"] = static_cast<double>(timer.samples());
  figures[prefix + "_p50_ns"] = timer.quantile_ns(0.50);
  figures[prefix + "_p99_ns"] = timer.quantile_ns(0.99);
}

class Workload {
 public:
  virtual ~Workload() = default;

  // The input-generation part of set-up (the warm-up pass is the rest).
  virtual void generate_inputs() = 0;

  // One pass. A null `tracer` runs untraced. `plant_fault` makes the pass
  // corrupt its own output before checking it; the self-tests use it to show
  // that every check can fail.
  virtual PassResult run_pass(Tracer* tracer, bool plant_fault) = 0;

  // Figures of the most recent pass.
  virtual Figures figures() const = 0;

  // Inputs and placement, printed once per run.
  virtual void describe(std::ostream& out) const = 0;
};

std::unique_ptr<Workload> make_repro(const RunOptions& options);
std::unique_ptr<Workload> make_online(const RunOptions& options);
std::unique_ptr<Workload> make_storage(const RunOptions& options);

}  // namespace perfbench

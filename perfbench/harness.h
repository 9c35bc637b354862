// Measurement plumbing shared by the benchmark's workloads: clocks, medians,
// a 64-bit digest for output checks, per-phase resident-set tracking, the
// reference kernel behind reference seconds, thread switching between
// passes, and the span tracer used by traced runs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point begin, Clock::time_point end);

// Median; 0 for an empty sample.
double median(std::vector<double> xs);

// FNV-1a over the bytes fed to it. Doubles are hashed by bit pattern, so a
// digest pins results exactly, not to a printed precision.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(std::int64_t v) { bytes(&v, sizeof v); }
  void add(int v) { add(static_cast<std::int64_t>(v)); }
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::string_view s);
  void add(const std::vector<double>& xs);
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 14695981039346656037ull;
};

// Hash of a whole file's bytes (read in large blocks).
std::uint64_t file_digest(const std::string& path);

// Resident-set tracking per measured phase: reset_peak_rss() returns freed
// heap to the kernel (malloc_trim) and writes "5" to /proc/self/clear_refs,
// which resets the kernel's VmHWM mark to the current resident set;
// peak_rss_mb() then reads VmHWM from /proc/self/status.
// Returns false (after one warning) where the kernel refuses the reset, in
// which case the peak also covers everything before the phase.
bool reset_peak_rss();
double peak_rss_mb();  // MB = 10^6 bytes

// The reference kernel: a fixed single-threaded task owned by the benchmark,
// sorting 2^20 pseudo-random 64-bit keys (about 0.1 s on a 4-vCPU cloud
// host). Returns the sort's wall time on the calling thread. The host's
// speed moves it and the program's code does not.
double reference_kernel_s();

// Reference seconds: a time of `seconds` measured next to a reference kernel
// run of `kernel_s`, scaled to a host on which the kernel takes kReferenceS.
// Gated times are reported this way, so that the host's changes of speed
// from minute to minute cancel out (README.md).
constexpr double kReferenceS = 0.1;
inline double reference_seconds(double seconds, double kernel_s) {
  return seconds * kReferenceS / kernel_s;
}

// Sets the process-wide pool to `threads` workers and warms it, so the next
// timed parallel_for does not pay for rebuilding the pool.
void use_threads(std::size_t threads);

// Median cost of one steady_clock::now() read, measured back to back. Timed
// calls subtract it so that the clock's own latency is not billed to the
// layer being timed.
double clock_overhead_s();

// Times calls into a sink and folds them into one total plus a latency
// histogram, instead of one span per call. With `every` > 1 only a
// deterministic pseudo-random 1-in-`every` sample of the calls is timed and
// the total is scaled up by calls / samples. Every timed call has the
// clock's own cost subtracted.
class CallTimer {
 public:
  explicit CallTimer(std::uint32_t every = 1) : every_(every) {}

  template <typename Fn>
  void time(Fn&& fn) {
    ++calls_;
    if (!take()) {
      fn();
      return;
    }
    const auto begin = Clock::now();
    fn();
    record(seconds_between(begin, Clock::now()));
  }

  void merge(const CallTimer& other);

  std::uint64_t calls() const { return calls_; }
  std::uint64_t samples() const { return samples_; }
  // Estimated time inside all calls, timed or not.
  double total_s() const;
  // Time the timing itself added outside the timed intervals (clock reads,
  // bookkeeping), which the caller's own time would otherwise absorb.
  double overhead_s() const;
  // Latency quantile of the timed calls, in ns (log-bucketed, ~9% wide).
  double quantile_ns(double q) const;

 private:
  static constexpr int kBucketsPerOctave = 8;
  static constexpr int kBuckets = 48 * kBucketsPerOctave;

  bool take();
  void record(double seconds);

  std::uint32_t every_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
  std::uint64_t calls_ = 0;
  std::uint64_t samples_ = 0;
  double sampled_s_ = 0.0;
  std::vector<std::uint64_t> histogram_ = std::vector<std::uint64_t>(kBuckets);
};

// ---- spans ----

struct SpanRecord {
  std::string name;
  int pass = 0;
  int parent = -1;  // index into spans(); -1 for a phase (root) span
  double start_s = 0.0;  // since the tracer's epoch
  double end_s = 0.0;
  bool folded = false;  // stands for many calls timed by a CallTimer
};

// In-memory span recorder for traced passes. Spans are kept until the run
// ends and written out as JSON then. A span's parent is the innermost span
// still open on the calling thread, else the current phase span.
class Tracer {
 public:
  Tracer();

  void set_pass(int pass) { pass_ = pass; }
  int open(std::string name);
  void close(int id);
  // Adds a child of `parent` that stands for many folded calls whose total
  // duration was measured by summing (or sampling) them. Folded children are
  // laid end to end from the start of the parent's interval.
  void add_folded(int parent, std::string name, double seconds);
  // The two folded children a CallTimer gives: the time inside the calls,
  // and the timing's own overhead ("tracer.overhead").
  void add_folded(int parent, std::string name, const CallTimer& timer);

  // Self time per span name over one pass: each span's duration minus the
  // part of its interval that its children cover. Phase spans are reported
  // under "unattributed", the time of the pass no layer span claims.
  std::map<std::string, double> self_times(int pass) const;
  // Sum of the phase spans' durations of one pass (the traced wall time).
  double pass_seconds(int pass) const;

  void write_json(const std::string& path) const;

 private:
  double now_s() const;

  Clock::time_point epoch_;
  int pass_ = 0;
  int phase_ = -1;  // open phase span, parent of spans with no open parent
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

// RAII span; a null tracer makes it a no-op (untraced passes).
class Span {
 public:
  Span(Tracer* tracer, std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// ---- passes ----

// One timed region of a pass: its wall time and the peak resident set
// reached while it ran.
struct Phase {
  std::string name;
  double seconds = 0.0;
  double peak_rss_mb = 0.0;
};

// Runs `fn` as a timed phase: resets the peak-RSS mark, times the call and
// records, when tracing, a root span named after the phase.
template <typename Fn>
Phase timed_phase(const std::string& name, Tracer* tracer, Fn&& fn) {
  reset_peak_rss();
  const auto begin = Clock::now();
  {
    Span span(tracer, name);
    fn();
  }
  const auto end = Clock::now();
  return {name, seconds_between(begin, end), peak_rss_mb()};
}

// What one pass did and whether its outputs checked out. An operation is
// the workload's unit of work (a pass, a tenant stream, a write+read cycle).
struct PassResult {
  std::vector<Phase> phases;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // one line per failed check

  double seconds() const;
  double peak_rss_mb() const;
  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
};

}  // namespace perfbench

#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <memory>
#include <span>
#include <stdexcept>
#include <sys/mman.h>

#include "src/util/thread_pool.h"

namespace perfbench {

namespace {

// Innermost open span of the calling thread (indices into the tracer).
thread_local std::vector<int> t_open_spans;

}  // namespace

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 1099511628211ull;
  }
}

void Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  bytes(s.data(), s.size());
}

void Digest::add(const std::vector<double>& xs) {
  add(static_cast<std::uint64_t>(xs.size()));
  bytes(xs.data(), xs.size() * sizeof(double));
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  // Word-wise FNV-style mixing: the files are hundreds of MB, and this runs
  // outside the timed phases but inside the run's time budget.
  std::uint64_t state = 14695981039346656037ull;
  std::vector<char> block(1 << 20);
  while (in) {
    in.read(block.data(), static_cast<std::streamsize>(block.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    std::size_t i = 0;
    for (; i + 8 <= got; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, block.data() + i, sizeof word);
      state = (state ^ word) * 1099511628211ull;
      state ^= state >> 29;
    }
    for (; i < got; ++i) {
      state = (state ^ static_cast<unsigned char>(block[i])) * 1099511628211ull;
    }
    state ^= got;
  }
  return state;
}

bool reset_peak_rss() {
  static bool warned = false;
  // Hand memory the allocator kept from earlier passes back to the kernel
  // first, so the phase starts from the resident set a fresh process has.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) return false;
  if (!ok && !warned) {
    warned = true;
    std::cerr << "warning: cannot reset VmHWM through /proc/self/clear_refs; "
                 "peak RSS figures include everything before each phase\n";
  }
  return ok;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0.0;
}

void use_threads(std::size_t threads) {
  fa::ThreadPool::set_default_thread_count(threads);
  // Building the pool (and waking each worker once) happens here, untimed.
  fa::parallel_for(threads * 16, [](std::size_t) {});
}

double reference_kernel_s() {
  // The keys live in a mapping of their own, unmapped before returning, so
  // that the kernel neither stays resident through a measured phase nor
  // changes the layout of the program's heap.
  constexpr std::size_t kKeys = std::size_t{1} << 20;
  constexpr std::size_t kBytes = kKeys * sizeof(std::uint64_t);
  void* mapping = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED) {
    throw std::runtime_error("reference kernel: cannot map its keys");
  }
  const std::unique_ptr<void, void (*)(void*)> unmap(
      mapping, [](void* m) { munmap(m, kBytes); });
  const std::span<std::uint64_t> keys(static_cast<std::uint64_t*>(mapping),
                                      kKeys);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t& v : keys) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    v = x >> 7;
  }
  const auto begin = Clock::now();
  std::sort(keys.begin(), keys.end());
  const auto end = Clock::now();
  if (!std::is_sorted(keys.begin(), keys.end())) {
    throw std::logic_error("reference kernel did not sort");
  }
  return seconds_between(begin, end);
}

double clock_overhead_s() {
  static const double overhead = [] {
    std::vector<double> samples(20000);
    for (double& s : samples) {
      const auto a = Clock::now();
      const auto b = Clock::now();
      s = seconds_between(a, b);
    }
    return median(std::move(samples));
  }();
  return overhead;
}

// ---- CallTimer ----

bool CallTimer::take() {
  if (every_ <= 1) return true;
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_ % every_ == 0;
}

void CallTimer::record(double seconds) {
  const double corrected = std::max(0.0, seconds - clock_overhead_s());
  ++samples_;
  sampled_s_ += corrected;
  const double ns = corrected * 1e9;
  const int bucket =
      ns < 1.0 ? 0
               : std::min(kBuckets - 1,
                          static_cast<int>(std::log2(ns) * kBucketsPerOctave));
  ++histogram_[static_cast<std::size_t>(bucket)];
}

void CallTimer::merge(const CallTimer& other) {
  calls_ += other.calls_;
  samples_ += other.samples_;
  sampled_s_ += other.sampled_s_;
  for (std::size_t b = 0; b < histogram_.size(); ++b) {
    histogram_[b] += other.histogram_[b];
  }
}

double CallTimer::total_s() const {
  return samples_ == 0 ? 0.0
                       : sampled_s_ * static_cast<double>(calls_) /
                             static_cast<double>(samples_);
}

double CallTimer::overhead_s() const {
  // Cost of one timed call of an empty function beyond what it reports,
  // calibrated once; the median of a few rounds damps scheduler noise.
  static const double per_timed_call = [] {
    std::vector<double> rounds;
    for (int r = 0; r < 5; ++r) {
      CallTimer probe;
      constexpr int kCalls = 20000;
      const auto begin = Clock::now();
      for (int i = 0; i < kCalls; ++i) probe.time([] {});
      const double elapsed = seconds_between(begin, Clock::now());
      rounds.push_back((elapsed - probe.total_s()) / kCalls);
    }
    return median(std::move(rounds));
  }();
  return static_cast<double>(samples_) * per_timed_call;
}

double CallTimer::quantile_ns(double q) const {
  if (samples_ == 0) return 0.0;
  const double target = q * static_cast<double>(samples_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < histogram_.size(); ++b) {
    seen += histogram_[b];
    if (static_cast<double>(seen) >= target && histogram_[b] > 0) {
      // Geometric middle of the bucket [2^(b/8), 2^((b+1)/8)).
      return std::exp2((static_cast<double>(b) + 0.5) / kBucketsPerOctave);
    }
  }
  return std::exp2(static_cast<double>(histogram_.size()) / kBucketsPerOctave);
}

// ---- Tracer ----

Tracer::Tracer() : epoch_(Clock::now()) {
  // Calibrate the timers now rather than inside the first traced pass.
  clock_overhead_s();
  CallTimer().overhead_s();
}

double Tracer::now_s() const { return seconds_between(epoch_, Clock::now()); }

int Tracer::open(std::string name) {
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  const int parent = t_open_spans.empty() ? phase_ : t_open_spans.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), pass_, parent, start, start});
  if (parent == -1) phase_ = id;
  t_open_spans.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_s = end;
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  if (id == phase_) phase_ = -1;
}

void Tracer::add_folded(int parent, std::string name, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  double start = spans_[static_cast<std::size_t>(parent)].start_s;
  for (const SpanRecord& s : spans_) {
    if (s.folded && s.parent == parent) start = std::max(start, s.end_s);
  }
  const int pass = spans_[static_cast<std::size_t>(parent)].pass;
  spans_.push_back(
      {std::move(name), pass, parent, start, start + seconds, true});
}

void Tracer::add_folded(int parent, std::string name,
                        const CallTimer& timer) {
  add_folded(parent, std::move(name), timer.total_s());
  add_folded(parent, "tracer.overhead", timer.overhead_s());
}

std::map<std::string, double> Tracer::self_times(int pass) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.pass == pass && s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.pass != pass) continue;
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_s;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      const double hi = std::min(b, s.end_s);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(b, s.end_s));
    }
    const std::string& key = s.parent == -1 ? "unattributed" : s.name;
    self[key] += (s.end_s - s.start_s) - covered;
  }
  return self;
}

double Tracer::pass_seconds(int pass) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.pass == pass && s.parent == -1) total += s.end_s - s.start_s;
  }
  return total;
}

void Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"spans\": [\n";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"start_s\": %.9f, \"end_s\": %.9f",
                  s.start_s, s.end_s);
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"pass\": " << s.pass << ", \"parent\": " << s.parent << ", "
        << buf << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

Span::Span(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->open(std::move(name));
}

Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

// ---- PassResult ----

double PassResult::seconds() const {
  double total = 0.0;
  for (const Phase& p : phases) total += p.seconds;
  return total;
}

double PassResult::peak_rss_mb() const {
  double peak = 0.0;
  for (const Phase& p : phases) peak = std::max(peak, p.peak_rss_mb);
  return peak;
}

}  // namespace perfbench

// Performance toolkit. Default mode times the pipeline stages (simulate,
// classify) serial vs parallel, breaks the classify stage into
// vectorize/kmeans sub-stages (each the median of 5 runs at 1 thread),
// times trace save/load CSV
// vs columnar (with a record-identity and out-of-core-equivalence check),
// checks that the parallel trace is identical to the serial one, times the
// vectorized stats kernels against their scalar references (`simd` block),
// sweeps the stages over 1/2/4/8 threads with an Amdahl serial-fraction
// fit (`thread_scaling` block; meaningless on a 1-core host, which sets
// `single_core_warning` and warns on stderr), times online detection (the
// full simulate -> score path, and emit_stream -> OnlineDetector alone as
// the median of 5 runs at 1 thread; `detect` block), and writes the results to
// BENCH_perf.json (machine-readable; path override:
// --json PATH; fleet size: --scale F, default 0.3). --stream S instead
// runs the out-of-core path end to end — streaming simulate -> columnar
// file -> chunk-at-a-time summary -> full load_columnar at scale S (which
// may exceed 1) — and reports peak RSS alongside the timings (default
// JSON: BENCH_stream.json).
// --metrics PATH / --trace-out PATH write the observability registry's
// JSON snapshot and Chrome trace after the stage report; --no-obs turns
// recording off. The google-benchmark microbenchmarks of the underlying
// kernels (fitting, ECDF, k-means, extraction) run with --micro, which
// accepts the usual --benchmark_* flags.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/classification.h"
#include "src/analysis/out_of_core.h"
#include "src/detect/detector.h"
#include "src/detect/serve.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/recurrence.h"
#include "src/sim/simulator.h"
#include "src/sim/stream.h"
#include "src/trace/columnar_io.h"
#include "src/trace/csv_io.h"
#include "src/trace/trace_writer.h"
#include "src/stats/ecdf.h"
#include "src/stats/fitting.h"
#include "src/stats/kmeans.h"
#include "src/stats/simd.h"
#include "src/text/features.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace {

using namespace fa;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Median wall time of kMedianRuns calls of `run`, in ms: a single reading,
// and any reading of a fine-grained parallel region, varies too much from
// run to run on a shared host to compare commits by.
constexpr int kMedianRuns = 5;
template <typename Run>
double median_ms(Run&& run) {
  std::array<double, kMedianRuns> ms{};
  for (double& m : ms) {
    const Clock::time_point t0 = Clock::now();
    run();
    m = ms_since(t0);
  }
  std::sort(ms.begin(), ms.end());
  return ms[kMedianRuns / 2];
}

// A cheap structural checksum of a trace: enough to certify that two runs
// produced the same event sequence.
std::uint64_t trace_checksum(const trace::TraceDatabase& db) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(db.tickets().size());
  for (const auto& t : db.tickets()) {
    mix(static_cast<std::uint64_t>(t.server.value));
    mix(static_cast<std::uint64_t>(t.opened));
    mix(static_cast<std::uint64_t>(t.closed));
    mix(t.is_crash);
  }
  return h;
}

struct StageTiming {
  std::string name;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
};

struct SubStageTiming {
  std::string name;
  double ms = 0.0;
};

// ---- simd block: dispatched kernels vs their scalar references ----

struct KernelTiming {
  std::string name;
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  double speedup() const { return simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0; }
};

template <typename F>
double time_kernel_ms(int iters, F&& f) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) benchmark::DoNotOptimize(f());
  return ms_since(t0);
}

// Times each stats kernel over an L2-resident buffer, scalar reference vs
// the dispatched entry point, in one binary (both are always compiled in).
// The equivalence tests pin that the results agree; this block pins that
// the vector path is actually faster. sparse_dot_block runs at the
// classifier's k-means shape instead: 32 centroids over 146 terms, rows of
// 12-18 nonzeros, one iteration being a scan of kBlockRows rows.
std::vector<KernelTiming> run_simd_report(std::size_t n, int iters) {
  Rng rng(17);
  std::vector<double> a(n), b(n), cdf(n);
  for (double& x : a) x = rng.uniform(0.1, 10.0);
  for (double& x : b) x = rng.uniform(0.1, 10.0);
  // Sorted pseudo-CDF values for the KS scan.
  for (std::size_t i = 0; i < n; ++i) {
    cdf[i] = (static_cast<double>(i) + 0.3) / static_cast<double>(n);
  }
  // A sparse row hitting every fourth dense coordinate.
  const std::size_t nnz = n / 4;
  std::vector<double> values(nnz);
  std::vector<std::uint32_t> indices(nnz);
  for (std::size_t e = 0; e < nnz; ++e) {
    values[e] = rng.uniform(0.1, 10.0);
    indices[e] = static_cast<std::uint32_t>(4 * e);
  }
  const double mu = stats::simd::scalar::sum(a) / static_cast<double>(n);
  constexpr std::size_t kBlockTerms = 146, kBlockStride = 32, kBlockRows = 64;
  std::vector<double> block(kBlockTerms * kBlockStride);
  for (double& x : block) x = rng.uniform(0.0, 0.2);
  std::vector<std::size_t> row_offsets = {0};
  std::vector<double> row_values;
  std::vector<std::uint32_t> row_indices;
  for (std::size_t r = 0; r < kBlockRows; ++r) {
    const auto nnz_r = static_cast<std::size_t>(rng.uniform_int(12, 18));
    const std::size_t step = kBlockTerms / nnz_r;
    for (std::size_t e = 0; e < nnz_r; ++e) {
      row_values.push_back(rng.uniform(0.0, 1.0));
      row_indices.push_back(static_cast<std::uint32_t>(e * step + r % step));
    }
    row_offsets.push_back(row_values.size());
  }
  std::vector<double> block_out(kBlockStride);
  const auto scan_rows = [&](auto&& kernel) {
    double total = 0.0;
    for (std::size_t r = 0; r < kBlockRows; ++r) {
      const std::size_t begin = row_offsets[r];
      kernel(row_values.data() + begin, row_indices.data() + begin,
             row_offsets[r + 1] - begin, block.data(), kBlockStride,
             block_out.data());
      total += block_out[r % kBlockStride];
    }
    return total;
  };

  namespace sd = stats::simd;
  std::vector<KernelTiming> kernels;
  const auto time_pair = [&](const char* name, auto&& scalar_fn,
                             auto&& simd_fn) {
    KernelTiming k;
    k.name = name;
    k.scalar_ms = time_kernel_ms(iters, scalar_fn);
    k.simd_ms = time_kernel_ms(iters, simd_fn);
    kernels.push_back(std::move(k));
  };
  time_pair("sum", [&] { return sd::scalar::sum(a); },
            [&] { return sd::sum(a); });
  time_pair("sum_sq", [&] { return sd::scalar::sum_sq(a); },
            [&] { return sd::sum_sq(a); });
  time_pair("sum_sq_dev", [&] { return sd::scalar::sum_sq_dev(a, mu); },
            [&] { return sd::sum_sq_dev(a, mu); });
  time_pair("dot", [&] { return sd::scalar::dot(a, b); },
            [&] { return sd::dot(a, b); });
  time_pair("squared_distance",
            [&] { return sd::scalar::squared_distance(a, b); },
            [&] { return sd::squared_distance(a, b); });
  time_pair("sparse_dot",
            [&] {
              return sd::scalar::sparse_dot(values.data(), indices.data(), nnz,
                                            b.data());
            },
            [&] {
              return sd::sparse_dot(values.data(), indices.data(), nnz,
                                    b.data());
            });
  time_pair("sparse_dot_block",
            [&] { return scan_rows(sd::scalar::sparse_dot_block); },
            [&] { return scan_rows(sd::sparse_dot_block); });
  time_pair("ks_max_deviation",
            [&] { return sd::scalar::ks_max_deviation(cdf.data(), n); },
            [&] { return sd::ks_max_deviation(cdf.data(), n); });
  return kernels;
}

// ---- thread_scaling block: stage sweep over 1/2/4/8 threads ----

inline constexpr std::array<int, 4> kScalingThreads = {1, 2, 4, 8};

struct ScalingStage {
  std::string name;
  std::array<double, kScalingThreads.size()> ms{};
  double serial_fraction = 0.0;
};

int run_stage_report(double scale, const std::string& json_path) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(scale);
  const std::size_t hw = ThreadPool::hardware_threads();
  const bool single_core = hw <= 1;
  if (single_core) {
    std::fprintf(stderr,
                 "warning: only 1 hardware core is available; parallel "
                 "speedups and the thread-scaling sweep are not meaningful "
                 "on this host\n");
  }
  std::vector<StageTiming> stages;

  // simulate: serial vs parallel, with an identity check on the output.
  ThreadPool::set_default_thread_count(1);
  auto t0 = Clock::now();
  const auto serial_db = sim::simulate(config);
  const double simulate_serial = ms_since(t0);
  ThreadPool::set_default_thread_count(0);  // hardware concurrency
  t0 = Clock::now();
  const auto parallel_db = sim::simulate(config);
  const double simulate_parallel = ms_since(t0);
  const bool identical =
      trace_checksum(serial_db) == trace_checksum(parallel_db);
  stages.push_back({"simulate", simulate_serial, simulate_parallel});

  // classify (the analysis pipeline: extraction + k-means restarts).
  ThreadPool::set_default_thread_count(1);
  t0 = Clock::now();
  const analysis::AnalysisPipeline serial_pipeline(serial_db);
  const double classify_serial = ms_since(t0);
  ThreadPool::set_default_thread_count(0);
  t0 = Clock::now();
  const analysis::AnalysisPipeline parallel_pipeline(parallel_db);
  const double classify_parallel = ms_since(t0);
  stages.push_back({"classify", classify_serial, classify_parallel});

  // classify sub-stages on the crash-extraction shape: TF-IDF (fit and
  // transform) over every ticket description, then anchored 24-cluster
  // k-means. Each is the median of kMedianRuns runs at 1 thread.
  ThreadPool::set_default_thread_count(1);
  std::vector<SubStageTiming> substages;
  stats::IterationStats kmeans_stats;
  {
    std::vector<std::string> corpus;
    corpus.reserve(parallel_db.tickets().size());
    for (const auto& t : parallel_db.tickets()) {
      corpus.emplace_back(t.description);
    }
    text::VectorizerOptions vec_options;
    vec_options.min_document_frequency = 3;
    std::optional<stats::SparseMatrix> features;
    substages.push_back({"vectorize", median_ms([&] {
                           features = text::Vectorizer::fit(corpus, vec_options)
                                          .transform_all_sparse(corpus);
                         })});

    stats::KMeansOptions km;
    km.k = 24;
    km.restarts = 3;
    km.anchors.push_back(features->row_dense(0));
    substages.push_back({"kmeans", median_ms([&] {
                           Rng rng(13);
                           kmeans_stats = stats::kmeans(*features, km, rng).stats;
                         })});
  }
  ThreadPool::set_default_thread_count(0);

  // Thread-scaling sweep: the two stages at 1/2/4/8 threads, with a
  // least-squares Amdahl fit (stats::amdahl_serial_fraction) per stage.
  // Oversubscribing a small host is intentional — the curve flattening out
  // past the core count is exactly what the serial-fraction fit reports.
  std::vector<ScalingStage> scaling = {{"simulate"}, {"classify"}};
  for (std::size_t ti = 0; ti < kScalingThreads.size(); ++ti) {
    ThreadPool::set_default_thread_count(
        static_cast<std::size_t>(kScalingThreads[ti]));
    t0 = Clock::now();
    const auto db = sim::simulate(config);
    scaling[0].ms[ti] = ms_since(t0);
    t0 = Clock::now();
    const analysis::AnalysisPipeline pipeline(db);
    scaling[1].ms[ti] = ms_since(t0);
  }
  ThreadPool::set_default_thread_count(0);
  for (ScalingStage& s : scaling) {
    s.serial_fraction = stats::amdahl_serial_fraction(
        kScalingThreads, std::span<const double>(s.ms));
  }

  // SIMD kernels: scalar reference vs the dispatched vector path.
  const std::size_t simd_elements = std::size_t{1} << 14;
  const auto simd_kernels = run_simd_report(simd_elements, 2000);

  // Trace IO: save/load the same database as CSV and as the chunked
  // columnar format, cross-checking record identity and that the
  // out-of-core chunk summary matches the in-memory one.
  namespace fs = std::filesystem;
  const fs::path io_dir = "bench_io_tmp";
  const fs::path csv_dir = io_dir / "csv";
  const fs::path fac_path = io_dir / "trace.fac";
  fs::remove_all(io_dir);
  fs::create_directories(csv_dir);
  t0 = Clock::now();
  trace::save_database(parallel_db, csv_dir.string());
  const double csv_save = ms_since(t0);
  std::uint64_t csv_bytes = 0;
  for (const auto& entry : fs::directory_iterator(csv_dir)) {
    csv_bytes += entry.file_size();
  }
  t0 = Clock::now();
  const auto csv_loaded = trace::load_database(csv_dir.string());
  const double csv_load = ms_since(t0);
  t0 = Clock::now();
  trace::save_columnar(parallel_db, fac_path.string());
  const double col_save = ms_since(t0);
  const std::uint64_t col_bytes = fs::file_size(fac_path);
  t0 = Clock::now();
  const auto col_loaded = trace::load_columnar(fac_path.string());
  const double col_load = ms_since(t0);
  const std::uint64_t reference_checksum = trace_checksum(parallel_db);
  const bool io_identical =
      trace_checksum(csv_loaded) == reference_checksum &&
      trace_checksum(col_loaded) == reference_checksum;
  const bool out_of_core_matches =
      analysis::summarize_columnar(fac_path.string()) ==
      analysis::summarize_database(parallel_db);
  const double load_speedup = col_load > 0.0 ? csv_load / col_load : 0.0;
  fs::remove_all(io_dir);

  // Online detection scored against simulator ground truth: replay a
  // hazard-shifted event stream (rate x4 from stream day 180) through the
  // streaming detector and score the alerts event-level. The fleet is
  // pinned to the calibrated scale-0.5/seed-1 scenario rather than
  // inheriting --scale: below ~0.25 the sparse strata miss the detector's
  // arming floor and the scores stop being about detection quality.
  // `pipeline_ms` times the full path (simulate -> emit -> detect ->
  // score); `emit_detect_ms` times emit_stream into an OnlineDetector
  // alone, over the trace simulated once, as the median of kMedianRuns
  // runs at 1 thread, and throughput is stream events per second of it.
  constexpr double kDetectScale = 0.5;
  detect::TenantSpec detect_spec;
  detect_spec.name = "bench";
  detect_spec.config = sim::SimulationConfig::paper_defaults().scaled(kDetectScale);
  detect_spec.config.seed = 1;
  const TimePoint detect_shift_at = ticket_window().begin + from_days(180.0);
  detect_spec.scenario.shifts.push_back({detect_shift_at, 4.0});
  t0 = Clock::now();
  const detect::TenantResult detect_result = detect::serve_tenant(detect_spec);
  const double detect_ms = ms_since(t0);
  const trace::TraceDatabase detect_db = sim::simulate(detect_spec.config);
  detect::DetectorOptions timed_options = detect_spec.detector;
  timed_options.tenant = "bench-emit-detect";
  ThreadPool::set_default_thread_count(1);
  const double emit_detect_ms = median_ms([&] {
    detect::OnlineDetector detector(timed_options);
    sim::emit_stream(detect_db, detect_spec.scenario, detector);
  });
  ThreadPool::set_default_thread_count(0);
  const double detect_events_per_sec =
      emit_detect_ms > 0.0
          ? 1000.0 * static_cast<double>(detect_result.report.events) /
                emit_detect_ms
          : 0.0;
  const bool detect_ok = detect_result.report.events > 0;

  FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scale\": %.2f,\n", scale);
  std::fprintf(out, "  \"hardware_concurrency\": %zu,\n", hw);
  std::fprintf(out, "  \"single_core_warning\": %s,\n",
               single_core ? "true" : "false");
  std::fprintf(out, "  \"parallel_identical_to_serial\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(out, "  \"stages\": [\n");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageTiming& s = stages[i];
    const double speedup =
        s.parallel_ms > 0.0 ? s.serial_ms / s.parallel_ms : 0.0;
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"serial_ms\": %.3f, "
                 "\"parallel_ms\": %.3f, \"speedup\": %.3f}%s\n",
                 s.name.c_str(), s.serial_ms, s.parallel_ms, speedup,
                 i + 1 < stages.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"classify_substages\": [\n");
  for (std::size_t i = 0; i < substages.size(); ++i) {
    const SubStageTiming& s = substages[i];
    std::fprintf(out, "    {\"name\": \"%s\", \"ms\": %.3f}%s\n",
                 s.name.c_str(), s.ms, i + 1 < substages.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"kmeans_prune\": {\n");
  std::fprintf(
      out, "    \"distances_computed\": %llu,\n",
      static_cast<unsigned long long>(kmeans_stats.distances_computed));
  std::fprintf(out, "    \"distances_pruned\": %llu,\n",
               static_cast<unsigned long long>(kmeans_stats.distances_pruned));
  std::fprintf(out, "    \"prune_ratio\": %.4f,\n", kmeans_stats.prune_ratio());
  std::fprintf(out, "    \"iterations\": %d\n",
               kmeans_stats.total_iterations());
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"thread_scaling\": {\n");
  std::fprintf(out, "    \"threads\": [");
  for (std::size_t i = 0; i < kScalingThreads.size(); ++i) {
    std::fprintf(out, "%d%s", kScalingThreads[i],
                 i + 1 < kScalingThreads.size() ? ", " : "");
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "    \"stages\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalingStage& s = scaling[i];
    std::fprintf(out, "      {\"name\": \"%s\", \"ms\": [", s.name.c_str());
    for (std::size_t t = 0; t < s.ms.size(); ++t) {
      std::fprintf(out, "%.3f%s", s.ms[t], t + 1 < s.ms.size() ? ", " : "");
    }
    std::fprintf(out, "], \"speedup\": [");
    for (std::size_t t = 0; t < s.ms.size(); ++t) {
      std::fprintf(out, "%.3f%s", s.ms[t] > 0.0 ? s.ms[0] / s.ms[t] : 0.0,
                   t + 1 < s.ms.size() ? ", " : "");
    }
    std::fprintf(out, "], \"serial_fraction\": %.4f}%s\n", s.serial_fraction,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"simd\": {\n");
  std::fprintf(out, "    \"dispatch\": \"%.*s\",\n",
               static_cast<int>(stats::simd::dispatch_name().size()),
               stats::simd::dispatch_name().data());
  std::fprintf(out, "    \"elements\": %zu,\n", simd_elements);
  std::fprintf(out, "    \"kernels\": [\n");
  for (std::size_t i = 0; i < simd_kernels.size(); ++i) {
    const KernelTiming& k = simd_kernels[i];
    std::fprintf(out,
                 "      {\"name\": \"%s\", \"scalar_ms\": %.3f, "
                 "\"simd_ms\": %.3f, \"speedup\": %.3f}%s\n",
                 k.name.c_str(), k.scalar_ms, k.simd_ms, k.speedup(),
                 i + 1 < simd_kernels.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"io\": {\n");
  std::fprintf(out, "    \"csv_bytes\": %llu,\n",
               static_cast<unsigned long long>(csv_bytes));
  std::fprintf(out, "    \"columnar_bytes\": %llu,\n",
               static_cast<unsigned long long>(col_bytes));
  std::fprintf(out, "    \"csv_save_ms\": %.3f,\n", csv_save);
  std::fprintf(out, "    \"columnar_save_ms\": %.3f,\n", col_save);
  std::fprintf(out, "    \"csv_load_ms\": %.3f,\n", csv_load);
  std::fprintf(out, "    \"columnar_load_ms\": %.3f,\n", col_load);
  std::fprintf(out, "    \"load_speedup\": %.2f,\n", load_speedup);
  std::fprintf(out, "    \"roundtrip_identical\": %s,\n",
               io_identical ? "true" : "false");
  std::fprintf(out, "    \"out_of_core_matches\": %s\n",
               out_of_core_matches ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"detect\": {\n");
  std::fprintf(out, "    \"scale\": %.2f,\n", kDetectScale);
  // Guards for tools/bench_compare.py: the detect block is also extracted
  // standalone (BENCH_detect.json), so it must carry its own comparability
  // context rather than relying on the top-level fields.
  std::fprintf(out, "    \"hardware_concurrency\": %zu,\n", hw);
  std::fprintf(out, "    \"single_core_warning\": %s,\n",
               single_core ? "true" : "false");
  std::fprintf(out, "    \"shift_day\": 180,\n");
  std::fprintf(out, "    \"shift_factor\": 4.0,\n");
  std::fprintf(out, "    \"events\": %llu,\n",
               static_cast<unsigned long long>(detect_result.report.events));
  std::fprintf(out, "    \"crash_tickets\": %llu,\n",
               static_cast<unsigned long long>(
                   detect_result.report.crash_tickets));
  std::fprintf(out, "    \"alerts\": %zu,\n",
               detect_result.report.alerts.size());
  std::fprintf(out, "    \"precision\": %.4f,\n",
               detect_result.score.precision());
  std::fprintf(out, "    \"recall\": %.4f,\n", detect_result.score.recall());
  std::fprintf(out, "    \"median_latency_days\": %.2f,\n",
               to_days(detect_result.score.median_latency()));
  std::fprintf(out, "    \"pipeline_ms\": %.3f,\n", detect_ms);
  std::fprintf(out, "    \"emit_detect_ms\": %.3f,\n", emit_detect_ms);
  std::fprintf(out, "    \"events_per_sec\": %.0f\n", detect_events_per_sec);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf("simulate: serial %.1f ms, parallel %.1f ms (identical: %s)\n",
              simulate_serial, simulate_parallel, identical ? "yes" : "NO");
  std::printf("classify: serial %.1f ms, parallel %.1f ms\n", classify_serial,
              classify_parallel);
  for (const SubStageTiming& s : substages) {
    std::printf("  %-9s %.1f ms\n", s.name.c_str(), s.ms);
  }
  std::printf(
      "  kmeans prune ratio: %.1f%% (%llu of %llu distance evals skipped)\n",
      100.0 * kmeans_stats.prune_ratio(),
      static_cast<unsigned long long>(kmeans_stats.distances_pruned),
      static_cast<unsigned long long>(kmeans_stats.distances_attempted()));
  for (const ScalingStage& s : scaling) {
    std::printf(
        "scaling:  %-9s 1/2/4/8 threads: %.1f / %.1f / %.1f / %.1f ms "
        "(serial fraction %.2f)\n",
        s.name.c_str(), s.ms[0], s.ms[1], s.ms[2], s.ms[3],
        s.serial_fraction);
  }
  std::printf("simd:     dispatch %.*s\n",
              static_cast<int>(stats::simd::dispatch_name().size()),
              stats::simd::dispatch_name().data());
  for (const KernelTiming& k : simd_kernels) {
    std::printf("  %-17s scalar %.1f ms, simd %.1f ms (%.1fx)\n",
                k.name.c_str(), k.scalar_ms, k.simd_ms, k.speedup());
  }
  std::printf(
      "io:       save csv %.1f ms / columnar %.1f ms, load csv %.1f ms / "
      "columnar %.1f ms (%.1fx)\n",
      csv_save, col_save, csv_load, col_load, load_speedup);
  std::printf("          %llu B csv vs %llu B columnar; identical: %s, "
              "out-of-core matches: %s\n",
              static_cast<unsigned long long>(csv_bytes),
              static_cast<unsigned long long>(col_bytes),
              io_identical ? "yes" : "NO",
              out_of_core_matches ? "yes" : "NO");
  std::printf(
      "detect:   %llu events, emit+detect %.1f ms (%.0f events/s), full "
      "path %.1f ms, %zu alerts, precision %.2f, recall %.2f, median "
      "latency %.1f d\n",
      static_cast<unsigned long long>(detect_result.report.events),
      emit_detect_ms, detect_events_per_sec, detect_ms,
      detect_result.report.alerts.size(),
      detect_result.score.precision(), detect_result.score.recall(),
      to_days(detect_result.score.median_latency()));
  std::printf("wrote %s\n", json_path.c_str());
  return identical && io_identical && out_of_core_matches && detect_ok ? 0
                                                                       : 1;
}

// Peak resident set in kilobytes (Linux ru_maxrss unit).
long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// The out-of-core path end to end: stream the simulator into a columnar
// file (no database is materialized), then summarize it chunk-at-a-time;
// peak RSS through those two phases stays bounded by chunk size, so `scale`
// may exceed the paper fleet by an order of magnitude. Last, the read half
// of the round trip: load_columnar materializes the whole database, so its
// peak RSS grows with the fleet.
int run_stream_report(double scale, const std::string& json_path) {
  namespace fs = std::filesystem;
  const std::size_t hw = ThreadPool::hardware_threads();
  const auto config = sim::SimulationConfig::paper_defaults().scaled(scale);
  const fs::path fac_path = "bench_stream.fac";
  const long rss_start_kb = peak_rss_kb();

  auto t0 = Clock::now();
  trace::ColumnarTraceWriter writer(fac_path.string());
  sim::simulate_to(config, writer);
  const double generate_ms = ms_since(t0);
  const long rss_generate_kb = peak_rss_kb();
  const std::uint64_t servers = writer.server_count();
  const std::uint64_t tickets = writer.ticket_count();
  const std::uint64_t file_bytes = fs::file_size(fac_path);

  t0 = Clock::now();
  const auto summary = analysis::summarize_columnar(fac_path.string());
  const double analyze_ms = ms_since(t0);
  const long rss_analyze_kb = peak_rss_kb();

  t0 = Clock::now();
  const trace::TraceDatabase db = trace::load_columnar(fac_path.string());
  const double load_ms = ms_since(t0);
  const long rss_load_kb = peak_rss_kb();
  fs::remove(fac_path);

  const bool counts_match =
      summary.servers == servers && summary.tickets == tickets &&
      db.servers().size() == servers && db.tickets().size() == tickets;
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scale\": %.2f,\n", scale);
  std::fprintf(out, "  \"hardware_concurrency\": %zu,\n", hw);
  std::fprintf(out, "  \"servers\": %llu,\n",
               static_cast<unsigned long long>(servers));
  std::fprintf(out, "  \"tickets\": %llu,\n",
               static_cast<unsigned long long>(tickets));
  std::fprintf(out, "  \"crash_tickets\": %llu,\n",
               static_cast<unsigned long long>(summary.crash_tickets));
  std::fprintf(out, "  \"file_bytes\": %llu,\n",
               static_cast<unsigned long long>(file_bytes));
  std::fprintf(out, "  \"generate_ms\": %.3f,\n", generate_ms);
  std::fprintf(out, "  \"analyze_ms\": %.3f,\n", analyze_ms);
  std::fprintf(out, "  \"load_ms\": %.3f,\n", load_ms);
  std::fprintf(out, "  \"rss_start_kb\": %ld,\n", rss_start_kb);
  std::fprintf(out, "  \"rss_after_generate_kb\": %ld,\n", rss_generate_kb);
  std::fprintf(out, "  \"rss_after_analyze_kb\": %ld,\n", rss_analyze_kb);
  std::fprintf(out, "  \"rss_after_load_kb\": %ld,\n", rss_load_kb);
  std::fprintf(out, "  \"counts_match\": %s\n",
               counts_match ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf("stream scale %.2f: %llu servers, %llu tickets, %llu B file\n",
              scale, static_cast<unsigned long long>(servers),
              static_cast<unsigned long long>(tickets),
              static_cast<unsigned long long>(file_bytes));
  std::printf("  generate %.1f ms, analyze %.1f ms, load %.1f ms\n",
              generate_ms, analyze_ms, load_ms);
  std::printf(
      "  peak RSS: start %ld KB, generate %ld KB, analyze %ld KB, "
      "load %ld KB\n",
      rss_start_kb, rss_generate_kb, rss_analyze_kb, rss_load_kb);
  std::printf("  summary and load counts match writer tallies: %s\n",
              counts_match ? "yes" : "NO");
  std::printf("wrote %s\n", json_path.c_str());
  return counts_match ? 0 : 1;
}

std::vector<double> gamma_sample(std::size_t n) {
  Rng rng(1);
  const stats::GammaDist dist(0.6, 40.0);
  std::vector<double> xs(n);
  for (double& x : xs) x = dist.sample(rng);
  return xs;
}

void BM_SimulateScaled(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  const auto config = sim::SimulationConfig::paper_defaults().scaled(scale);
  for (auto _ : state) {
    const auto db = sim::simulate(config);
    benchmark::DoNotOptimize(db.tickets().size());
  }
  state.SetLabel("scale=" + std::to_string(scale));
}
BENCHMARK(BM_SimulateScaled)->Arg(10)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_FitGamma(benchmark::State& state) {
  const auto xs = gamma_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_gamma(xs).shape());
  }
}
BENCHMARK(BM_FitGamma)->Arg(1000)->Arg(10000);

void BM_FitCandidates(benchmark::State& state) {
  const auto xs = gamma_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_candidates(xs).front().aic);
  }
}
BENCHMARK(BM_FitCandidates)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_EcdfBuildAndQuery(benchmark::State& state) {
  const auto xs = gamma_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const stats::Ecdf cdf(xs);
    benchmark::DoNotOptimize(cdf.quantile(0.95));
  }
}
BENCHMARK(BM_EcdfBuildAndQuery)->Arg(1000)->Arg(100000);

void BM_KMeansTfIdf(benchmark::State& state) {
  // Cluster synthetic ticket-like documents end to end.
  Rng rng(3);
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.05);
  const auto db = sim::simulate(config);
  std::vector<std::string> docs;
  for (const auto& t : db.tickets()) {
    if (t.is_crash) {
      docs.push_back(std::string(t.description) + " " +
                     std::string(t.resolution));
    }
  }
  const auto vectorizer = text::Vectorizer::fit(docs, {});
  const auto features = vectorizer.transform_all_sparse(docs);
  stats::KMeansOptions options;
  options.k = 12;
  options.restarts = 2;
  for (auto _ : state) {
    Rng local(7);
    benchmark::DoNotOptimize(
        stats::kmeans(features, options, local).inertia);
  }
  state.SetLabel(std::to_string(docs.size()) + " docs, dim=" +
                 std::to_string(vectorizer.dimension()));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * docs.size()));
}
BENCHMARK(BM_KMeansTfIdf)->Unit(benchmark::kMillisecond);

void BM_ClassificationPipeline(benchmark::State& state) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.1);
  const auto db = sim::simulate(config);
  const auto tickets = analysis::extract_crash_tickets(db);
  for (auto _ : state) {
    Rng rng(5);
    benchmark::DoNotOptimize(
        analysis::classify_tickets(tickets, {}, rng).accuracy);
  }
  state.SetLabel(std::to_string(tickets.size()) + " crash tickets");
}
BENCHMARK(BM_ClassificationPipeline)->Unit(benchmark::kMillisecond);

void BM_CrashExtraction(benchmark::State& state) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.2);
  const auto db = sim::simulate(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::extract_crash_tickets(db).size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * db.tickets().size()));
}
BENCHMARK(BM_CrashExtraction)->Unit(benchmark::kMillisecond);

void BM_RecurrenceAnalysis(benchmark::State& state) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.5);
  const auto db = sim::simulate(config);
  const auto failures = db.crash_tickets();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::recurrent_probability(
        db, failures, {}, kMinutesPerWeek));
  }
}
BENCHMARK(BM_RecurrenceAnalysis);

}  // namespace

int main(int argc, char** argv) {
  bool micro = false;
  double scale = 0.3;
  double stream_scale = 0.0;
  std::string json_path;
  std::string metrics_path, trace_path;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--micro") {
      micro = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--stream" && i + 1 < argc) {
      stream_scale = std::atof(argv[++i]);
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(12);
    } else if (arg == "--no-obs") {
      fa::obs::set_enabled(false);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (stream_scale > 0.0) {
    if (json_path.empty()) json_path = "BENCH_stream.json";
    const int rc = run_stream_report(stream_scale, json_path);
    if (!fa::obs::export_registry_files(metrics_path, trace_path)) return 1;
    return rc;
  }
  if (!micro) {
    if (json_path.empty()) json_path = "BENCH_perf.json";
    const int rc = run_stage_report(scale, json_path);
    if (!fa::obs::export_registry_files(metrics_path, trace_path)) return 1;
    if (!metrics_path.empty()) std::printf("wrote %s\n", metrics_path.c_str());
    if (!trace_path.empty()) std::printf("wrote %s\n", trace_path.c_str());
    return rc;
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

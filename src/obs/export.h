// Exporters over MetricsSnapshot / SpanEvent data (pure functions — they
// never touch the registry).
//
// Three formats:
//   render_table      human-readable fixed-width table (bench/CLI output)
//   to_json           full snapshot: {"deterministic": {...}, "timing": {...}}
//   chrome_trace_json trace-event JSON loadable in chrome://tracing/Perfetto
//
// The "deterministic" JSON section contains only Stability::kDeterministic
// metrics and omits order-dependent fields (histogram sums); for a fixed
// workload it is byte-identical at any thread count. deterministic_json()
// emits exactly that section as a standalone document, which is what the
// determinism tests and tools/check_metrics_schema.py --compare consume.
#pragma once

#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace fa::obs {

std::string render_table(const MetricsSnapshot& snapshot);

// {"deterministic": {...}, "timing": {...}} — the deterministic object is
// byte-identical to deterministic_json()'s payload.
std::string to_json(const MetricsSnapshot& snapshot);

// {"deterministic": {...}} only.
std::string deterministic_json(const MetricsSnapshot& snapshot);

// {"displayTimeUnit": "ms", "traceEvents": [...]} — one complete ("X")
// event per span, pid 1, tid = registry thread index, timestamps in
// microseconds since the registry epoch.
std::string chrome_trace_json(const std::vector<SpanEvent>& events);

// JSON string-escape and round-tripping %.17g double formatting, shared
// with other hand-rolled JSON emitters (the health heartbeat lines).
void append_json_escaped(std::string& out, const std::string& s);
std::string json_double(double v);

// Writes `text` to `path`; returns false (after perror) on failure. Shared
// by the bench/CLI export surfaces.
bool write_text_file(const std::string& path, const std::string& text);

// One-call CLI surface: snapshots the global registry and writes the full
// metrics JSON to `metrics_path` and the Chrome trace to `trace_path`
// (either may be empty = skip). Returns false if any write failed.
bool export_registry_files(const std::string& metrics_path,
                           const std::string& trace_path);

}  // namespace fa::obs

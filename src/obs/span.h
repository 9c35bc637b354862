// RAII scoped timer recording into the calling thread's span buffer.
//
//   {
//     obs::Span span("sim.generate_failures");
//     ...  // timed region; spans nest freely within a thread
//   }
//
// Construction snapshots steady_clock and the thread's nesting depth;
// destruction appends one SpanEvent to the thread-local buffer. Buffers
// aggregate at flush time (MetricsRegistry::span_events / snapshot), so the
// hot path never takes a cross-thread lock while the span is open. With the
// runtime toggle off, construction is a no-op (no clock read, no record).
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "src/obs/metrics.h"

namespace fa::obs {

class Span {
 public:
  explicit Span(std::string name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span now instead of at scope exit (for regions whose results
  // must outlive the timed part). Idempotent; the destructor then no-ops.
  void close();

 private:
  std::string name_;
  std::shared_ptr<SpanBuffer> buffer_;  // null when inactive (toggle off)
  std::chrono::steady_clock::time_point start_;
  int depth_ = 0;
};

}  // namespace fa::obs

#include "src/obs/span.h"

namespace fa::obs {

Span::Span(std::string name) : name_(std::move(name)) {
  if (!enabled()) return;
  buffer_ = MetricsRegistry::global().thread_buffer();
  depth_ = buffer_->depth++;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() { close(); }

void Span::close() {
  if (!buffer_) return;
  const auto end = std::chrono::steady_clock::now();
  --buffer_->depth;
  MetricsRegistry& registry = MetricsRegistry::global();
  SpanEvent event;
  event.name = std::move(name_);
  event.start_us =
      std::chrono::duration<double, std::micro>(start_ - registry.epoch())
          .count();
  event.dur_us = std::chrono::duration<double, std::micro>(end - start_).count();
  event.depth = depth_;
  event.tid = buffer_->tid;
  event.seq = registry.next_seq();
  {
    std::lock_guard<std::mutex> lock(buffer_->mutex);
    buffer_->events.push_back(std::move(event));
  }
  buffer_.reset();  // marks the span closed
}

}  // namespace fa::obs

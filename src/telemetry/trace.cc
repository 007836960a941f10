#include "telemetry/trace.h"

#include <algorithm>
#include <utility>

#include "common/str_util.h"

namespace trac {

Tracer::Tracer(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

Tracer& Tracer::Default() {
  // Leaked: spans may be recorded during static destruction.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(SpanRecord span) {
  MutexLock lock(&mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[next_slot_] = std::move(span);
  }
  next_slot_ = (next_slot_ + 1) % capacity_;
}

std::vector<SpanRecord> Tracer::CollectTrace(uint64_t trace_id) const {
  std::vector<SpanRecord> spans;
  {
    MutexLock lock(&mu_);
    for (const SpanRecord& span : ring_) {
      if (span.trace_id == trace_id) spans.push_back(span);
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_micros != b.start_micros)
                return a.start_micros < b.start_micros;
              return a.span_id < b.span_id;
            });
  return spans;
}

size_t Tracer::size() const {
  MutexLock lock(&mu_);
  return ring_.size();
}

std::string Tracer::DumpTraceJson(uint64_t trace_id) const {
  const std::vector<SpanRecord> spans = CollectTrace(trace_id);

  // Treat a span as a root when its parent is not in the buffer (the
  // true root has parent_id 0; evicted parents degrade gracefully).
  auto in_trace = [&spans](uint64_t id) {
    for (const SpanRecord& s : spans)
      if (s.span_id == id) return true;
    return false;
  };

  std::string out =
      "{\"trace_id\": " + std::to_string(trace_id) + ", \"spans\": [";
  // Recursive emit, children sorted by the CollectTrace order.
  auto emit = [&](auto&& self, const SpanRecord& span,
                  std::string indent) -> std::string {
    std::string s = "\n" + indent + "{\"name\": " + JsonEscape(span.name) +
                    ", \"span_id\": " + std::to_string(span.span_id) +
                    ", \"start_micros\": " + std::to_string(span.start_micros) +
                    ", \"end_micros\": " + std::to_string(span.end_micros) +
                    ", \"duration_micros\": " +
                    std::to_string(span.end_micros - span.start_micros);
    if (span.session_id != 0)
      s += ", \"session_id\": " + std::to_string(span.session_id);
    if (span.snapshot_epoch != 0)
      s += ", \"snapshot_epoch\": " + std::to_string(span.snapshot_epoch);
    if (span.relevant_sources >= 0)
      s += ", \"relevant_sources\": " + std::to_string(span.relevant_sources);
    s += ", \"children\": [";
    bool first = true;
    for (const SpanRecord& child : spans) {
      if (child.parent_id != span.span_id) continue;
      if (!first) s += ",";
      first = false;
      s += self(self, child, indent + "  ");
    }
    s += "]}";
    return s;
  };
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (span.parent_id != 0 && in_trace(span.parent_id)) continue;
    if (!first) out += ",";
    first = false;
    out += emit(emit, span, "  ");
  }
  out += "\n]}\n";
  return out;
}

TraceSpan::TraceSpan(Tracer* tracer, ClockFn clock, std::string_view name,
                     uint64_t trace_id, uint64_t parent_id)
    : tracer_(tracer), clock_(clock) {
  if (tracer_ == nullptr || clock_ == nullptr) {
    tracer_ = nullptr;
    return;
  }
  record_.trace_id = trace_id;
  record_.span_id = tracer_->NextSpanId();
  record_.parent_id = parent_id;
  record_.name = std::string(name);
  record_.start_micros = clock_();
}

TraceSpan::TraceSpan(TraceSpan&& other) noexcept
    : tracer_(other.tracer_),
      clock_(other.clock_),
      record_(std::move(other.record_)) {
  other.tracer_ = nullptr;
}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    clock_ = other.clock_;
    record_ = std::move(other.record_);
    other.tracer_ = nullptr;
  }
  return *this;
}

int64_t TraceSpan::End() {
  if (tracer_ == nullptr) return 0;
  record_.end_micros = clock_();
  const int64_t duration = record_.end_micros - record_.start_micros;
  tracer_->Record(std::move(record_));
  tracer_ = nullptr;
  return duration;
}

}  // namespace trac

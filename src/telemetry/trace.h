#ifndef TRAC_TELEMETRY_TRACE_H_
#define TRAC_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace trac {

/// One finished span of a query lifecycle. Spans with the same trace_id
/// belong to one report session; parent_id links them into a tree
/// (0 = root). Ids are never 0 for real spans.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  std::string name;
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  // Domain annotations (0 / -1 when not applicable).
  uint64_t session_id = 0;
  uint64_t snapshot_epoch = 0;
  int64_t relevant_sources = -1;
};

/// Collects finished spans into a fixed-capacity ring buffer (oldest
/// evicted first) and renders one trace as a nested JSON tree. Record
/// is a short leaf-ranked critical section, safe from pool workers;
/// span/trace id allocation is lock-free.
class Tracer {
 public:
  explicit Tracer(size_t capacity = 4096);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer used by default across the library.
  [[nodiscard]] static Tracer& Default();

  [[nodiscard]] uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void Record(SpanRecord span) TRAC_EXCLUDES(mu_);

  /// All buffered spans of `trace_id`, sorted by (start, span_id).
  [[nodiscard]] std::vector<SpanRecord> CollectTrace(uint64_t trace_id) const
      TRAC_EXCLUDES(mu_);

  /// Number of spans currently buffered (across all traces).
  [[nodiscard]] size_t size() const TRAC_EXCLUDES(mu_);
  [[nodiscard]] size_t capacity() const { return capacity_; }

  /// The trace as a nested JSON tree: `{"trace_id": N, "spans": [...]}`
  /// where each span carries name/timing/annotations and its `children`
  /// sorted by start time. Spans whose parent was evicted from the ring
  /// surface as roots, so a truncated trace still renders.
  [[nodiscard]] std::string DumpTraceJson(uint64_t trace_id) const
      TRAC_EXCLUDES(mu_);

 private:
  const size_t capacity_;
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  mutable Mutex mu_{lock_rank::kTelemetry, "Tracer::mu_"};
  std::vector<SpanRecord> ring_ TRAC_GUARDED_BY(mu_);
  size_t next_slot_ TRAC_GUARDED_BY(mu_) = 0;
};

/// RAII span: stamps the start on construction, records itself into the
/// tracer on End() (or destruction). Movable so it can be returned from
/// helpers; a default-constructed span is inert. Annotation setters may
/// be called any time before End().
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(Tracer* tracer, ClockFn clock, std::string_view name,
            uint64_t trace_id, uint64_t parent_id = 0);
  TraceSpan(TraceSpan&& other) noexcept;
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { End(); }

  /// Finishes the span, records it and returns its duration in
  /// microseconds. Idempotent: later calls (and inert spans) return 0.
  int64_t End();

  [[nodiscard]] uint64_t id() const { return record_.span_id; }
  [[nodiscard]] uint64_t trace_id() const { return record_.trace_id; }

  void set_session_id(uint64_t id) { record_.session_id = id; }
  void set_snapshot_epoch(uint64_t epoch) { record_.snapshot_epoch = epoch; }
  void set_relevant_sources(int64_t n) { record_.relevant_sources = n; }

 private:
  Tracer* tracer_ = nullptr;  // null = inert / already ended
  ClockFn clock_ = nullptr;
  SpanRecord record_;
};

}  // namespace trac

#endif  // TRAC_TELEMETRY_TRACE_H_

#ifndef TRAC_TELEMETRY_METRICS_H_
#define TRAC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace trac {

/// Label key/value pairs attached to one metric series. Order is
/// normalized (sorted by key) when the series is registered, so the same
/// labels in any order name the same series.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

namespace telemetry_internal {
/// Number of independent per-metric update cells. Writers hash their
/// thread onto a cell so concurrent increments from different threads
/// usually touch different cache lines; readers sum all cells. A power
/// of two so the cell index is a mask.
inline constexpr size_t kCells = 8;

/// Index of the calling thread's update cell (stable per thread).
[[nodiscard]] size_t CellIndex();

/// One cache-line-padded atomic accumulator.
struct alignas(64) Cell {
  std::atomic<int64_t> value{0};
};
}  // namespace telemetry_internal

/// A monotonically increasing counter. Increment is wait-free: one
/// relaxed fetch_add on a (usually) thread-private cache line. Value()
/// sums the cells; it is eventually exact — after all writers have
/// finished (or synchronized with the reader), the sum equals the exact
/// number of increments, which is what the scrape path and the
/// concurrency tests rely on.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment() { Add(1); }
  void Add(int64_t n) {
    cells_[telemetry_internal::CellIndex()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  [[nodiscard]] int64_t Value() const {
    int64_t total = 0;
    for (const auto& cell : cells_)
      total += cell.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  telemetry_internal::Cell cells_[telemetry_internal::kCells];
};

/// A last-write-wins instantaneous value (staleness, backlog, sizes).
/// Single atomic: gauges are set by one logical owner at a time, so
/// sharding would only blur which write is "last".
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
};

/// A histogram over non-negative values (microseconds, counts) with
/// fixed power-of-two buckets: upper bounds 1, 2, 4, ... 2^26 (~67s in
/// µs), plus +Inf. Log-scaled buckets keep the series count fixed while
/// still resolving the microsecond-to-minute range the recency pipeline
/// spans. Observe() is three relaxed fetch_adds on per-thread-sharded
/// cells; Count/Sum/BucketCount aggregate on scrape with the same
/// exactness guarantee as Counter::Value().
class Histogram {
 public:
  /// 2^0 .. 2^26 finite buckets + 1 overflow (+Inf) bucket.
  static constexpr size_t kNumFiniteBuckets = 27;
  static constexpr size_t kNumBuckets = kNumFiniteBuckets + 1;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(int64_t v);

  /// Total number of observations.
  [[nodiscard]] int64_t Count() const;
  /// Sum of all observed values.
  [[nodiscard]] int64_t Sum() const;
  /// Observations in bucket `i` alone (not cumulative).
  [[nodiscard]] int64_t BucketCount(size_t i) const;
  /// Inclusive upper bound of finite bucket `i` (2^i).
  [[nodiscard]] static int64_t BucketUpperBound(size_t i) {
    return int64_t{1} << i;
  }
  /// Index of the bucket that `v` falls into.
  [[nodiscard]] static size_t BucketIndex(int64_t v);

 private:
  struct alignas(64) BucketRow {
    std::atomic<int64_t> counts[kNumBuckets] = {};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> total{0};
  };
  BucketRow rows_[telemetry_internal::kCells];
};

/// One gauge sample flattened out of the registry, for dashboards that
/// rank series (trac_top's top-K stalest sources).
struct GaugeSample {
  std::string name;
  LabelSet labels;
  int64_t value = 0;
};

/// Owns every metric family and series. Lookup (GetCounter/...) takes a
/// short leaf-ranked mutex; hot paths cache the returned pointer, which
/// stays valid for the registry's lifetime. Scrapes are deterministic:
/// families and series iterate in sorted map order.
///
/// A name registered once as one type stays that type: a mismatched
/// re-registration returns a process-wide *sink* metric that is never
/// scraped, so callers always get a usable pointer and the registry
/// never aborts (src/ has no throw/abort).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry used by default across the library.
  [[nodiscard]] static MetricRegistry& Default();

  [[nodiscard]] Counter* GetCounter(std::string_view name,
                                    std::string_view help,
                                    const LabelSet& labels = {})
      TRAC_EXCLUDES(mu_);
  [[nodiscard]] Gauge* GetGauge(std::string_view name, std::string_view help,
                                const LabelSet& labels = {})
      TRAC_EXCLUDES(mu_);
  [[nodiscard]] Histogram* GetHistogram(std::string_view name,
                                        std::string_view help,
                                        const LabelSet& labels = {})
      TRAC_EXCLUDES(mu_);

  /// Prometheus text exposition (# HELP / # TYPE / samples), sorted by
  /// family name then label signature; histograms expand to cumulative
  /// `_bucket{le=...}` plus `_sum` and `_count`.
  [[nodiscard]] std::string ScrapeText() const TRAC_EXCLUDES(mu_);

  /// The same data as one JSON object keyed by family name.
  [[nodiscard]] std::string ScrapeJson() const TRAC_EXCLUDES(mu_);

  /// Every gauge series currently registered (for top-K style views).
  [[nodiscard]] std::vector<GaugeSample> GaugeSamples() const
      TRAC_EXCLUDES(mu_);

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Series {
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    Type type = Type::kCounter;
    // Keyed by the normalized label signature for deterministic scrapes.
    std::map<std::string, Series> series;
  };

  Series* GetSeries(std::string_view name, std::string_view help, Type type,
                    const LabelSet& labels) TRAC_EXCLUDES(mu_);

  mutable Mutex mu_{lock_rank::kTelemetry, "MetricRegistry::mu_"};
  std::map<std::string, Family, std::less<>> families_ TRAC_GUARDED_BY(mu_);
};

/// Resolves one fixed set of series through `lookup`, a captureless
/// callable taking a MetricRegistry&. For the process-default registry,
/// which is never destroyed, the first call resolves them and later calls
/// reuse the pointers, skipping the by-name lookup and its mutex. Each
/// lookup type (each lambda) is its own instantiation with its own cache,
/// filled on first use, so a series that only some calls reach is still
/// registered only when one does. Any other registry is looked up by
/// name on every call: it may be destroyed, and a later one may take its
/// address.
template <typename Lookup>
[[nodiscard]] auto ResolveSeries(MetricRegistry* registry, Lookup lookup) {
  static_assert(std::is_empty_v<Lookup>,
                "a cached lookup must name one fixed series: no captures");
  if (registry != &MetricRegistry::Default()) return lookup(*registry);
  static const auto cached = lookup(MetricRegistry::Default());
  return cached;
}

}  // namespace trac

#endif  // TRAC_TELEMETRY_METRICS_H_

// Hammers the sharded metric cells from many threads at once and
// asserts the aggregated values are EXACT after the writers join: the
// relaxed per-cell fetch_adds lose nothing, they only defer visibility
// until the reader synchronizes with the writers (thread join here).
// Run under the tsan preset this also proves the fast paths are free of
// data races.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace trac {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 50000;

TEST(MetricsStressTest, CounterExactAfterJoin) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kOpsPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(),
            static_cast<int64_t>(kThreads) * kOpsPerThread);
}

TEST(MetricsStressTest, HistogramExactAfterJoin) {
  Histogram histogram;
  // Every thread observes the same value sequence, so the expected sum
  // and per-bucket counts are closed-form.
  int64_t per_thread_sum = 0;
  for (int i = 0; i < kOpsPerThread; ++i) per_thread_sum += i % 1024;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kOpsPerThread; ++i) histogram.Observe(i % 1024);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(histogram.Count(),
            static_cast<int64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(histogram.Sum(), kThreads * per_thread_sum);
  int64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i)
    bucket_total += histogram.BucketCount(i);
  EXPECT_EQ(bucket_total, histogram.Count());
}

TEST(MetricsStressTest, RegistryLookupAndUpdateConcurrently) {
  // Threads race series creation (first GetCounter wins the insert) and
  // then hammer the shared series; scrapes run concurrently with the
  // writers to exercise the read side under contention.
  MetricRegistry registry;
  // An empty registry scrapes to "", so the scraper waits for the first
  // series before asserting a non-empty scrape.
  std::atomic<bool> registered{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &registered, t] {
      Counter* counter = registry.GetCounter(
          "stress_total", "shared series", {{"kind", "race"}});
      Gauge* gauge = registry.GetGauge("stress_last", "per-thread gauge",
                                       {{"thread", std::to_string(t)}});
      registered.store(true, std::memory_order_release);
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter->Increment();
        if (i % 1024 == 0) gauge->Set(i);
      }
    });
  }
  std::thread scraper([&registry, &registered] {
    while (!registered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (int i = 0; i < 50; ++i) {
      std::string text = registry.ScrapeText();
      EXPECT_FALSE(text.empty());
    }
  });
  for (auto& t : threads) t.join();
  scraper.join();
  Counter* counter = registry.GetCounter("stress_total", "shared series",
                                         {{"kind", "race"}});
  EXPECT_EQ(counter->Value(),
            static_cast<int64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(registry.GaugeSamples().size(), static_cast<size_t>(kThreads));
}

TEST(MetricsStressTest, TracerRecordsConcurrently) {
  // N threads record spans into one ring while another thread dumps the
  // trace; the ring never exceeds capacity and never tears a record.
  Tracer tracer(/*capacity=*/256);
  const uint64_t trace_id = tracer.NextTraceId();
  constexpr int kSpansPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, trace_id] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        SpanRecord span;
        span.trace_id = trace_id;
        span.span_id = tracer.NextSpanId();
        span.name = "stress";
        span.start_micros = i;
        span.end_micros = i + 1;
        tracer.Record(std::move(span));
      }
    });
  }
  std::thread dumper([&tracer, trace_id] {
    for (int i = 0; i < 20; ++i) {
      std::string json = tracer.DumpTraceJson(trace_id);
      EXPECT_FALSE(json.empty());
    }
  });
  for (auto& t : threads) t.join();
  dumper.join();
  EXPECT_EQ(tracer.size(), tracer.capacity());
}

}  // namespace
}  // namespace trac

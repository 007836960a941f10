// Regression tests for the report-lifecycle telemetry: one Run() must
// produce a complete span tree (parse/generate/plan/user-query/
// relevance/stats under one root, relevance-task leaves under
// relevance), the spans must nest inside their parents, and the
// per-task spans must sum EXACTLY to the report's busy time and to the
// registry histogram — the validated replacement for the ad-hoc
// busy/wall fields that were populated but never checked.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/recency_reporter.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;

// Deterministic step clock, atomic so parallel relevance tasks can
// stamp their spans from pool threads.
std::atomic<int64_t> g_ticks{0};
int64_t StepClock() {
  return 1000 * (1 + g_ticks.fetch_add(1, std::memory_order_relaxed));
}

class ReportTelemetryTest : public ::testing::Test {
 protected:
  RecencyReport RunReport(size_t parallelism) {
    RecencyReportOptions options;
    options.create_temp_tables = false;
    options.relevance.parallelism = parallelism;
    options.telemetry = &telemetry_;
    RecencyReporter reporter(&fixture_.db, nullptr);
    auto report = reporter.Run(
        "SELECT mach_id, value FROM Activity WHERE value = 'idle'", options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(*report);
  }

  PaperExampleDb fixture_;
  MetricRegistry metrics_;
  Tracer tracer_;
  Telemetry telemetry_{&metrics_, &tracer_, &StepClock};
};

TEST_F(ReportTelemetryTest, SpanTreeIsCompleteAndNested) {
  RecencyReport report = RunReport(/*parallelism=*/4);
  ASSERT_NE(report.trace_id, 0u);

  std::vector<SpanRecord> spans = tracer_.CollectTrace(report.trace_id);
  std::map<std::string, const SpanRecord*> by_name;
  const SpanRecord* root = nullptr;
  size_t tasks = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "relevance-task") {
      ++tasks;
      continue;
    }
    EXPECT_EQ(by_name.count(s.name), 0u) << "duplicate span " << s.name;
    by_name[s.name] = &s;
    if (s.parent_id == 0) root = &s;
  }

  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "report");
  EXPECT_GT(root->snapshot_epoch, 0u);
  EXPECT_EQ(root->relevant_sources,
            static_cast<int64_t>(report.relevance.sources.size()));

  for (const char* phase :
       {"parse", "generate", "plan", "user-query", "relevance", "stats"}) {
    ASSERT_NE(by_name.count(phase), 0u) << "missing span " << phase;
    const SpanRecord* s = by_name[phase];
    EXPECT_EQ(s->parent_id, root->span_id) << phase;
    // Every phase nests inside the root's interval.
    EXPECT_GE(s->start_micros, root->start_micros) << phase;
    EXPECT_LE(s->end_micros, root->end_micros) << phase;
    EXPECT_LE(s->start_micros, s->end_micros) << phase;
  }
  const SpanRecord* plan = by_name["plan"];
  EXPECT_EQ(report.plan_micros, plan->end_micros - plan->start_micros);

  // Every relevance task hangs off the relevance span and nests in it.
  const SpanRecord* relevance = by_name["relevance"];
  EXPECT_EQ(tasks, report.relevance_task_micros.size());
  EXPECT_GT(tasks, 0u);
  for (const SpanRecord& s : spans) {
    if (s.name != "relevance-task") continue;
    EXPECT_EQ(s.parent_id, relevance->span_id);
    EXPECT_GE(s.start_micros, relevance->start_micros);
    EXPECT_LE(s.end_micros, relevance->end_micros);
  }
}

TEST_F(ReportTelemetryTest, TaskSpansSumToBusyTime) {
  RecencyReport report = RunReport(/*parallelism=*/4);
  EXPECT_EQ(report.relevance_parallelism, 4u);

  // The struct fields agree with each other...
  int64_t struct_sum = 0;
  for (int64_t t : report.relevance_task_micros) struct_sum += t;
  EXPECT_EQ(struct_sum, report.relevance_busy_micros);

  // ...with the recorded task spans (same clock reads, by construction)...
  std::vector<SpanRecord> spans = tracer_.CollectTrace(report.trace_id);
  int64_t span_sum = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "relevance-task")
      span_sum += s.end_micros - s.start_micros;
  }
  EXPECT_EQ(span_sum, report.relevance_busy_micros);

  // ...and with the registry histograms.
  Histogram* tasks = metrics_.GetHistogram(
      "trac_relevance_task_micros", "Wall time of one recency-query task");
  EXPECT_EQ(tasks->Count(),
            static_cast<int64_t>(report.relevance_task_micros.size()));
  EXPECT_EQ(tasks->Sum(), report.relevance_busy_micros);
  Histogram* busy = metrics_.GetHistogram(
      "trac_relevance_busy_micros",
      "Summed task time of one report's relevance phase");
  EXPECT_EQ(busy->Count(), 1);
  EXPECT_EQ(busy->Sum(), report.relevance_busy_micros);
}

TEST_F(ReportTelemetryTest, PhaseHistogramsAndCountersPopulate) {
  RecencyReport report = RunReport(/*parallelism=*/1);
  for (const char* phase : {"parse_generate", "plan", "user_query",
                            "relevance", "merge", "stats"}) {
    Histogram* h = metrics_.GetHistogram(
        "trac_report_phase_micros", "Wall time of one recency-report phase",
        {{"phase", phase}});
    EXPECT_EQ(h->Count(), 1) << phase;
  }
  Histogram* plan_phase = metrics_.GetHistogram(
      "trac_report_phase_micros", "Wall time of one recency-report phase",
      {{"phase", "plan"}});
  EXPECT_EQ(plan_phase->Sum(), report.plan_micros);
  Histogram* relevance_phase = metrics_.GetHistogram(
      "trac_report_phase_micros", "Wall time of one recency-report phase",
      {{"phase", "relevance"}});
  EXPECT_EQ(relevance_phase->Sum(), report.relevance_exec_micros);
  // The merge is timed on every report, inside the relevance phase.
  Histogram* merge_phase = metrics_.GetHistogram(
      "trac_report_phase_micros", "Wall time of one recency-report phase",
      {{"phase", "merge"}});
  EXPECT_EQ(merge_phase->Sum(), report.merge_micros);
  EXPECT_GT(report.merge_micros, 0);
  EXPECT_LT(report.merge_micros, report.relevance_exec_micros);
  EXPECT_EQ(metrics_
                .GetCounter("trac_reports_total", "Recency reports completed")
                ->Value(),
            1);
}

TEST_F(ReportTelemetryTest, MergeNestsInRelevanceAndPhasesTileTheRoot) {
  RecencyReport report = RunReport(/*parallelism=*/4);
  auto phase_sum = [this](const char* phase) {
    return metrics_
        .GetHistogram("trac_report_phase_micros",
                      "Wall time of one recency-report phase",
                      {{"phase", phase}})
        ->Sum();
  };
  EXPECT_EQ(phase_sum("merge"), report.merge_micros);
  EXPECT_GT(report.merge_micros, 0);
  EXPECT_LE(phase_sum("merge"), phase_sum("relevance"));

  // The root's children run one after another inside it: sorted by
  // start, each begins at or after the previous one ends. So the
  // residual (root minus its children) is exactly the root's time
  // outside every child, and never negative.
  std::vector<SpanRecord> spans = tracer_.CollectTrace(report.trace_id);
  const SpanRecord* root = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.parent_id == 0) root = &s;
  }
  ASSERT_NE(root, nullptr);
  std::vector<const SpanRecord*> phases;
  for (const SpanRecord& s : spans) {
    if (s.parent_id == root->span_id) phases.push_back(&s);
  }
  ASSERT_FALSE(phases.empty());
  std::sort(phases.begin(), phases.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start_micros < b->start_micros;
            });
  int64_t phase_total = 0;
  int64_t uncovered = 0;
  int64_t cursor = root->start_micros;
  for (const SpanRecord* s : phases) {
    EXPECT_GE(s->start_micros, cursor) << s->name << " overlaps";
    uncovered += s->start_micros - cursor;
    phase_total += s->end_micros - s->start_micros;
    cursor = s->end_micros;
  }
  EXPECT_GE(root->end_micros, cursor);
  uncovered += root->end_micros - cursor;
  const int64_t residual =
      (root->end_micros - root->start_micros) - phase_total;
  EXPECT_GE(residual, 0);
  EXPECT_EQ(residual, uncovered);
}

TEST_F(ReportTelemetryTest, EachRunGetsItsOwnTrace) {
  RecencyReport first = RunReport(/*parallelism=*/1);
  RecencyReport second = RunReport(/*parallelism=*/1);
  EXPECT_NE(first.trace_id, second.trace_id);
  // Both traces stay addressable in the ring.
  EXPECT_FALSE(tracer_.CollectTrace(first.trace_id).empty());
  EXPECT_FALSE(tracer_.CollectTrace(second.trace_id).empty());
}

}  // namespace
}  // namespace trac

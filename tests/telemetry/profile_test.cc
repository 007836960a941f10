#include "telemetry/profile.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/recency_reporter.h"
#include "exec/executor.h"
#include "expr/binder.h"
#include "ir/plan_ir.h"
#include "telemetry/telemetry.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;

std::atomic<int64_t> g_ticks{0};
int64_t FakeNowMicros() { return g_ticks.fetch_add(1000) + 1000; }

PlanIr MustParse(std::string_view text) {
  auto ir = ParsePlanIr(text);
  EXPECT_TRUE(ir.ok()) << ir.status().ToString();
  return ir.ok() ? std::move(*ir) : PlanIr{};
}

// ---------------------------------------------------------------------------
// The executor-side collector.

TEST(ExecProfileTest, CollectsRowsAndStageStructure) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery query,
      BindSql(fixture.db,
              "SELECT mach_id FROM Activity WHERE value = 'idle'"));
  ExecProfile profile;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      ExecuteQuery(fixture.db, query, fixture.db.LatestSnapshot(),
                   PlanningHints(), &profile, &FakeNowMicros));
  EXPECT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(profile.invocations, 1u);
  EXPECT_EQ(profile.output_rows, 2u);
  EXPECT_EQ(profile.emitted_rows, 2u);
  ASSERT_EQ(profile.levels.size(), 1u);
  EXPECT_EQ(profile.levels[0].scan_rows, 3u);  // All three activity rows.
  ASSERT_TRUE(profile.levels[0].has_filter);
  EXPECT_EQ(profile.levels[0].filter_rows, 2u);  // m1/m3 idle survive.
  EXPECT_GT(profile.total_ns, 0);
}

TEST(ExecProfileTest, NoClockMeansNoTimings) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery query, BindSql(fixture.db, "SELECT mach_id FROM Activity"));
  ExecProfile profile;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs, ExecuteQuery(fixture.db, query, fixture.db.LatestSnapshot(),
                                 PlanningHints(), &profile, nullptr));
  EXPECT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(profile.output_rows, 3u);
  EXPECT_EQ(profile.total_ns, 0);
}

// ---------------------------------------------------------------------------
// The drift pass over hand-written profiled IRs.

TEST(ProfileDriftTest, UnannotatedIrYieldsNoFindings) {
  const PlanIr ir = MustParse(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=100 cols=a.mach_id:d\n"
      "node 1 report in=0 cols=a.mach_id:d\n");
  EXPECT_TRUE(AnalyzeProfileDrift(ir).empty());
}

TEST(ProfileDriftTest, ActualAboveScanUpperBoundIsP001) {
  // rows= on a scan is the published-version count, a sound upper bound;
  // observing more rows than exist is a profiler/analysis bug.
  const PlanIr ir = MustParse(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=100 actual_rows=250 "
      "cols=a.mach_id:d\n"
      "node 1 report in=0 actual_rows=250 cols=a.mach_id:d\n");
  const std::vector<ProfileDiagnostic> drift = AnalyzeProfileDrift(ir);
  ASSERT_FALSE(drift.empty());
  EXPECT_EQ(drift[0].code, ProfileCode::kActualOutsideStaticBounds);
  EXPECT_EQ(drift[0].node, 0u);
  EXPECT_EQ(drift[0].Format().substr(0, 11), "[TRAC-P001]");
}

TEST(ProfileDriftTest, MisestimateIsAdvisoryP002Only) {
  // 4096 estimated vs 16 observed = 256x overshoot: P002 fires, but the
  // actual sits inside the sound interval [0, 4096] so no P001.
  const PlanIr ir = MustParse(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=4096 actual_rows=16 "
      "cols=a.mach_id:d\n"
      "node 1 report in=0 actual_rows=16 cols=a.mach_id:d\n");
  const std::vector<ProfileDiagnostic> drift = AnalyzeProfileDrift(ir);
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_EQ(drift[0].code, ProfileCode::kMisestimate);
  EXPECT_EQ(drift[0].node, 0u);
  EXPECT_EQ(drift[0].Format().substr(0, 11), "[TRAC-P002]");
}

TEST(ProfileDriftTest, MisestimateFiresAtTheFactorBoundary) {
  // rows / max(actual, 1) >= kMisestimateFactor: 256 / 16 sits exactly
  // on the factor and fires; 255 / 16 falls just short and stays silent.
  static_assert(kMisestimateFactor == 16);
  const std::vector<ProfileDiagnostic> drift = AnalyzeProfileDrift(MustParse(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=256 actual_rows=16 "
      "cols=a.mach_id:d\n"
      "node 1 report in=0 actual_rows=16 cols=a.mach_id:d\n"));
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_EQ(drift[0].code, ProfileCode::kMisestimate);
  EXPECT_TRUE(AnalyzeProfileDrift(MustParse(
                  "ir t\n"
                  "node 0 scan table=activity snap=5 rows=255 actual_rows=16 "
                  "cols=a.mach_id:d\n"
                  "node 1 report in=0 actual_rows=16 cols=a.mach_id:d\n"))
                  .empty());
}

TEST(ProfileDriftTest, FindingsAreCanonicallyOrdered) {
  // Two scans, each both out of bounds (P001) and trivially consistent
  // with no estimate elsewhere; ordering must be (node, code).
  const PlanIr ir = MustParse(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=10 actual_rows=50 "
      "cols=a.mach_id:d\n"
      "node 1 scan table=routing snap=5 rows=10 actual_rows=90 "
      "cols=r.mach_id:d\n"
      "node 2 join in=0,1 actual_rows=1 cols=a.mach_id:d\n"
      "node 3 report in=2 actual_rows=1 cols=a.mach_id:d\n");
  const std::vector<ProfileDiagnostic> drift = AnalyzeProfileDrift(ir);
  ASSERT_GE(drift.size(), 2u);
  for (size_t i = 1; i < drift.size(); ++i) {
    const bool ordered =
        drift[i - 1].node < drift[i].node ||
        (drift[i - 1].node == drift[i].node &&
         static_cast<int>(drift[i - 1].code) < static_cast<int>(drift[i].code));
    EXPECT_TRUE(ordered) << i;
  }
}

TEST(ProfileCodeTest, IdsMatchTheDesignDocNamespace) {
  EXPECT_EQ(ProfileCodeId(ProfileCode::kActualOutsideStaticBounds),
            "TRAC-P001");
  EXPECT_EQ(ProfileCodeId(ProfileCode::kMisestimate), "TRAC-P002");
}

// ---------------------------------------------------------------------------
// The flight recorder ring.

SessionProfileRecord Rec(uint64_t trace_id) {
  SessionProfileRecord rec;
  rec.trace_id = trace_id;
  rec.profiled_ir = "ir t\n";
  rec.annotated_nodes = 1;
  return rec;
}

TEST(FlightRecorderTest, RetainsNewestKOldestFirst) {
  FlightRecorder recorder(3);
  for (uint64_t i = 1; i <= 5; ++i) recorder.Record(Rec(i));
  EXPECT_EQ(recorder.total_recorded(), 5u);
  const std::vector<SessionProfileRecord> entries = recorder.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].trace_id, 3u);
  EXPECT_EQ(entries[1].trace_id, 4u);
  EXPECT_EQ(entries[2].trace_id, 5u);
}

TEST(FlightRecorderTest, ZeroCapacityClampsToOne) {
  FlightRecorder recorder(0);
  EXPECT_EQ(recorder.capacity(), 1u);
  recorder.Record(Rec(1));
  recorder.Record(Rec(2));
  ASSERT_EQ(recorder.Entries().size(), 1u);
  EXPECT_EQ(recorder.Entries()[0].trace_id, 2u);
  EXPECT_EQ(recorder.total_recorded(), 2u);
}

TEST(FlightRecorderTest, ResolvePrefersTheInjectedRecorder) {
  FlightRecorder mine(2);
  Telemetry telemetry;
  EXPECT_EQ(&ResolveFlightRecorder(telemetry), &FlightRecorder::Default());
  telemetry.recorder = &mine;
  EXPECT_EQ(&ResolveFlightRecorder(telemetry), &mine);
}

// ---------------------------------------------------------------------------
// Attach through the real lowering: a full report session on the paper
// fixture ends up annotated, drift-checked, and recorded.

TEST(SessionProfileTest, ReportSessionAttachesAndRecords) {
  PaperExampleDb fixture;
  RecencyReporter reporter(&fixture.db, nullptr);
  MetricRegistry metrics;
  Tracer tracer;
  FlightRecorder recorder(2);
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.tracer = &tracer;
  telemetry.clock = &FakeNowMicros;
  telemetry.recorder = &recorder;
  RecencyReportOptions options;
  options.create_temp_tables = false;
  options.telemetry = &telemetry;
  options.profile = true;
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport report,
      reporter.Run("SELECT mach_id FROM Activity WHERE value = 'idle'",
                   options));
  EXPECT_GE(report.profiled_nodes, 3u);  // At least user scan, merge, report.
  auto parsed = ParsePlanIr(report.profiled_ir);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), report.profiled_ir);

  ASSERT_EQ(recorder.total_recorded(), 1u);
  const std::vector<SessionProfileRecord> entries = recorder.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].profiled_ir, report.profiled_ir);
  EXPECT_EQ(entries[0].annotated_nodes, report.profiled_nodes);
  EXPECT_EQ(entries[0].trace_id, report.trace_id);
  // The recorded IR is the artifact readers analyse: it re-parses and
  // carries no soundness finding.
  auto recorded = ParsePlanIr(entries[0].profiled_ir);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  for (const ProfileDiagnostic& d : AnalyzeProfileDrift(*recorded)) {
    EXPECT_NE(d.code, ProfileCode::kActualOutsideStaticBounds) << d.Format();
  }

  // Profiling off: nothing attaches, nothing records.
  options.profile = false;
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport bare,
      reporter.Run("SELECT mach_id FROM Activity WHERE value = 'idle'",
                   options));
  EXPECT_TRUE(bare.profiled_ir.empty());
  EXPECT_EQ(bare.profiled_nodes, 0u);
  EXPECT_EQ(recorder.total_recorded(), 1u);
}

}  // namespace
}  // namespace trac

// Extensions around the core reporting loop: percentile statistics,
// auto-heartbeats, the DNF-blow-up fallback, EXISTS guards, and the
// exceptional-source workload knob.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/recency_reporter.h"
#include "monitor/grid.h"
#include "workload/eval_workload.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;
using testing_util::Ts;

TEST(PercentileTest, NearestRankDefinition) {
  std::vector<SourceRecency> sources;
  for (int i = 1; i <= 10; ++i) {
    sources.push_back(
        SourceRecency{"s" + std::to_string(i), Timestamp(i * 100)});
  }
  RecencyStatsOptions options;
  options.percentiles = {0.5, 0.9, 1.0, 0.05};
  RecencyStats stats = ComputeRecencyStats(std::move(sources), options);
  ASSERT_EQ(stats.percentile_recencies.size(), 4u);
  EXPECT_EQ(stats.percentile_recencies[0].second, Timestamp(500));   // P50.
  EXPECT_EQ(stats.percentile_recencies[1].second, Timestamp(900));   // P90.
  EXPECT_EQ(stats.percentile_recencies[2].second, Timestamp(1000));  // P100.
  EXPECT_EQ(stats.percentile_recencies[3].second, Timestamp(100));   // P5.
}

TEST(PercentileTest, ComputedOverNormalSourcesOnly) {
  std::vector<SourceRecency> sources;
  Timestamp base = Ts("2006-03-15 14:20:05");
  for (int i = 0; i < 20; ++i) {
    sources.push_back(SourceRecency{"s" + std::to_string(i), base});
  }
  sources.push_back(
      SourceRecency{"dead", base - 300 * Timestamp::kMicrosPerDay});
  RecencyStatsOptions options;
  options.percentiles = {0.05};
  RecencyStats stats = ComputeRecencyStats(std::move(sources), options);
  ASSERT_EQ(stats.exceptional.size(), 1u);
  ASSERT_EQ(stats.percentile_recencies.size(), 1u);
  // P5 over the normal sources, not dragged down by the dead one.
  EXPECT_EQ(stats.percentile_recencies[0].second, base);
}

TEST(PercentileTest, InvalidAndEmptyInputs) {
  RecencyStatsOptions options;
  options.percentiles = {-0.5, 0.0, 1.5};
  RecencyStats empty = ComputeRecencyStats({}, options);
  EXPECT_TRUE(empty.percentile_recencies.empty());
  RecencyStats one = ComputeRecencyStats(
      {SourceRecency{"a", Timestamp(5)}}, options);
  EXPECT_TRUE(one.percentile_recencies.empty());  // All out of range.
}

TEST(AutoHeartbeatTest, IdleSourceStaysRecent) {
  Database db;
  auto grid = GridSimulator::Create(&db);
  ASSERT_TRUE(grid.ok());
  grid->clock().AdvanceTo(Ts("2006-03-15 09:00:00"));
  SnifferOptions fast;
  fast.poll_interval_micros = 30 * Timestamp::kMicrosPerSecond;
  TRAC_ASSERT_OK(grid->AddSource("quiet", fast).status());
  TRAC_ASSERT_OK(grid->AddSource("silent", fast).status());
  // Section 3.1: only the heartbeat-enabled source advances its recency
  // while idle.
  TRAC_ASSERT_OK(grid->EnableAutoHeartbeat(
      "quiet", 2 * Timestamp::kMicrosPerMinute));
  TRAC_ASSERT_OK(grid->RunUntil(Ts("2006-03-15 09:30:00")));

  Snapshot snap = db.LatestSnapshot();
  TRAC_ASSERT_OK_AND_ASSIGN(Timestamp quiet,
                            grid->heartbeat().Get("quiet", snap));
  TRAC_ASSERT_OK_AND_ASSIGN(Timestamp silent,
                            grid->heartbeat().Get("silent", snap));
  EXPECT_GE(quiet, Ts("2006-03-15 09:27:00"));
  EXPECT_EQ(silent, Ts("2006-03-15 09:00:00"));  // Registration time.
  EXPECT_EQ(grid->EnableAutoHeartbeat("zz", 1).code(),
            StatusCode::kNotFound);
  // Disabling stops the advance.
  TRAC_ASSERT_OK(grid->EnableAutoHeartbeat("quiet", 0));
  TRAC_ASSERT_OK(grid->RunUntil(Ts("2006-03-15 10:30:00")));
  TRAC_ASSERT_OK_AND_ASSIGN(Timestamp later,
                            grid->heartbeat().Get("quiet",
                                                  db.LatestSnapshot()));
  EXPECT_LE(later, Ts("2006-03-15 09:30:00"));
}

TEST(FallbackTest, DnfBlowUpFallsBackToAllSourcesComplete) {
  PaperExampleDb fixture(/*finite_domains=*/false);
  // 13 conjoined two-way ORs: 8192 conjuncts > the 4096 default guard.
  std::string pred;
  for (int i = 0; i < 13; ++i) {
    if (i) pred += " AND ";
    pred += "(mach_id = 'm1' OR value = 'v" + std::to_string(i) + "')";
  }
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(fixture.db, "SELECT mach_id FROM activity WHERE " + pred));
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyQueryPlan plan,
                            GenerateRecencyQueries(fixture.db, q));
  EXPECT_TRUE(plan.fallback_all);
  EXPECT_FALSE(plan.minimal);
  EXPECT_TRUE(plan.analysis.dnf_overflow);
  bool w004 = false;
  for (const AnalysisDiagnostic& d : plan.analysis.diagnostics) {
    w004 |= d.code == AnalysisCode::kDnfBlowUp;  // TRAC-W004
  }
  EXPECT_TRUE(w004);
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyExecution exec,
      ExecuteRecencyQueriesDetailed(fixture.db, plan,
                                    fixture.db.LatestSnapshot()));
  EXPECT_EQ(exec.sources.size(), 11u);  // Complete: everything reported.
}

TEST(GuardTest, DisconnectedRelationBecomesExistsGuard) {
  PaperExampleDb fixture(/*finite_domains=*/false);
  // Q4 shape: via routing, activity is not predicate-connected to the
  // Heartbeat slot, so it must appear as a guard, not a cross product.
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(fixture.db,
              "SELECT COUNT(*) FROM routing r, activity a WHERE "
              "r.neighbor = a.mach_id AND a.value = 'idle'"));
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyQueryPlan plan,
                            GenerateRecencyQueries(fixture.db, q));
  bool found_guarded_part = false;
  for (const auto& part : plan.parts) {
    if (!part.guards.empty()) {
      found_guarded_part = true;
      EXPECT_EQ(part.query.relations.size(), 1u);  // Heartbeat alone.
      const std::string sql = RecencyPartSql(fixture.db, part);
      EXPECT_NE(sql.find("EXISTS"), std::string::npos) << sql;
    }
  }
  EXPECT_TRUE(found_guarded_part);

  // With idle rows present the guard passes: all sources via routing.
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyExecution before,
      ExecuteRecencyQueriesDetailed(fixture.db, plan,
                                    fixture.db.LatestSnapshot()));
  EXPECT_EQ(before.sources.size(), 11u);

  // Remove every idle row: the guard fails and the routing part
  // contributes nothing; only activity-side relevance remains (which
  // also needs routing rows to join, so the set shrinks drastically).
  TRAC_ASSERT_OK(fixture.db
                     .UpdateWhere(
                         "activity",
                         [](const Row& r) {
                           return !r[1].is_null() &&
                                  r[1].str_val() == "idle";
                         },
                         [](Row* r) { (*r)[1] = Value::Str("busy"); })
                     .status());
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyExecution after,
      ExecuteRecencyQueriesDetailed(fixture.db, plan,
                                    fixture.db.LatestSnapshot()));
  // Via activity: potential idle tuples joining existing routing rows
  // with neighbor = source: neighbors are m3 only -> {m3}.
  ASSERT_EQ(after.sources.size(), 1u);
  EXPECT_EQ(after.sources[0].source, "m3");
}

TEST(WorkloadExceptionalTest, ReporterFlagsStaleSourcesAtScale) {
  Database db;
  EvalWorkloadOptions options;
  options.total_activity_rows = 2000;
  options.num_sources = 200;
  options.num_exceptional_sources = 3;
  TRAC_ASSERT_OK_AND_ASSIGN(EvalWorkload w, BuildEvalWorkload(&db, options));
  Session session(&db);
  RecencyReporter reporter(&db, &session);
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyReport report, reporter.Run(w.Q2()));
  // All 200 sources relevant; exactly the 3 month-stale ones flagged.
  EXPECT_EQ(report.relevance.sources.size(), 200u);
  EXPECT_EQ(report.stats.exceptional.size(), 3u);
  for (const auto& s : report.stats.exceptional) {
    EXPECT_TRUE(s.source == "Tao1" || s.source == "Tao2" ||
                s.source == "Tao3")
        << s.source;
  }
}

}  // namespace
}  // namespace trac

#include "core/recency_reporter.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "absint/absint.h"
#include "exec/statement.h"
#include "ir/plan_ir.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;
using testing_util::Ts;

int64_t QueriesExecuted() {
  return MetricRegistry::Default()
      .GetCounter("trac_queries_executed_total",
                  "Bound queries executed (user, recency, and guard queries)")
      ->Value();
}

// Reproduces the Section 5.1 session transcript: the idle-machines query
// over the sample Activity data with 11 registered sources, m2 a month
// stale.
TEST(ReporterTest, PaperTranscript) {
  PaperExampleDb fixture;
  Session session(&fixture.db);
  RecencyReporter reporter(&fixture.db, &session);

  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport report,
      reporter.Run("SELECT mach_id, value FROM Activity A WHERE value = "
                   "'idle'"));

  // Query result: m1 and m3 idle.
  EXPECT_EQ(report.result.num_rows(), 2u);
  EXPECT_TRUE(report.result.Contains({Value::Str("m1"), Value::Str("idle")}));
  EXPECT_TRUE(report.result.Contains({Value::Str("m3"), Value::Str("idle")}));

  // All 11 sources are relevant (no data-source predicate); m2 is the
  // exceptional one.
  EXPECT_EQ(report.relevance.sources.size(), 11u);
  ASSERT_EQ(report.stats.exceptional.size(), 1u);
  EXPECT_EQ(report.stats.exceptional[0].source, "m2");
  EXPECT_EQ(report.stats.normal.size(), 10u);

  // Least recent: m1 at 14:20:05; most recent: m3 at 14:40:05; bound of
  // inconsistency: 20 minutes.
  ASSERT_TRUE(report.stats.least_recent.has_value());
  EXPECT_EQ(report.stats.least_recent->source, "m1");
  EXPECT_EQ(report.stats.least_recent->recency, Ts("2006-03-15 14:20:05"));
  EXPECT_EQ(report.stats.most_recent->source, "m3");
  EXPECT_EQ(report.stats.most_recent->recency, Ts("2006-03-15 14:40:05"));
  EXPECT_EQ(report.stats.inconsistency_bound_micros,
            20 * Timestamp::kMicrosPerMinute);

  // Temp tables exist and are queryable, like the transcript's
  // sys_temp_e*/sys_temp_a* tables.
  ASSERT_FALSE(report.normal_temp_table.empty());
  ASSERT_FALSE(report.exceptional_temp_table.empty());
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet exceptional,
      ExecuteSql(fixture.db,
                 "SELECT * FROM " + report.exceptional_temp_table));
  ASSERT_EQ(exceptional.num_rows(), 1u);
  EXPECT_TRUE(exceptional.rows[0][0] == Value::Str("m2"));
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet normal,
      ExecuteSql(fixture.db, "SELECT * FROM " + report.normal_temp_table));
  EXPECT_EQ(normal.num_rows(), 10u);

  // The NOTICE block mentions everything the paper prints.
  std::string notices = report.FormatNotices();
  EXPECT_NE(notices.find("least recent data source: m1"), std::string::npos)
      << notices;
  EXPECT_NE(notices.find("most recent data source: m3"), std::string::npos);
  EXPECT_NE(notices.find("Bound of inconsistency: 00:20:00"),
            std::string::npos)
      << notices;
  EXPECT_NE(notices.find(report.normal_temp_table), std::string::npos);
  EXPECT_NE(notices.find(report.exceptional_temp_table), std::string::npos);
}

TEST(ReporterTest, FocusedSelectiveQueryReportsOnlyRelevantSources) {
  PaperExampleDb fixture;
  Session session(&fixture.db);
  RecencyReporter reporter(&fixture.db, &session);
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport report,
      reporter.Run("SELECT mach_id FROM Activity WHERE mach_id IN "
                   "('m1', 'm2') AND value = 'idle'"));
  ASSERT_EQ(report.relevance.sources.size(), 2u);
  EXPECT_EQ(report.relevance.sources[0].source, "m1");
  EXPECT_EQ(report.relevance.sources[1].source, "m2");
  EXPECT_TRUE(report.relevance.minimal);
  // With only two data points no z-score can exceed 1, so even the very
  // stale m2 is "normal" here — outlier detection needs population.
  EXPECT_TRUE(report.stats.exceptional.empty());
  ASSERT_TRUE(report.stats.least_recent.has_value());
  EXPECT_EQ(report.stats.least_recent->source, "m2");
  EXPECT_EQ(report.stats.most_recent->source, "m1");
}

TEST(ReporterTest, NaiveMethodReportsAllSources) {
  PaperExampleDb fixture;
  Session session(&fixture.db);
  RecencyReporter reporter(&fixture.db, &session);
  RecencyReportOptions options;
  options.method = RecencyMethod::kNaive;
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport report,
      reporter.Run("SELECT mach_id FROM Activity WHERE mach_id IN "
                   "('m1', 'm2') AND value = 'idle'",
                   options));
  EXPECT_EQ(report.relevance.sources.size(), 11u);
  EXPECT_FALSE(report.relevance.minimal);
}

// The report computes its statistics over its merged list without the
// public entry's sortedness pass, and finds least/most while it splits
// the sources. Every field must still equal ComputeRecencyStats over
// the report's own list: a lone registry walk (Naive, and a Focused
// query without a source predicate) and a planned part merged with a
// walk, each with an exceptional source and percentiles requested.
TEST(ReporterTest, StatsEqualPublicComputationOverReportedSources) {
  PaperExampleDb fixture;
  Session session(&fixture.db);
  RecencyReporter reporter(&fixture.db, &session);
  struct Case {
    RecencyMethod method;
    const char* sql;
    size_t tasks;
  };
  const Case cases[] = {
      {RecencyMethod::kNaive,
       "SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2')", 1},
      {RecencyMethod::kFocused,
       "SELECT mach_id FROM Activity WHERE value = 'idle'", 1},
      {RecencyMethod::kFocused,
       "SELECT mach_id FROM Activity WHERE mach_id > 'm1' OR value = 'idle'",
       2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    RecencyReportOptions options;
    options.method = c.method;
    options.stats.percentiles = {0.25, 0.5, 0.9, 1.0};
    TRAC_ASSERT_OK_AND_ASSIGN(RecencyReport report,
                              reporter.Run(c.sql, options));
    EXPECT_EQ(report.relevance_task_micros.size(), c.tasks);
    EXPECT_EQ(report.relevance.sources.size(), 11u);
    ASSERT_EQ(report.stats.exceptional.size(), 1u);
    const RecencyStats want =
        ComputeRecencyStats(report.relevance.sources, options.stats);
    EXPECT_EQ(report.stats.normal, want.normal);
    EXPECT_EQ(report.stats.exceptional, want.exceptional);
    EXPECT_EQ(report.stats.least_recent, want.least_recent);
    EXPECT_EQ(report.stats.most_recent, want.most_recent);
    EXPECT_EQ(report.stats.inconsistency_bound_micros,
              want.inconsistency_bound_micros);
    EXPECT_EQ(std::bit_cast<uint64_t>(report.stats.mean_micros),
              std::bit_cast<uint64_t>(want.mean_micros));
    EXPECT_EQ(std::bit_cast<uint64_t>(report.stats.stddev_micros),
              std::bit_cast<uint64_t>(want.stddev_micros));
    EXPECT_EQ(report.stats.percentile_recencies.size(), 4u);
    EXPECT_EQ(report.stats.percentile_recencies, want.percentile_recencies);
  }
}

TEST(ReporterTest, HardcodedPlanSkipsGenerationCost) {
  PaperExampleDb fixture;
  Session session(&fixture.db);
  RecencyReporter reporter(&fixture.db, &session);
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q, BindSql(fixture.db,
                            "SELECT mach_id FROM Activity WHERE mach_id IN "
                            "('m1', 'm2') AND value = 'idle'"));
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyQueryPlan plan,
                            GenerateRecencyQueries(fixture.db, q));
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyReport report,
                            reporter.RunWithPlan(q, plan));
  EXPECT_EQ(report.parse_generate_micros, 0);
  EXPECT_EQ(report.relevance.sources.size(), 2u);
}

TEST(ReporterTest, SnapshotConsistencyBetweenResultAndRecency) {
  // A write racing between the user query and the recency query must be
  // invisible to both: the reporter captures one snapshot.
  PaperExampleDb fixture;
  Session session(&fixture.db);
  RecencyReporter reporter(&fixture.db, &session);
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport before,
      reporter.Run("SELECT mach_id FROM Activity WHERE value = 'idle'"));
  // Now add a new source + row; a new report sees both, the old one
  // neither.
  TRAC_ASSERT_OK(fixture.heartbeat->SetRecency("m99",
                                               Ts("2006-03-15 15:00:00")));
  TRAC_ASSERT_OK(fixture.db.Insert(
      "activity", {Value::Str("m3"), Value::Str("idle"),
                   Value::Ts(Ts("2006-03-12 10:23:05"))}));
  EXPECT_EQ(before.relevance.sources.size(), 11u);
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport after,
      reporter.Run("SELECT mach_id FROM Activity WHERE value = 'idle'"));
  EXPECT_EQ(after.relevance.sources.size(), 12u);
  EXPECT_EQ(after.result.num_rows(), before.result.num_rows() + 1);
}

TEST(ReporterTest, NoTempTablesWhenDisabled) {
  PaperExampleDb fixture;
  RecencyReporter reporter(&fixture.db, nullptr);
  RecencyReportOptions options;
  options.create_temp_tables = false;
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport report,
      reporter.Run("SELECT mach_id FROM Activity WHERE value = 'idle'",
                   options));
  EXPECT_TRUE(report.normal_temp_table.empty());
  EXPECT_TRUE(report.exceptional_temp_table.empty());
}

TEST(ReporterTest, TempTablesRequestedWithoutSessionFails) {
  PaperExampleDb fixture;
  RecencyReporter reporter(&fixture.db, nullptr);
  MetricRegistry metrics;
  Tracer tracer;
  Telemetry telemetry{&metrics, &tracer, &MonotonicMicros};
  RecencyReportOptions options;
  options.telemetry = &telemetry;
  const int64_t queries_before = QueriesExecuted();
  Result<RecencyReport> report = reporter.Run(
      "SELECT mach_id FROM Activity WHERE value = 'idle'", options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  // Rejected before anything runs.
  EXPECT_EQ(QueriesExecuted(), queries_before);
  EXPECT_EQ(
      metrics.GetCounter("trac_reports_total", "Recency reports completed")
          ->Value(),
      0);
}

// Each report plans every query once, in PlanReportSession, and runs
// only those plans: at most one execution per planned query (a part
// whose guard finds nothing skips its main query). Lowered through
// LowerReportSessionPlans, the session IR holds one subgraph per
// planned query: the user query, plus the main query and guards of
// every part that is not a registry walk.
TEST(ReporterTest, PlansEachQueryOnce) {
  PaperExampleDb fixture(/*finite_domains=*/false);
  RecencyReporter reporter(&fixture.db, nullptr);
  MetricRegistry metrics;
  Tracer tracer;
  Telemetry telemetry{&metrics, &tracer, &MonotonicMicros};
  RecencyReportOptions options;
  options.create_temp_tables = false;
  options.telemetry = &telemetry;
  auto expect_at_most_one_run_per_plan = [&](const char* sql,
                                             size_t planned) {
    const int64_t before = QueriesExecuted();
    TRAC_ASSERT_OK(reporter.Run(sql, options).status());
    const int64_t runs = QueriesExecuted() - before;
    EXPECT_GE(runs, 1);  // The user query always runs.
    EXPECT_LE(runs, static_cast<int64_t>(planned));
  };
  const Snapshot snapshot = fixture.db.LatestSnapshot();
  for (const char* sql :
       {"SELECT value FROM activity WHERE mach_id = 'm1'",  // Q1
        "SELECT COUNT(*) FROM routing r, activity a WHERE "
        "r.neighbor = a.mach_id AND a.value = 'idle'"}) {
    SCOPED_TRACE(sql);
    TRAC_ASSERT_OK_AND_ASSIGN(BoundQuery query, BindSql(fixture.db, sql));
    TRAC_ASSERT_OK_AND_ASSIGN(RecencyQueryPlan plan,
                              GenerateRecencyQueries(fixture.db, query));
    TRAC_ASSERT_OK_AND_ASSIGN(
        ReportSession session,
        PlanReportSession(fixture.db, query, plan, snapshot));
    SessionLayout layout;
    LowerReportSessionPlans(fixture.db, query, plan, session, snapshot,
                            options.relevance.heartbeat_table,
                            /*session_id=*/0, &layout);
    // One contiguous subgraph per planned query, in execution order.
    std::vector<SessionLayout::QueryRange> subgraphs = {layout.user};
    ASSERT_EQ(layout.parts.size(), plan.parts.size());
    for (size_t i = 0; i < plan.parts.size(); ++i) {
      const SessionLayout::Part& part = layout.parts[i];
      EXPECT_EQ(part.walk, session.parts[i].walk != nullptr);
      if (part.walk) continue;
      ASSERT_EQ(part.guards.size(), plan.parts[i].guards.size());
      subgraphs.insert(subgraphs.end(), part.guards.begin(),
                       part.guards.end());
      subgraphs.push_back(part.main);
    }
    EXPECT_GT(subgraphs.size(), 1u);
    size_t next = 0;
    for (const SessionLayout::QueryRange& range : subgraphs) {
      EXPECT_GE(range.begin, next);
      EXPECT_LT(range.begin, range.end);
      next = range.end;
    }
    expect_at_most_one_run_per_plan(sql, subgraphs.size());
  }

  // The Naive plan is one registry walk: only the user query is
  // planned.
  options.method = RecencyMethod::kNaive;
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery query,
      BindSql(fixture.db, "SELECT value FROM activity WHERE mach_id = 'm1'"));
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyQueryPlan naive,
                            GenerateNaivePlan(fixture.db));
  TRAC_ASSERT_OK_AND_ASSIGN(
      ReportSession session,
      PlanReportSession(fixture.db, query, naive, snapshot));
  ASSERT_EQ(session.parts.size(), 1u);
  EXPECT_NE(session.parts[0].walk, nullptr);
  expect_at_most_one_run_per_plan(
      "SELECT value FROM activity WHERE mach_id = 'm1'", 1);
}

// The relevance engine checks the registry's column types with the same
// check HeartbeatTable::Open makes: a registry with an INT64 source or a
// STRING recency is an InvalidArgument for the Naive and the Focused
// method alike, never an abort on the first row read.
TEST(ReporterTest, MistypedRegistryIsInvalidArgument) {
  const struct {
    const char* create;
    const char* insert;
  } kRegistries[] = {
      {"CREATE TABLE heartbeat (source_id BIGINT, recency_timestamp "
       "TIMESTAMP)",
       "INSERT INTO heartbeat VALUES (1, '2006-03-15 14:20:05')"},
      {"CREATE TABLE heartbeat (source_id TEXT, recency_timestamp TEXT)",
       "INSERT INTO heartbeat VALUES ('m1', 'yesterday')"},
  };
  for (const auto& registry : kRegistries) {
    SCOPED_TRACE(registry.create);
    Database db;
    for (const char* sql :
         {"CREATE TABLE activity (mach_id TEXT DATA SOURCE, value TEXT, "
          "event_time TIMESTAMP)",
          "INSERT INTO activity VALUES ('m1', 'idle', "
          "'2006-03-11 20:37:46')",
          registry.create, "CREATE INDEX ON heartbeat (source_id)",
          registry.insert}) {
      TRAC_ASSERT_OK(ExecuteStatement(&db, sql).status());
    }
    RecencyReporter reporter(&db, nullptr);
    for (const RecencyMethod method :
         {RecencyMethod::kNaive, RecencyMethod::kFocused}) {
      RecencyReportOptions options;
      options.method = method;
      options.create_temp_tables = false;
      for (const char* sql :
           {"SELECT COUNT(*) FROM activity a WHERE a.value = 'idle'",
            "SELECT value FROM activity a WHERE a.mach_id = 'm1'"}) {
        SCOPED_TRACE(sql);
        auto report = reporter.Run(sql, options);
        ASSERT_FALSE(report.ok());
        EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
            << report.status().ToString();
      }
    }
  }
}

// A user table holding the next sys_temp_ name is skipped, and the
// report is counted once, after its temp tables exist.
TEST(ReporterTest, TempTablesSkipNamesUserTablesHold) {
  PaperExampleDb fixture;
  Session session(&fixture.db);
  RecencyReporter reporter(&fixture.db, &session);
  MetricRegistry metrics;
  Tracer tracer;
  Telemetry telemetry{&metrics, &tracer, &MonotonicMicros};
  RecencyReportOptions options;
  options.telemetry = &telemetry;
  const uint64_t n = fixture.db.NextTempTableId();
  const std::string taken = "sys_temp_a" + std::to_string(n + 1);
  TRAC_ASSERT_OK(
      ExecuteStatement(&fixture.db, "CREATE TABLE " + taken + " (x INT)")
          .status());

  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport report,
      reporter.Run("SELECT mach_id FROM Activity WHERE value = 'idle'",
                   options));
  EXPECT_EQ(report.normal_temp_table, "sys_temp_a" + std::to_string(n + 2));
  EXPECT_EQ(report.exceptional_temp_table,
            "sys_temp_e" + std::to_string(n + 3));
  EXPECT_EQ(
      metrics.GetCounter("trac_reports_total", "Recency reports completed")
          ->Value(),
      1);
  // The user's table is left as it was.
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rows, ExecuteSql(fixture.db, "SELECT x FROM " + taken));
  EXPECT_EQ(rows.num_rows(), 0u);
  EXPECT_EQ(session.temp_tables(),
            (std::vector<std::string>{report.normal_temp_table,
                                      report.exceptional_temp_table}));
}

TEST(ReporterTest, EmptyRelevantSetProducesEmptyReport) {
  PaperExampleDb fixture;
  Session session(&fixture.db);
  RecencyReporter reporter(&fixture.db, &session);
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport report,
      reporter.Run("SELECT mach_id FROM Activity WHERE value = 'idle' AND "
                   "value = 'busy'"));
  EXPECT_EQ(report.result.num_rows(), 0u);
  EXPECT_TRUE(report.relevance.sources.empty());
  EXPECT_FALSE(report.stats.least_recent.has_value());
  EXPECT_NE(report.FormatNotices().find("No normal relevant data sources"),
            std::string::npos);

  // An empty range over the unmonitored registry's indexed source_id,
  // with a row on its bound: the analysis cannot prove it empty.
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport range,
      reporter.Run("SELECT COUNT(*) FROM heartbeat WHERE source_id > 'm5' "
                   "AND source_id < 'm5'"));
  EXPECT_EQ(range.result.count(), 0);
  EXPECT_TRUE(range.relevance.sources.empty());
}

// No source has reported yet: the Heartbeat registry is empty. The
// abstract interpreter over the recorded session IR proves the merge's
// source count exactly: nothing can be relevant.
TEST(ReporterTest, EmptyRegistryProfiledMergeIsProvenEmpty) {
  Database db;
  TRAC_ASSERT_OK(HeartbeatTable::Create(&db).status());
  TableSchema schema("activity", {ColumnDef("mach_id", TypeId::kString),
                                  ColumnDef("value", TypeId::kString)});
  TRAC_ASSERT_OK(schema.SetDataSourceColumn("mach_id"));
  TRAC_ASSERT_OK(db.CreateTable(std::move(schema)).status());
  TRAC_ASSERT_OK(db.Insert("activity", {Value::Str("m1"), Value::Str("idle")}));
  Session session(&db);
  RecencyReporter reporter(&db, &session);
  RecencyReportOptions options;
  options.profile = true;
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport report,
      reporter.Run("SELECT mach_id FROM activity", options));
  EXPECT_EQ(report.result.num_rows(), 1u);
  EXPECT_TRUE(report.relevance.sources.empty());
  TRAC_ASSERT_OK_AND_ASSIGN(PlanIr ir, ParsePlanIr(report.profiled_ir));
  const absint::AbsintResult facts = absint::AnalyzeIr(ir);
  size_t merges = 0;
  for (const IrNode& node : ir.nodes) {
    if (node.kind != IrNodeKind::kMerge) continue;
    ++merges;
    const absint::CardInterval& card = facts.facts[node.id].card;
    EXPECT_EQ(card.lo, 0u);
    EXPECT_FALSE(card.unbounded);
    EXPECT_EQ(card.hi, 0u);
    EXPECT_EQ(node.actual_rows, 0u);
  }
  EXPECT_EQ(merges, 1u);
}

}  // namespace
}  // namespace trac

// Additional analyzer coverage: self-joins, executability of the
// generated recency SQL, timing bookkeeping, and percentile options
// flowing through the reporter.

#include <gtest/gtest.h>

#include "../test_util.h"
#include <algorithm>

#include "core/brute_force.h"
#include "core/recency_reporter.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;

TEST(SelfJoinTest, RelevanceTreatsEachSlotIndependently) {
  PaperExampleDb fixture(/*finite_domains=*/true);
  // Two-hop neighborhood: r1 -> r2. Slots r1 and r2 are the same table
  // but independent relations for Definition 2.
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(fixture.db,
              "SELECT r1.mach_id FROM routing r1, routing r2 "
              "WHERE r1.neighbor = r2.mach_id AND r2.neighbor = 'm3'"));
  Snapshot snap = fixture.db.LatestSnapshot();
  TRAC_ASSERT_OK_AND_ASSIGN(RelevanceResult focused,
                            ComputeRelevantSources(fixture.db, q, snap));
  TRAC_ASSERT_OK_AND_ASSIGN(std::vector<std::string> truth,
                            BruteForceRelevantSources(fixture.db, q, snap));
  // Completeness against ground truth.
  for (const std::string& s : truth) {
    auto ids = focused.SourceIds();
    EXPECT_NE(std::find(ids.begin(), ids.end(), s), ids.end()) << s;
  }
  // Via r1: any source could insert a tuple whose neighbor matches an
  // existing routing row (m1 or m2, both with neighbor m3): all 11.
  EXPECT_EQ(truth.size(), 11u);
  EXPECT_EQ(focused.SourceIds(), truth);
}

TEST(GeneratedSqlTest, RecencyQueriesAreExecutableSql) {
  PaperExampleDb fixture;
  for (const char* sql :
       {"SELECT mach_id FROM activity WHERE mach_id IN ('m1','m2') AND "
        "value = 'idle'",
        "SELECT a.mach_id FROM routing r, activity a WHERE r.mach_id = "
        "'m1' AND a.value = 'idle' AND r.neighbor = a.mach_id",
        "SELECT mach_id FROM activity WHERE NOT (mach_id = 'm1' OR "
        "value = 'busy')"}) {
    TRAC_ASSERT_OK_AND_ASSIGN(BoundQuery q, BindSql(fixture.db, sql));
    TRAC_ASSERT_OK_AND_ASSIGN(RecencyQueryPlan plan,
                              GenerateRecencyQueries(fixture.db, q));
    Snapshot snap = fixture.db.LatestSnapshot();
    for (const auto& part : plan.parts) {
      if (!part.guards.empty()) continue;  // EXISTS does not parse.
      // The rendered SQL parses, binds and executes to the same rows as
      // the bound part.
      const std::string part_sql = RecencyPartSql(fixture.db, part);
      TRAC_ASSERT_OK_AND_ASSIGN(BoundQuery reparsed,
                                BindSql(fixture.db, part_sql));
      TRAC_ASSERT_OK_AND_ASSIGN(ResultSet direct,
                                ExecuteQuery(fixture.db, part.query, snap));
      TRAC_ASSERT_OK_AND_ASSIGN(ResultSet via_sql,
                                ExecuteQuery(fixture.db, reparsed, snap));
      auto sorted = [](ResultSet rs) {
        std::sort(rs.rows.begin(), rs.rows.end());
        return rs.rows;
      };
      EXPECT_EQ(sorted(direct), sorted(via_sql)) << part_sql;
    }
  }
}

// Guards join the main query's WHERE clause: a guard-only part opens one
// with WHERE EXISTS, a part with its own predicate extends it with AND.
TEST(GeneratedSqlTest, GuardedPartsRenderOneWhereClause) {
  PaperExampleDb fixture;
  const std::string scaffold =
      "SELECT DISTINCT __hb.source_id, __hb.recency_timestamp FROM "
      "heartbeat __hb";
  const std::string idle_guard =
      "EXISTS (SELECT a.mach_id FROM activity a WHERE a.value = 'idle')";

  // Q4 shape: via routing, the main query keeps no predicate.
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q4,
      BindSql(fixture.db,
              "SELECT COUNT(*) FROM routing r, activity a WHERE "
              "r.neighbor = a.mach_id AND a.value = 'idle'"));
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyQueryPlan plan4,
                            GenerateRecencyQueries(fixture.db, q4));
  ASSERT_EQ(plan4.parts.size(), 2u);
  EXPECT_EQ(RecencyPartSql(fixture.db, plan4.parts[0]),
            scaffold + " WHERE " + idle_guard);
  EXPECT_EQ(RecencyPartSql(fixture.db, plan4.parts[1]),
            scaffold + ", routing r WHERE r.neighbor = __hb.source_id");

  // Q3 shape: via routing, the main query keeps the IN list.
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q3,
      BindSql(fixture.db,
              "SELECT COUNT(*) FROM routing r, activity a WHERE "
              "r.mach_id IN ('m1','m2') AND r.neighbor = a.mach_id AND "
              "a.value = 'idle'"));
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyQueryPlan plan3,
                            GenerateRecencyQueries(fixture.db, q3));
  ASSERT_FALSE(plan3.parts.empty());
  EXPECT_EQ(RecencyPartSql(fixture.db, plan3.parts[0]),
            scaffold + " WHERE __hb.source_id IN ('m1', 'm2') AND " +
                idle_guard);
}

TEST(ReportTimingTest, BreakdownFieldsArePopulated) {
  PaperExampleDb fixture;
  Session session(&fixture.db);
  RecencyReporter reporter(&fixture.db, &session);
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport report,
      reporter.Run("SELECT mach_id FROM activity WHERE value = 'idle'"));
  EXPECT_GE(report.parse_generate_micros, 0);
  EXPECT_GE(report.user_query_micros, 0);
  EXPECT_GE(report.relevance_exec_micros, 0);
  EXPECT_GE(report.stats_micros, 0);
  // The hardcoded configuration reports zero generation cost by design.
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(fixture.db,
              "SELECT mach_id FROM activity WHERE value = 'idle'"));
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyQueryPlan plan,
                            GenerateRecencyQueries(fixture.db, q));
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyReport hard,
                            reporter.RunWithPlan(q, plan));
  EXPECT_EQ(hard.parse_generate_micros, 0);
}

TEST(ReportOptionsTest, PercentilesFlowThroughTheReporter) {
  PaperExampleDb fixture;
  Session session(&fixture.db);
  RecencyReporter reporter(&fixture.db, &session);
  RecencyReportOptions options;
  options.stats.percentiles = {0.5};
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport report,
      reporter.Run("SELECT mach_id FROM activity WHERE value = 'idle'",
                   options));
  ASSERT_EQ(report.stats.percentile_recencies.size(), 1u);
  EXPECT_DOUBLE_EQ(report.stats.percentile_recencies[0].first, 0.5);
  // The median lies between the normal extremes.
  EXPECT_GE(report.stats.percentile_recencies[0].second,
            report.stats.least_recent->recency);
  EXPECT_LE(report.stats.percentile_recencies[0].second,
            report.stats.most_recent->recency);
}

TEST(ReportOptionsTest, CustomHeartbeatTableName) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable hb,
                            HeartbeatTable::Create(&db, "hb2"));
  TRAC_ASSERT_OK(hb.SetRecency("s1", Timestamp::FromSeconds(100)));
  TableSchema schema("t", {ColumnDef("src", TypeId::kString)});
  TRAC_ASSERT_OK(schema.SetDataSourceColumn("src"));
  TRAC_ASSERT_OK(db.CreateTable(std::move(schema)).status());
  TRAC_ASSERT_OK(db.Insert("t", {Value::Str("s1")}));

  Session session(&db);
  RecencyReporter reporter(&db, &session);
  RecencyReportOptions options;
  options.relevance.heartbeat_table = "hb2";
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyReport report,
                            reporter.Run("SELECT src FROM t", options));
  EXPECT_EQ(report.relevance.sources.size(), 1u);
  // The default name is absent, so default options must fail cleanly.
  EXPECT_FALSE(reporter.Run("SELECT src FROM t").ok());
}

}  // namespace
}  // namespace trac

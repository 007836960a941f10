#include "exec/executor.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "../test_util.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;
using testing_util::Ts;

TEST(ExecutorTest, SingleTableFilter) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      ExecuteSql(fixture.db,
                 "SELECT mach_id FROM Activity WHERE value = 'idle'"));
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_TRUE(rs.Contains({Value::Str("m1")}));
  EXPECT_TRUE(rs.Contains({Value::Str("m3")}));
}

TEST(ExecutorTest, PaperQ1InList) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      ExecuteSql(fixture.db,
                 "SELECT mach_id FROM Activity "
                 "WHERE mach_id IN ('m1', 'm2') AND value = 'idle'"));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_TRUE(rs.Contains({Value::Str("m1")}));
}

TEST(ExecutorTest, PaperQ2Join) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      ExecuteSql(fixture.db,
                 "SELECT A.mach_id FROM Routing R, Activity A "
                 "WHERE R.mach_id = 'm1' AND A.value = 'idle' "
                 "AND R.neighbor = A.mach_id"));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_TRUE(rs.Contains({Value::Str("m3")}));
}

TEST(ExecutorTest, CountStar) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(ResultSet rs,
                            ExecuteSql(fixture.db,
                                       "SELECT COUNT(*) FROM activity"));
  EXPECT_EQ(rs.count(), 3);
}

TEST(ExecutorTest, CountWithPredicate) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs, ExecuteSql(fixture.db,
                               "SELECT COUNT(*) FROM activity WHERE value = "
                               "'busy'"));
  EXPECT_EQ(rs.count(), 1);

  // Empty ranges over the indexed mach_id, with rows on their bounds.
  for (const char* where : {"mach_id > 'm2' AND mach_id < 'm2'",
                            "mach_id BETWEEN 'm3' AND 'm1'"}) {
    TRAC_ASSERT_OK_AND_ASSIGN(
        ResultSet empty,
        ExecuteSql(fixture.db,
                   std::string("SELECT COUNT(*) FROM activity WHERE ") +
                       where));
    EXPECT_EQ(empty.count(), 0) << where;
  }
}

TEST(ExecutorTest, CrossProductWithoutJoinPredicate) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      ExecuteSql(fixture.db, "SELECT COUNT(*) FROM routing, activity"));
  EXPECT_EQ(rs.count(), 6);  // 2 x 3.
}

TEST(ExecutorTest, SelectStarExpandsAllColumns) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(ResultSet rs,
                            ExecuteSql(fixture.db, "SELECT * FROM routing"));
  EXPECT_EQ(rs.column_names.size(), 3u);
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST(ExecutorTest, DistinctDeduplicates) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      ExecuteSql(fixture.db, "SELECT DISTINCT neighbor FROM routing"));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_TRUE(rs.Contains({Value::Str("m3")}));
}

TEST(ExecutorTest, OrPredicates) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      ExecuteSql(fixture.db,
                 "SELECT mach_id FROM activity WHERE mach_id = 'm1' OR "
                 "value = 'busy'"));
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST(ExecutorTest, TimestampComparison) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      ExecuteSql(fixture.db,
                 "SELECT mach_id FROM activity WHERE event_time > "
                 "TIMESTAMP '2006-03-01 00:00:00'"));
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST(ExecutorTest, StringLiteralCoercesToTimestamp) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      ExecuteSql(fixture.db,
                 "SELECT mach_id FROM activity WHERE event_time > "
                 "'2006-03-01 00:00:00'"));
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST(ExecutorTest, WhereFalseConstant) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      ExecuteSql(fixture.db, "SELECT COUNT(*) FROM activity WHERE FALSE"));
  EXPECT_EQ(rs.count(), 0);
}

TEST(ExecutorTest, NullComparisonsNeverMatch) {
  Database db;
  TableSchema schema("t", {ColumnDef("a", TypeId::kInt64),
                           ColumnDef("b", TypeId::kString)});
  TRAC_ASSERT_OK(db.CreateTable(std::move(schema)).status());
  TRAC_ASSERT_OK(db.Insert("t", {Value::Int(1), Value::Null()}));
  TRAC_ASSERT_OK(db.Insert("t", {Value::Null(), Value::Str("x")}));

  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet eq, ExecuteSql(db, "SELECT COUNT(*) FROM t WHERE b = 'x'"));
  EXPECT_EQ(eq.count(), 1);
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet ne, ExecuteSql(db, "SELECT COUNT(*) FROM t WHERE b <> 'x'"));
  EXPECT_EQ(ne.count(), 0);  // NULL <> 'x' is Unknown, not TRUE.
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet isnull,
      ExecuteSql(db, "SELECT COUNT(*) FROM t WHERE b IS NULL"));
  EXPECT_EQ(isnull.count(), 1);
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet notin,
      ExecuteSql(db, "SELECT COUNT(*) FROM t WHERE a NOT IN (2, 3)"));
  EXPECT_EQ(notin.count(), 1);  // The NULL row drops out.
}

TEST(ExecutorTest, SnapshotIsolation) {
  PaperExampleDb fixture;
  Snapshot before = fixture.db.LatestSnapshot();
  TRAC_ASSERT_OK(fixture.db.Insert(
      "activity", {Value::Str("m4"), Value::Str("idle"),
                   Value::Ts(Ts("2006-03-12 10:23:05"))}));
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q, BindSql(fixture.db, "SELECT COUNT(*) FROM activity"));
  TRAC_ASSERT_OK_AND_ASSIGN(ResultSet old_rs,
                            ExecuteQuery(fixture.db, q, before));
  EXPECT_EQ(old_rs.count(), 3);
  TRAC_ASSERT_OK_AND_ASSIGN(
      ResultSet new_rs,
      ExecuteQuery(fixture.db, q, fixture.db.LatestSnapshot()));
  EXPECT_EQ(new_rs.count(), 4);
}

TEST(ExecutorTest, UnknownTableFails) {
  PaperExampleDb fixture;
  EXPECT_FALSE(ExecuteSql(fixture.db, "SELECT x FROM nope").ok());
}

TEST(ExecutorTest, UnknownColumnFails) {
  PaperExampleDb fixture;
  EXPECT_FALSE(ExecuteSql(fixture.db, "SELECT zzz FROM activity").ok());
}

TEST(ExecutorTest, AmbiguousColumnFails) {
  PaperExampleDb fixture;
  EXPECT_FALSE(
      ExecuteSql(fixture.db,
                 "SELECT mach_id FROM activity, routing").ok());
}

TEST(ExecutorTest, TypeMismatchFailsAtBind) {
  PaperExampleDb fixture;
  EXPECT_FALSE(
      ExecuteSql(fixture.db,
                 "SELECT mach_id FROM activity WHERE mach_id = 3").ok());
}

TEST(PlannerTest, UsesIndexForInListOnIndexedColumn) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(fixture.db,
              "SELECT mach_id FROM activity WHERE mach_id IN ('m1','m2')"));
  TRAC_ASSERT_OK_AND_ASSIGN(
      QueryPlan plan, PlanQuery(fixture.db, q, fixture.db.LatestSnapshot()));
  ASSERT_EQ(plan.levels.size(), 1u);
  EXPECT_TRUE(plan.levels[0].use_local_index);
  EXPECT_EQ(plan.levels[0].index_keys.size(), 2u);
}

TEST(PlannerTest, SeqScanWithoutUsableIndex) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(fixture.db,
              "SELECT mach_id FROM activity WHERE value = 'idle'"));
  TRAC_ASSERT_OK_AND_ASSIGN(
      QueryPlan plan, PlanQuery(fixture.db, q, fixture.db.LatestSnapshot()));
  EXPECT_FALSE(plan.levels[0].use_local_index);
}

TEST(PlannerTest, JoinOrderStartsWithSelectiveRelation) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q, BindSql(fixture.db,
                            "SELECT COUNT(*) FROM routing r, activity a "
                            "WHERE r.mach_id = 'm1' AND r.neighbor = "
                            "a.mach_id"));
  TRAC_ASSERT_OK_AND_ASSIGN(
      QueryPlan plan, PlanQuery(fixture.db, q, fixture.db.LatestSnapshot()));
  ASSERT_EQ(plan.levels.size(), 2u);
  EXPECT_EQ(plan.levels[0].relation, 0u);  // routing (selective, indexed)
  EXPECT_EQ(plan.levels[1].relation, 1u);  // activity joined second
  EXPECT_EQ(plan.levels[1].equi_keys.size(), 1u);
  EXPECT_TRUE(plan.levels[1].index_nested_loop);  // tiny prefix + index
}

}  // namespace
}  // namespace trac

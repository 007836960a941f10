// Heartbeat table, session temp tables, and brute-force ground truth.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/brute_force.h"
#include "core/session.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;
using testing_util::Ts;

TEST(HeartbeatTest, CreateAndOpen) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable hb, HeartbeatTable::Create(&db));
  EXPECT_EQ(hb.name(), "heartbeat");
  TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable again, HeartbeatTable::Open(&db));
  EXPECT_EQ(again.table_id(), hb.table_id());
  // Creating twice fails; opening a non-heartbeat table fails.
  EXPECT_FALSE(HeartbeatTable::Create(&db).ok());
  TableSchema other("other", {ColumnDef("x", TypeId::kInt64)});
  ASSERT_TRUE(db.CreateTable(std::move(other)).ok());
  EXPECT_FALSE(HeartbeatTable::Open(&db, "other").ok());
}

TEST(HeartbeatTest, ReportHeartbeatIsMonotonic) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable hb, HeartbeatTable::Create(&db));
  TRAC_ASSERT_OK(hb.ReportHeartbeat("s1", Ts("2006-03-15 14:00:00")));
  TRAC_ASSERT_OK(hb.ReportHeartbeat("s1", Ts("2006-03-15 15:00:00")));
  // Late-arriving older heartbeat does not regress the recency.
  TRAC_ASSERT_OK(hb.ReportHeartbeat("s1", Ts("2006-03-15 13:00:00")));
  TRAC_ASSERT_OK_AND_ASSIGN(Timestamp ts,
                            hb.Get("s1", db.LatestSnapshot()));
  EXPECT_EQ(ts, Ts("2006-03-15 15:00:00"));
  EXPECT_EQ(hb.NumSources(db.LatestSnapshot()), 1u);
}

TEST(HeartbeatTest, SetRecencyOverwrites) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable hb, HeartbeatTable::Create(&db));
  TRAC_ASSERT_OK(hb.SetRecency("s1", Ts("2006-03-15 14:00:00")));
  TRAC_ASSERT_OK(hb.SetRecency("s1", Ts("2006-03-15 13:00:00")));
  TRAC_ASSERT_OK_AND_ASSIGN(Timestamp ts, hb.Get("s1", db.LatestSnapshot()));
  EXPECT_EQ(ts, Ts("2006-03-15 13:00:00"));
}

TEST(HeartbeatTest, GetAllSortedAndSnapshotted) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable hb, HeartbeatTable::Create(&db));
  TRAC_ASSERT_OK(hb.SetRecency("b", Ts("2006-03-15 14:00:00")));
  Snapshot before = db.LatestSnapshot();
  TRAC_ASSERT_OK(hb.SetRecency("a", Ts("2006-03-15 15:00:00")));
  auto all = hb.GetAll(db.LatestSnapshot());
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(all[1].first, "b");
  EXPECT_EQ(hb.GetAll(before).size(), 1u);
  EXPECT_FALSE(hb.Get("zzz", db.LatestSnapshot()).ok());
}

TEST(HeartbeatTest, FirstRegistrationIsOneCommit) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable hb, HeartbeatTable::Create(&db));
  const uint64_t v0 = db.LatestSnapshot().version;
  TRAC_ASSERT_OK(hb.ReportHeartbeat("s1", Ts("2006-03-15 14:00:00")));
  TRAC_ASSERT_OK(hb.SetRecency("s2", Ts("2006-03-15 14:00:00")));
  EXPECT_EQ(db.LatestSnapshot().version, v0 + 2);
  // A heartbeat that does not advance still commits (an empty version).
  TRAC_ASSERT_OK(hb.ReportHeartbeat("s1", Ts("2006-03-15 13:00:00")));
  EXPECT_EQ(db.LatestSnapshot().version, v0 + 3);
  EXPECT_EQ(db.GetTable(hb.table_id())->num_versions(), 2u);
}

TEST(HeartbeatTest, NullSourceOrRecencyRowsDoNotAbortReaders) {
  // Rows written around the HeartbeatTable API may hold NULLs: a NULL
  // source is skipped, a NULL recency reads as the epoch.
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable hb, HeartbeatTable::Create(&db));
  TRAC_ASSERT_OK(db.Insert("heartbeat", {Value::Str("x"), Value::Null()}));
  TRAC_ASSERT_OK(db.Insert(
      "heartbeat", {Value::Null(), Value::Ts(Ts("2006-03-15 14:00:00"))}));
  TRAC_ASSERT_OK(hb.SetRecency("y", Ts("2006-03-15 15:00:00")));
  const Snapshot snap = db.LatestSnapshot();
  TRAC_ASSERT_OK_AND_ASSIGN(Timestamp x, hb.Get("x", snap));
  EXPECT_EQ(x, Timestamp());
  const std::vector<std::pair<std::string, Timestamp>> want = {
      {"x", Timestamp()}, {"y", Ts("2006-03-15 15:00:00")}};
  EXPECT_EQ(hb.GetAll(snap), want);
  EXPECT_EQ(hb.NumSources(snap), 2u);
  // Any heartbeat advances a NULL recency.
  TRAC_ASSERT_OK(hb.ReportHeartbeat("x", Ts("2006-03-15 13:00:00")));
  TRAC_ASSERT_OK_AND_ASSIGN(x, hb.Get("x", db.LatestSnapshot()));
  EXPECT_EQ(x, Ts("2006-03-15 13:00:00"));
  EXPECT_EQ(hb.NumSources(db.LatestSnapshot()), 2u);
}

TEST(HeartbeatTest, OpenResolvesColumnsByName) {
  // An unindexed registry with the heartbeat columns out of the usual
  // order: writes and reads find them by name (and scan, lacking the
  // index); a table with the right names but wrong types is refused.
  Database db;
  TRAC_ASSERT_OK(
      db.CreateTable(TableSchema(
                         "hb", {ColumnDef("note", TypeId::kInt64),
                                ColumnDef("recency_timestamp",
                                          TypeId::kTimestamp),
                                ColumnDef("source_id", TypeId::kString)}))
          .status());
  TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable hb, HeartbeatTable::Open(&db, "hb"));
  TRAC_ASSERT_OK(hb.ReportHeartbeat("s1", Ts("2006-03-15 14:00:00")));
  TRAC_ASSERT_OK(hb.ReportHeartbeat("s1", Ts("2006-03-15 15:00:00")));
  TRAC_ASSERT_OK(hb.ReportHeartbeat("s1", Ts("2006-03-15 13:00:00")));
  TRAC_ASSERT_OK(db.Insert("hb", {Value::Int(1), Value::Null(), Value::Null()}));
  const Snapshot snap = db.LatestSnapshot();
  TRAC_ASSERT_OK_AND_ASSIGN(Timestamp ts, hb.Get("s1", snap));
  EXPECT_EQ(ts, Ts("2006-03-15 15:00:00"));
  const std::vector<std::pair<std::string, Timestamp>> want = {
      {"s1", Ts("2006-03-15 15:00:00")}};
  EXPECT_EQ(hb.GetAll(snap), want);
  EXPECT_EQ(hb.NumSources(snap), 1u);

  TRAC_ASSERT_OK(
      db.CreateTable(TableSchema(
                         "typed", {ColumnDef("source_id", TypeId::kInt64),
                                   ColumnDef("recency_timestamp",
                                             TypeId::kTimestamp)}))
          .status());
  EXPECT_EQ(HeartbeatTable::Open(&db, "typed").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionTest, TempTablesDroppedAtSessionEnd) {
  Database db;
  std::string name;
  {
    Session session(&db);
    TRAC_ASSERT_OK_AND_ASSIGN(
        name, session.CreateTempTable(
                  "sys_temp_a", {ColumnDef("sid", TypeId::kString)},
                  {{Value::Str("m1")}, {Value::Str("m2")}}));
    EXPECT_TRUE(db.FindTable(name).ok());
    TRAC_ASSERT_OK_AND_ASSIGN(ResultSet rs,
                              ExecuteSql(db, "SELECT * FROM " + name));
    EXPECT_EQ(rs.num_rows(), 2u);
  }
  EXPECT_FALSE(db.FindTable(name).ok());
}

TEST(SessionTest, NamesAreUnique) {
  Database db;
  Session session(&db);
  TRAC_ASSERT_OK_AND_ASSIGN(
      std::string a,
      session.CreateTempTable("sys_temp_a",
                              {ColumnDef("sid", TypeId::kString)}, {}));
  TRAC_ASSERT_OK_AND_ASSIGN(
      std::string b,
      session.CreateTempTable("sys_temp_a",
                              {ColumnDef("sid", TypeId::kString)}, {}));
  EXPECT_NE(a, b);
}

TEST(SessionTest, MaterializeSurvivesSession) {
  Database db;
  {
    Session session(&db);
    TRAC_ASSERT_OK_AND_ASSIGN(
        std::string name,
        session.CreateTempTable("sys_temp_a",
                                {ColumnDef("sid", TypeId::kString)},
                                {{Value::Str("m1")}}));
    TRAC_ASSERT_OK(session.Materialize(name, "kept"));
    EXPECT_FALSE(db.FindTable(name).ok());  // Renamed away.
  }
  TRAC_ASSERT_OK_AND_ASSIGN(ResultSet rs, ExecuteSql(db, "SELECT * FROM kept"));
  EXPECT_EQ(rs.num_rows(), 1u);
}

TEST(SessionTest, DropTempTableExplicitly) {
  Database db;
  Session session(&db);
  TRAC_ASSERT_OK_AND_ASSIGN(
      std::string name,
      session.CreateTempTable("sys_temp_e",
                              {ColumnDef("sid", TypeId::kString)}, {}));
  TRAC_ASSERT_OK(session.DropTempTable(name));
  EXPECT_FALSE(db.FindTable(name).ok());
  EXPECT_EQ(session.DropTempTable(name).code(), StatusCode::kNotFound);
}

TEST(BruteForceTest, RequiresFiniteDomains) {
  PaperExampleDb fixture(/*finite_domains=*/false);
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(fixture.db, "SELECT mach_id FROM activity WHERE value = "
                          "'idle'"));
  auto r = BruteForceRelevantSources(fixture.db, q, fixture.db.LatestSnapshot());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(BruteForceTest, SingleRelationDefinitionOne) {
  PaperExampleDb fixture;
  // Definition 1: sources relevant via *potential* tuples, regardless of
  // table contents — m7 has no Activity rows but could insert one.
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(fixture.db,
              "SELECT mach_id FROM activity WHERE mach_id = 'm7' AND "
              "value = 'busy'"));
  TRAC_ASSERT_OK_AND_ASSIGN(
      std::vector<std::string> truth,
      BruteForceRelevantSources(fixture.db, q, fixture.db.LatestSnapshot()));
  EXPECT_EQ(truth, (std::vector<std::string>{"m7"}));
}

TEST(BruteForceTest, MultiRelationUsesExistingTuplesForOthers) {
  PaperExampleDb fixture;
  // Via routing: needs an existing activity tuple. Only m1/m2/m3 have
  // activity rows; the join requires neighbor = that row's mach_id and
  // value = 'busy' (only m2's row). Any potential routing tuple with
  // neighbor = 'm2' works, so every source is relevant via routing.
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(fixture.db,
              "SELECT r.mach_id FROM routing r, activity a WHERE "
              "r.neighbor = a.mach_id AND a.value = 'busy'"));
  TRAC_ASSERT_OK_AND_ASSIGN(
      std::vector<std::string> truth,
      BruteForceRelevantSources(fixture.db, q, fixture.db.LatestSnapshot()));
  EXPECT_EQ(truth.size(), 11u);
}

TEST(BruteForceTest, AssignmentBudgetEnforced) {
  PaperExampleDb fixture;
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(fixture.db, "SELECT mach_id FROM activity WHERE value = "
                          "'left-early'"));
  BruteForceOptions tiny;
  tiny.max_assignments = 3;
  auto r = BruteForceRelevantSources(fixture.db, q,
                                     fixture.db.LatestSnapshot(), tiny);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(BruteForceTest, EmptyOtherRelationMeansNothingViaSelf) {
  PaperExampleDb fixture;
  // Delete all routing rows: relevance via activity requires an existing
  // routing tuple, so only routing-side relevance remains.
  TRAC_ASSERT_OK(
      fixture.db.DeleteWhere("routing", [](const Row&) { return true; })
          .status());
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(fixture.db,
              "SELECT r.mach_id FROM routing r, activity a WHERE "
              "r.neighbor = a.mach_id AND a.value = 'idle'"));
  TRAC_ASSERT_OK_AND_ASSIGN(
      std::vector<std::string> truth,
      BruteForceRelevantSources(fixture.db, q, fixture.db.LatestSnapshot()));
  // Via routing: existing activity 'idle' rows exist (m1, m3), so any
  // source could insert a joining routing tuple -> all 11. Via activity:
  // routing is empty -> nothing.
  EXPECT_EQ(truth.size(), 11u);
}

}  // namespace
}  // namespace trac

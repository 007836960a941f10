#include <gtest/gtest.h>

#include "../test_util.h"
#include "monitor/grid.h"
#include "monitor/job_scheduler.h"

namespace trac {
namespace {

using testing_util::Ts;

TEST(SimClockTest, MonotonicAdvance) {
  SimClock clock(Ts("2006-03-15 09:00:00"));
  EXPECT_EQ(clock.now(), Ts("2006-03-15 09:00:00"));
  clock.AdvanceBy(30 * Timestamp::kMicrosPerSecond);
  EXPECT_EQ(clock.now(), Ts("2006-03-15 09:00:30"));
  clock.AdvanceTo(Ts("2006-03-15 08:00:00"));  // Backwards: no-op.
  EXPECT_EQ(clock.now(), Ts("2006-03-15 09:00:30"));
  clock.AdvanceTo(Ts("2006-03-15 10:00:00"));
  EXPECT_EQ(clock.now(), Ts("2006-03-15 10:00:00"));
}

TEST(LogFileTest, AppendAndRead) {
  LogFile log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.last_event_time(), Timestamp());
  LogRecord rec;
  rec.event_time = Ts("2006-03-15 09:00:00");
  rec.op = LogRecord::Op::kHeartbeat;
  log.Append(rec);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.last_event_time(), Ts("2006-03-15 09:00:00"));
}

class GridTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto grid = GridSimulator::Create(&db_);
    ASSERT_TRUE(grid.ok()) << grid.status();
    grid_ = std::make_unique<GridSimulator>(std::move(*grid));
    grid_->clock().AdvanceTo(Ts("2006-03-15 09:00:00"));

    TableSchema schema("events", {ColumnDef("src", TypeId::kString),
                                  ColumnDef("n", TypeId::kInt64)});
    ASSERT_TRUE(schema.SetDataSourceColumn("src").ok());
    ASSERT_TRUE(db_.CreateTable(std::move(schema)).ok());
  }

  size_t CountEvents() {
    auto rs = ExecuteSql(db_, "SELECT COUNT(*) FROM events");
    EXPECT_TRUE(rs.ok());
    return rs.ok() ? static_cast<size_t>(rs->count()) : 0;
  }

  Database db_;
  std::unique_ptr<GridSimulator> grid_;
};

TEST_F(GridTest, AddSourceRegistersHeartbeatImmediately) {
  TRAC_ASSERT_OK(grid_->AddSource("s1").status());
  TRAC_ASSERT_OK_AND_ASSIGN(
      Timestamp ts, grid_->heartbeat().Get("s1", db_.LatestSnapshot()));
  EXPECT_EQ(ts, Ts("2006-03-15 09:00:00"));
  EXPECT_EQ(grid_->AddSource("s1").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_NE(grid_->source("s1"), nullptr);
  EXPECT_NE(grid_->sniffer("s1"), nullptr);
  EXPECT_EQ(grid_->source("zz"), nullptr);
}

TEST_F(GridTest, SnifferShipsRecordsOnPoll) {
  SnifferOptions options;
  options.poll_interval_micros = 10 * Timestamp::kMicrosPerSecond;
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * src, grid_->AddSource("s1", options));
  src->EmitInsert(Ts("2006-03-15 09:00:01"), "events",
                  {Value::Str("s1"), Value::Int(1)});
  src->EmitInsert(Ts("2006-03-15 09:00:02"), "events",
                  {Value::Str("s1"), Value::Int(2)});
  EXPECT_EQ(CountEvents(), 0u);  // Nothing shipped yet.
  TRAC_ASSERT_OK(grid_->RunUntil(Ts("2006-03-15 09:00:30")));
  EXPECT_EQ(CountEvents(), 2u);
  // Heartbeat advanced to the last shipped event.
  TRAC_ASSERT_OK_AND_ASSIGN(
      Timestamp ts, grid_->heartbeat().Get("s1", db_.LatestSnapshot()));
  EXPECT_EQ(ts, Ts("2006-03-15 09:00:02"));
  EXPECT_EQ(grid_->sniffer("s1")->records_shipped(), 2u);
}

TEST_F(GridTest, PausedSnifferShipsNothing) {
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * src, grid_->AddSource("s1"));
  TRAC_ASSERT_OK(grid_->SetPaused("s1", true));
  src->EmitInsert(Ts("2006-03-15 09:00:01"), "events",
                  {Value::Str("s1"), Value::Int(1)});
  TRAC_ASSERT_OK(grid_->RunUntil(Ts("2006-03-15 09:05:00")));
  EXPECT_EQ(CountEvents(), 0u);
  // Resume: the backlog ships.
  TRAC_ASSERT_OK(grid_->SetPaused("s1", false));
  TRAC_ASSERT_OK(grid_->RunUntil(Ts("2006-03-15 09:10:00")));
  EXPECT_EQ(CountEvents(), 1u);
  EXPECT_EQ(grid_->SetPaused("zz", true).code(), StatusCode::kNotFound);
}

TEST_F(GridTest, ShipDelayHoldsRecentRecords) {
  SnifferOptions options;
  options.poll_interval_micros = 10 * Timestamp::kMicrosPerSecond;
  options.ship_delay_micros = 5 * Timestamp::kMicrosPerMinute;
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * src, grid_->AddSource("s1", options));
  src->EmitInsert(Ts("2006-03-15 09:00:01"), "events",
                  {Value::Str("s1"), Value::Int(1)});
  TRAC_ASSERT_OK(grid_->RunUntil(Ts("2006-03-15 09:03:00")));
  EXPECT_EQ(CountEvents(), 0u);  // Still within the transport delay.
  TRAC_ASSERT_OK(grid_->RunUntil(Ts("2006-03-15 09:06:00")));
  EXPECT_EQ(CountEvents(), 1u);
}

TEST_F(GridTest, HeartbeatRecordAdvancesRecencyWithoutData) {
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * src, grid_->AddSource("s1"));
  src->EmitHeartbeat(Ts("2006-03-15 09:02:00"));
  TRAC_ASSERT_OK(grid_->RunUntil(Ts("2006-03-15 09:03:00")));
  EXPECT_EQ(CountEvents(), 0u);
  TRAC_ASSERT_OK_AND_ASSIGN(
      Timestamp ts, grid_->heartbeat().Get("s1", db_.LatestSnapshot()));
  EXPECT_EQ(ts, Ts("2006-03-15 09:02:00"));
}

TEST_F(GridTest, UpsertAndDeleteThroughLog) {
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * src, grid_->AddSource("s1"));
  src->EmitUpsert(Ts("2006-03-15 09:00:01"), "events",
                  {Value::Str("s1"), Value::Int(1)}, {0});
  src->EmitUpsert(Ts("2006-03-15 09:00:02"), "events",
                  {Value::Str("s1"), Value::Int(2)}, {0});
  TRAC_ASSERT_OK(grid_->RunUntil(Ts("2006-03-15 09:01:00")));
  EXPECT_EQ(CountEvents(), 1u);  // Second upsert replaced the first.
  auto rs = ExecuteSql(db_, "SELECT n FROM events");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->Contains({Value::Int(2)}));

  src->EmitDelete(Ts("2006-03-15 09:02:00"), "events",
                  {Value::Str("s1"), Value::Int(2)}, {0});
  TRAC_ASSERT_OK(grid_->RunUntil(Ts("2006-03-15 09:03:00")));
  EXPECT_EQ(CountEvents(), 0u);
}

TEST_F(GridTest, SourceCannotWriteAnotherSourcesTuples) {
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * s1, grid_->AddSource("s1"));
  TRAC_ASSERT_OK(grid_->AddSource("s2").status());
  // s1 emits a row tagged s2: the sniffer refuses it (Section 3.3's
  // "only updates from s can insert or change tuples with s").
  s1->EmitInsert(Ts("2006-03-15 09:00:01"), "events",
                 {Value::Str("s2"), Value::Int(1)});
  EXPECT_FALSE(grid_->RunUntil(Ts("2006-03-15 09:01:00")).ok());
}

TEST_F(GridTest, UpsertNeverTouchesOtherSourcesRows) {
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * s1, grid_->AddSource("s1"));
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * s2, grid_->AddSource("s2"));
  // Both sources upsert with the same key column value n=7; each keeps
  // its own row.
  s1->EmitUpsert(Ts("2006-03-15 09:00:01"), "events",
                 {Value::Str("s1"), Value::Int(7)}, {1});
  s2->EmitUpsert(Ts("2006-03-15 09:00:02"), "events",
                 {Value::Str("s2"), Value::Int(7)}, {1});
  TRAC_ASSERT_OK(grid_->RunUntil(Ts("2006-03-15 09:01:00")));
  EXPECT_EQ(CountEvents(), 2u);
}

TEST_F(GridTest, KeyedUpsertAndDeleteAreOneCommitEach) {
  // With the key column indexed, each replicated upsert or delete is
  // one index-probed commit (a new key's upsert inserts in the same
  // commit that found no match), and the data-source conjunct still
  // keeps another source's row with the same key out of the match.
  TRAC_ASSERT_OK(db_.CreateIndex("events", "n"));
  SnifferOptions slow;
  slow.poll_interval_micros = Timestamp::kMicrosPerHour;
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * s1, grid_->AddSource("s1", slow));
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * s2, grid_->AddSource("s2", slow));
  s2->EmitInsert(Ts("2006-03-15 09:00:01"), "events",
                 {Value::Str("s2"), Value::Int(7)});
  s1->EmitUpsert(Ts("2006-03-15 09:00:01"), "events",
                 {Value::Str("s1"), Value::Int(7)}, {1});
  s1->EmitUpsert(Ts("2006-03-15 09:00:02"), "events",
                 {Value::Str("s1"), Value::Int(7)}, {1});
  s1->EmitDelete(Ts("2006-03-15 09:00:03"), "events",
                 {Value::Str("s1"), Value::Int(7)}, {1});
  s1->EmitUpsert(Ts("2006-03-15 09:00:04"), "events",
                 {Value::Str("s1"), Value::Int(8)}, {1});
  grid_->clock().AdvanceTo(Ts("2006-03-15 09:00:05"));
  const uint64_t before = db_.LatestSnapshot().version;
  TRAC_ASSERT_OK(grid_->PollAll());
  // s1: four records and its heartbeat; s2: one record and its heartbeat.
  EXPECT_EQ(db_.LatestSnapshot().version - before, 7u);
  auto rs = ExecuteSql(db_, "SELECT src, n FROM events");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 2u);
  EXPECT_TRUE(rs->Contains({Value::Str("s2"), Value::Int(7)}));
  EXPECT_TRUE(rs->Contains({Value::Str("s1"), Value::Int(8)}));
}

TEST_F(GridTest, PollsFireInTimestampOrder) {
  SnifferOptions fast;
  fast.poll_interval_micros = 10 * Timestamp::kMicrosPerSecond;
  SnifferOptions slow;
  slow.poll_interval_micros = 45 * Timestamp::kMicrosPerSecond;
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * f, grid_->AddSource("fast", fast));
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * s, grid_->AddSource("slow", slow));
  f->EmitInsert(Ts("2006-03-15 09:00:01"), "events",
                {Value::Str("fast"), Value::Int(1)});
  s->EmitInsert(Ts("2006-03-15 09:00:01"), "events",
                {Value::Str("slow"), Value::Int(1)});
  // At 09:00:20 only the fast source has polled.
  TRAC_ASSERT_OK(grid_->RunUntil(Ts("2006-03-15 09:00:20")));
  EXPECT_EQ(CountEvents(), 1u);
  TRAC_ASSERT_OK(grid_->RunUntil(Ts("2006-03-15 09:01:00")));
  EXPECT_EQ(CountEvents(), 2u);
}

TEST_F(GridTest, PollAllFlushesEverything) {
  SnifferOptions slow;
  slow.poll_interval_micros = Timestamp::kMicrosPerHour;
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * src, grid_->AddSource("s1", slow));
  src->EmitInsert(Ts("2006-03-15 09:00:01"), "events",
                  {Value::Str("s1"), Value::Int(1)});
  grid_->clock().AdvanceTo(Ts("2006-03-15 09:00:05"));
  TRAC_ASSERT_OK(grid_->PollAll());
  EXPECT_EQ(CountEvents(), 1u);
}

TEST(JobSchedulerTest, FourVisibilityStates) {
  // The introduction's scenario, asserted end to end.
  Database db;
  auto grid = GridSimulator::Create(&db);
  ASSERT_TRUE(grid.ok());
  grid->clock().AdvanceTo(Ts("2006-03-15 09:00:00"));
  SnifferOptions fast;
  fast.poll_interval_micros = 30 * Timestamp::kMicrosPerSecond;
  SnifferOptions slow;
  slow.poll_interval_micros = 5 * Timestamp::kMicrosPerMinute;
  auto workload = JobSchedulerWorkload::Setup(&*grid, {"m1", "m2"});
  ASSERT_TRUE(workload.ok()) << workload.status();
  TRAC_ASSERT_OK(grid->SetSnifferOptions("m1", fast));
  TRAC_ASSERT_OK(grid->SetSnifferOptions("m2", slow));

  TRAC_ASSERT_OK(workload->SubmitJob("m1", "j", "m2",
                                     Ts("2006-03-15 09:00:05")));
  TRAC_ASSERT_OK(workload->StartJob("m2", "j", Ts("2006-03-15 09:00:20")));

  auto count = [&](const char* sql) {
    auto rs = ExecuteSql(db, sql);
    EXPECT_TRUE(rs.ok());
    return rs.ok() ? rs->count() : -1;
  };

  // State 1: nothing shipped.
  EXPECT_EQ(count("SELECT COUNT(*) FROM s"), 0);
  EXPECT_EQ(count("SELECT COUNT(*) FROM r"), 0);

  // State 2: m1 shipped (fast), m2 not yet (slow).
  TRAC_ASSERT_OK(grid->RunUntil(Ts("2006-03-15 09:01:00")));
  EXPECT_EQ(count("SELECT COUNT(*) FROM s"), 1);
  EXPECT_EQ(count("SELECT COUNT(*) FROM r"), 0);

  // State 4: everything converged.
  TRAC_ASSERT_OK(grid->RunUntil(Ts("2006-03-15 09:10:00")));
  EXPECT_EQ(count("SELECT COUNT(*) FROM s"), 1);
  EXPECT_EQ(count("SELECT COUNT(*) FROM r"), 1);

  // State 3 (other order): pause m1, run a second job.
  TRAC_ASSERT_OK(grid->SetPaused("m1", true));
  TRAC_ASSERT_OK(workload->SubmitJob("m1", "j2", "m2",
                                     Ts("2006-03-15 09:11:00")));
  TRAC_ASSERT_OK(workload->StartJob("m2", "j2", Ts("2006-03-15 09:11:30")));
  TRAC_ASSERT_OK(grid->RunUntil(Ts("2006-03-15 09:20:00")));
  auto rs = ExecuteSql(
      db, "SELECT COUNT(*) FROM r WHERE job_id = 'j2'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->count(), 1);  // Running...
  auto s_rs = ExecuteSql(
      db, "SELECT COUNT(*) FROM s WHERE job_id = 'j2'");
  ASSERT_TRUE(s_rs.ok());
  EXPECT_EQ(s_rs->count(), 0);  // ...but apparently never submitted.
}

TEST(JobSchedulerTest, ReassignmentUpsertsSchedulerTuple) {
  Database db;
  auto grid = GridSimulator::Create(&db);
  ASSERT_TRUE(grid.ok());
  grid->clock().AdvanceTo(Ts("2006-03-15 09:00:00"));
  auto workload = JobSchedulerWorkload::Setup(&*grid, {"m1", "m2", "m3"});
  ASSERT_TRUE(workload.ok());
  TRAC_ASSERT_OK(workload->SubmitJob("m1", "j", "m2",
                                     Ts("2006-03-15 09:00:05")));
  TRAC_ASSERT_OK(workload->SubmitJob("m1", "j", "m3",
                                     Ts("2006-03-15 09:00:10")));
  TRAC_ASSERT_OK(grid->RunUntil(Ts("2006-03-15 09:01:00")));
  auto rs = ExecuteSql(db, "SELECT remote_machine_id FROM s WHERE "
                           "job_id = 'j'");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_TRUE(rs->Contains({Value::Str("m3")}));
  TRAC_ASSERT_OK(workload->FinishJob("m3", "j", Ts("2006-03-15 09:02:00")));
  EXPECT_FALSE(workload->SubmitJob("zz", "j", "m2", Timestamp()).ok());
  EXPECT_FALSE(workload->StartJob("zz", "j", Timestamp()).ok());
  EXPECT_FALSE(workload->FinishJob("zz", "j", Timestamp()).ok());
}

}  // namespace
}  // namespace trac

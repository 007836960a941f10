// Parallel recency-query execution must be observationally identical to
// serial execution: same relevant sets, same recency timestamps, same
// stats and bound of inconsistency — for every workload query, every
// method, and every parallelism level. The fan-out only changes wall
// time, never results (the tasks read one shared MVCC snapshot).
// Naive and Q2-style reports, whose one part is a pure Heartbeat scan,
// also equal a reference scan of the registry at every snapshot of a
// history, with and without the registry's source_id index.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/recency_reporter.h"
#include "exec/statement.h"
#include "workload/eval_workload.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;
using testing_util::Ts;

RecencyReportOptions OptionsWith(RecencyMethod method, size_t parallelism) {
  RecencyReportOptions options;
  options.method = method;
  options.create_temp_tables = false;
  options.relevance.parallelism = parallelism;
  return options;
}

void ExpectSameReport(const RecencyReport& serial,
                      const RecencyReport& parallel, size_t parallelism) {
  SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
  // The user query result.
  EXPECT_EQ(serial.result.rows, parallel.result.rows);
  // A(Q) with recency timestamps, already sorted by source.
  EXPECT_EQ(serial.relevance.sources, parallel.relevance.sources);
  EXPECT_EQ(serial.relevance.minimal, parallel.relevance.minimal);
  EXPECT_EQ(serial.relevance.fallback_all, parallel.relevance.fallback_all);
  // Normal/exceptional split and the extremes.
  EXPECT_EQ(serial.stats.normal, parallel.stats.normal);
  EXPECT_EQ(serial.stats.exceptional, parallel.stats.exceptional);
  EXPECT_EQ(serial.stats.least_recent.has_value(),
            parallel.stats.least_recent.has_value());
  if (serial.stats.least_recent.has_value() &&
      parallel.stats.least_recent.has_value()) {
    EXPECT_EQ(*serial.stats.least_recent, *parallel.stats.least_recent);
    EXPECT_EQ(*serial.stats.most_recent, *parallel.stats.most_recent);
  }
  EXPECT_EQ(serial.stats.inconsistency_bound_micros,
            parallel.stats.inconsistency_bound_micros);
  // Bookkeeping: the parallel run exposes its fan-out, one task per
  // part at any level.
  EXPECT_EQ(parallel.relevance_parallelism, parallelism);
  EXPECT_EQ(parallel.relevance_task_micros.size(),
            serial.relevance_task_micros.size());
}

class ParallelRelevanceWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EvalWorkloadOptions options;
    options.total_activity_rows = 6400;
    options.num_sources = 256;
    options.num_exceptional_sources = 3;
    TRAC_ASSERT_OK_AND_ASSIGN(workload_,
                              BuildEvalWorkload(&db_, options));
    reporter_ = std::make_unique<RecencyReporter>(&db_, nullptr);
  }

  Database db_;
  EvalWorkload workload_;
  std::unique_ptr<RecencyReporter> reporter_;
};

TEST_F(ParallelRelevanceWorkloadTest, FocusedMatchesSerialOnAllQueries) {
  for (const auto& [name, sql] : workload_.AllQueries()) {
    SCOPED_TRACE(name);
    TRAC_ASSERT_OK_AND_ASSIGN(
        RecencyReport serial,
        reporter_->Run(sql, OptionsWith(RecencyMethod::kFocused, 1)));
    EXPECT_FALSE(serial.relevance.sources.empty()) << name;
    for (size_t parallelism : {2, 4, 8}) {
      TRAC_ASSERT_OK_AND_ASSIGN(
          RecencyReport parallel,
          reporter_->Run(sql,
                         OptionsWith(RecencyMethod::kFocused, parallelism)));
      ExpectSameReport(serial, parallel, parallelism);
    }
  }
}

TEST_F(ParallelRelevanceWorkloadTest, NaiveMatchesSerialOnAllQueries) {
  for (const auto& [name, sql] : workload_.AllQueries()) {
    SCOPED_TRACE(name);
    TRAC_ASSERT_OK_AND_ASSIGN(
        RecencyReport serial,
        reporter_->Run(sql, OptionsWith(RecencyMethod::kNaive, 1)));
    // Naive reports every source.
    EXPECT_EQ(serial.relevance.sources.size(), workload_.sources.size());
    for (size_t parallelism : {2, 4, 8}) {
      TRAC_ASSERT_OK_AND_ASSIGN(
          RecencyReport parallel,
          reporter_->Run(sql,
                         OptionsWith(RecencyMethod::kNaive, parallelism)));
      ExpectSameReport(serial, parallel, parallelism);
      // The Naive plan is one registry walk: one task at any level.
      EXPECT_EQ(parallel.relevance_task_micros.size(), 1u);
    }
  }
}

TEST(ParallelRelevanceTest, PaperExampleIdenticalAtEveryParallelism) {
  PaperExampleDb env;
  RecencyReporter reporter(&env.db, nullptr);
  const std::string sql =
      "SELECT a.mach_id FROM activity a WHERE a.value = 'idle' OR "
      "a.mach_id = 'm2'";
  TRAC_ASSERT_OK_AND_ASSIGN(
      RecencyReport serial,
      reporter.Run(sql, OptionsWith(RecencyMethod::kFocused, 1)));
  for (size_t parallelism : {2, 3, 4, 16}) {
    TRAC_ASSERT_OK_AND_ASSIGN(
        RecencyReport parallel,
        reporter.Run(sql, OptionsWith(RecencyMethod::kFocused, parallelism)));
    ExpectSameReport(serial, parallel, parallelism);
  }
}

TEST(ParallelRelevanceTest, ExecuteRecencyQueriesDirectEquivalence) {
  PaperExampleDb env;
  TRAC_ASSERT_OK_AND_ASSIGN(
      BoundQuery user,
      BindSql(env.db,
              "SELECT r.neighbor FROM routing r, activity a WHERE "
              "r.neighbor = a.mach_id AND a.value = 'idle'"));
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyQueryPlan plan,
                            GenerateRecencyQueries(env.db, user));
  Snapshot snap = env.db.LatestSnapshot();
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyExecution serial,
                            ExecuteRecencyQueriesDetailed(env.db, plan, snap));
  for (size_t parallelism : {2, 4}) {
    RelevanceOptions options;
    options.parallelism = parallelism;
    TRAC_ASSERT_OK_AND_ASSIGN(
        RecencyExecution parallel,
        ExecuteRecencyQueriesDetailed(env.db, plan, snap, options));
    EXPECT_EQ(serial.sources, parallel.sources)
        << "parallelism " << parallelism;
  }
}

/// A grid whose registry gathers history step by step. Parameter:
/// whether the registry has its source_id index (a pure Heartbeat scan
/// then walks it; without it, the scan is planned like any part).
class RegistryScanTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr const char* kQ2 =
      "SELECT COUNT(*) FROM activity a WHERE a.value = 'idle'";

  void SetUp() override {
    for (const char* sql :
         {"CREATE TABLE activity (mach_id TEXT DATA SOURCE, value TEXT, "
          "event_time TIMESTAMP)",
          "INSERT INTO activity VALUES ('m1', 'idle', "
          "'2006-03-11 20:37:46')",
          "INSERT INTO activity VALUES ('m2', 'busy', "
          "'2006-02-10 18:22:01')"}) {
      TRAC_ASSERT_OK(ExecuteStatement(&db_, sql).status());
    }
    if (GetParam()) {
      TRAC_ASSERT_OK(HeartbeatTable::Create(&db_).status());
    } else {
      TRAC_ASSERT_OK(ExecuteStatement(&db_,
                                      "CREATE TABLE heartbeat (source_id "
                                      "TEXT, recency_timestamp TIMESTAMP)")
                         .status());
    }
    TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable hb, HeartbeatTable::Open(&db_));
    heartbeat_ = std::make_unique<HeartbeatTable>(hb);
  }

  /// Every visible registry row at `snap`, folded in version order: the
  /// first row of a source wins, NULL sources are skipped and a NULL
  /// recency reads as the epoch.
  std::vector<SourceRecency> ReferenceScan(Snapshot snap) const {
    std::map<std::string, Timestamp> first;
    db_.GetTable(*db_.FindTable("heartbeat"))
        ->Scan(snap, [&](size_t, const Row& row) {
          if (row[0].is_null()) return;
          first.emplace(row[0].str_val(),
                        row[1].is_null() ? Timestamp() : row[1].ts_val());
        });
    std::vector<SourceRecency> out;
    for (const auto& [source, ts] : first) out.push_back({source, ts});
    return out;
  }

  /// Runs the Naive and the Focused Q2 report at parallelism 1 and 4 and
  /// checks each against the reference scan at the report's snapshot.
  void ExpectReportsMatchReference() {
    RecencyReporter reporter(&db_, nullptr);
    for (const RecencyMethod method :
         {RecencyMethod::kNaive, RecencyMethod::kFocused}) {
      for (const size_t parallelism : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE("method " + std::to_string(static_cast<int>(method)) +
                     " parallelism " + std::to_string(parallelism));
        TRAC_ASSERT_OK_AND_ASSIGN(
            RecencyReport report,
            reporter.Run(kQ2, OptionsWith(method, parallelism)));
        EXPECT_EQ(report.relevance.sources, ReferenceScan(report.snapshot));
        EXPECT_EQ(report.relevance_task_micros.size(), 1u);
      }
    }
  }

  Database db_;
  std::unique_ptr<HeartbeatTable> heartbeat_;
};

INSTANTIATE_TEST_SUITE_P(Registry, RegistryScanTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Indexed" : "Unindexed";
                         });

TEST_P(RegistryScanTest, ReportsMatchReferenceScanAtEverySnapshot) {
  // Q2's one part reads the whole registry, like the Naive plan's.
  TRAC_ASSERT_OK_AND_ASSIGN(BoundQuery q2, BindSql(db_, kQ2));
  TRAC_ASSERT_OK_AND_ASSIGN(RecencyQueryPlan plan,
                            GenerateRecencyQueries(db_, q2));
  ASSERT_EQ(plan.parts.size(), 1u);
  EXPECT_EQ(plan.parts[0].query.where, nullptr);
  EXPECT_TRUE(plan.parts[0].guards.empty());

  ASSERT_NO_FATAL_FAILURE(ExpectReportsMatchReference());  // Empty.
  const Timestamp t = Ts("2006-03-15 14:20:05");
  // Three rounds of upserts over 50 sources leave two dead versions per
  // source.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      TRAC_ASSERT_OK(heartbeat_->SetRecency(
          "m" + std::to_string((i * 11) % 50),
          t + (round * 100 + i) * Timestamp::kMicrosPerSecond));
    }
    ASSERT_NO_FATAL_FAILURE(ExpectReportsMatchReference());
  }
  // A second visible row for m7 from SQL: m7's first version still wins.
  TRAC_ASSERT_OK(ExecuteStatement(&db_,
                                  "INSERT INTO heartbeat VALUES ('m7', "
                                  "'2006-01-01 00:00:00')")
                     .status());
  ASSERT_NO_FATAL_FAILURE(ExpectReportsMatchReference());
  {
    RecencyReporter reporter(&db_, nullptr);
    TRAC_ASSERT_OK_AND_ASSIGN(
        RecencyReport report,
        reporter.Run(kQ2, OptionsWith(RecencyMethod::kNaive, 4)));
    ASSERT_EQ(report.relevance.sources.size(), 50u);
    bool found = false;
    for (const SourceRecency& s : report.relevance.sources) {
      if (s.source != "m7") continue;
      found = true;
      EXPECT_GT(s.recency, t);
    }
    EXPECT_TRUE(found);
  }
  // NULL-source and NULL-recency rows.
  for (const char* sql : {"INSERT INTO heartbeat VALUES (NULL, "
                          "'2006-03-15 14:20:05')",
                          "INSERT INTO heartbeat VALUES ('m50', NULL)",
                          "INSERT INTO heartbeat VALUES (NULL, NULL)"}) {
    TRAC_ASSERT_OK(ExecuteStatement(&db_, sql).status());
    ASSERT_NO_FATAL_FAILURE(ExpectReportsMatchReference());
  }
  // An upsert of m7 now rewrites both of its rows.
  TRAC_ASSERT_OK(heartbeat_->SetRecency("m7", t + Timestamp::kMicrosPerDay));
  ASSERT_NO_FATAL_FAILURE(ExpectReportsMatchReference());
}

}  // namespace
}  // namespace trac

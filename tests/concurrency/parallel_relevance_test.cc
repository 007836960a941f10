// Parallel recency-query execution must be observationally identical to
// serial execution: same relevant sets, same recency timestamps, same
// stats and bound of inconsistency — for every workload query, every
// method, and every parallelism level. The fan-out only changes wall
// time, never results (the tasks read one shared MVCC snapshot).

#include <memory>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/recency_reporter.h"
#include "workload/eval_workload.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;

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
  // Bookkeeping: the parallel run exposes its fan-out.
  EXPECT_EQ(parallel.relevance_parallelism, parallelism);
  EXPECT_GE(parallel.relevance_task_micros.size(),
            serial.relevance_task_micros.size());
}

class ParallelRelevanceWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 256 sources: enough Heartbeat rows that the pure-scan sharding
    // (floor: 64 rows per shard) actually fans out the Naive plan.
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
      // The pure Heartbeat scan is sharded: with 256 sources there is
      // real fan-out, not a single task.
      EXPECT_GT(parallel.relevance_task_micros.size(), 1u);
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

}  // namespace
}  // namespace trac

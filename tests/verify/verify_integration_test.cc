// End-to-end wiring check for the plan verifier: every plan the public
// entry points build, PlanQuery's and each report session's, must pass
// VerifyPlan / VerifyIr with zero findings. A release build verifies
// nothing on its own, so these tests call the verifier on the plans the
// library builds and then run the reports. In the `debug` preset
// (TRAC_DEBUG_INVARIANTS) the report verifies its session and
// ExecutePlan each plan, and a failure aborts at the TRAC_DCHECK site.

#include <string>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/recency_reporter.h"
#include "exec/planner.h"
#include "expr/binder.h"
#include "verify/verifier.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;

const char* const kUserQueries[] = {
    // Point lookup (the paper's Q1 shape).
    "SELECT mach_id FROM activity WHERE mach_id = 'm1' AND value = 'idle'",
    // Full scan with a regular-column predicate.
    "SELECT mach_id FROM activity WHERE value = 'busy'",
    // Join of two monitored tables.
    "SELECT a.mach_id FROM activity a, routing r "
    "WHERE a.mach_id = r.mach_id AND a.value = 'idle'",
    // Disjunction across relations (exercises guarded parts).
    "SELECT a.mach_id FROM activity a, routing r "
    "WHERE (a.mach_id = 'm1' AND a.value = 'idle') OR r.neighbor = 'm3'",
    // Aggregate over a regular column.
    "SELECT COUNT(*) FROM activity WHERE value = 'idle'",
};

TEST(VerifyIntegrationTest, PlanQueryVerifiesEveryPlanItReturns) {
  PaperExampleDb fx;
  const Snapshot snapshot = fx.db.LatestSnapshot();
  for (const char* sql : kUserQueries) {
    SCOPED_TRACE(sql);
    auto query = BindSql(fx.db, sql);
    ASSERT_TRUE(query.ok()) << query.status();
    auto plan = PlanQuery(fx.db, *query, snapshot);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const Status verified = VerifyPlan(fx.db, *query, *plan, snapshot);
    EXPECT_TRUE(verified.ok()) << verified;
  }
}

/// Plans and lowers the session a report of `sql` runs (`method`,
/// writing temp tables as session `session_id`), expects
/// VerifyIr to pass it, then runs the report itself.
void ExpectReportSessionVerifies(const Database& db, RecencyReporter* reporter,
                                 const std::string& sql,
                                 const RecencyReportOptions& options,
                                 uint64_t session_id) {
  auto query = BindSql(db, sql);
  ASSERT_TRUE(query.ok()) << query.status();
  auto plan = options.method == RecencyMethod::kNaive
                  ? GenerateNaivePlan(db, options.relevance)
                  : GenerateRecencyQueries(db, *query, options.relevance);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const Snapshot snapshot = db.LatestSnapshot();
  auto session = PlanReportSession(db, *query, *plan, snapshot);
  ASSERT_TRUE(session.ok()) << session.status();
  // The whole session IR: user plan, parts, guards and temp writes.
  SessionLayout layout;
  const PlanIr ir = LowerReportSessionPlans(
      db, *query, *plan, *session, snapshot, options.relevance.heartbeat_table,
      session_id, &layout);
  const VerifyReport verified = VerifyIr(ir);
  EXPECT_TRUE(verified.ok()) << verified.Format(ir);
  auto report = reporter->Run(sql, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->normal_temp_table.empty());
}

TEST(VerifyIntegrationTest, ReporterSessionsVerifyAtAllParallelismLevels) {
  for (const size_t parallelism : {size_t{1}, size_t{4}}) {
    PaperExampleDb fx;
    Session session(&fx.db);
    RecencyReporter reporter(&fx.db, &session);
    RecencyReportOptions options;
    options.relevance.parallelism = parallelism;
    for (const char* sql : kUserQueries) {
      SCOPED_TRACE(sql);
      ExpectReportSessionVerifies(fx.db, &reporter, sql, options,
                                  session.id());
    }
  }
}

TEST(VerifyIntegrationTest, NaiveMethodSessionsVerifyToo) {
  PaperExampleDb fx;
  Session session(&fx.db);
  RecencyReporter reporter(&fx.db, &session);
  RecencyReportOptions options;
  options.method = RecencyMethod::kNaive;
  ExpectReportSessionVerifies(fx.db, &reporter, "SELECT mach_id FROM activity",
                              options, session.id());
}

}  // namespace
}  // namespace trac

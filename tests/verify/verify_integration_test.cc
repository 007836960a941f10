// End-to-end wiring check for the plan verifier: every query planned or
// executed through the public entry points must pass VerifyPlan / the
// reporter's session gate with zero findings. In release builds a
// verification failure surfaces as an error Status from PlanQuery or
// RecencyReporter::Run — which these assertions would catch; compiled
// with TRAC_DEBUG_INVARIANTS=1 (see tests/CMakeLists.txt) the same
// failure aborts at the TRAC_DCHECK site, pinpointing the pass.

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
    // PlanQuery runs VerifyPlan internally and refuses to return a plan
    // that fails it; a clean Result is the wiring proof.
    auto plan = PlanQuery(fx.db, *query, snapshot);
    ASSERT_TRUE(plan.ok()) << plan.status();
    // Belt and braces: re-verify the returned plan through the public
    // verifier entry point.
    EXPECT_TRUE(VerifyPlan(fx.db, *query, *plan, snapshot).ok());
  }
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
      // RecencyReporter::Run verifies the whole session IR (user plan,
      // parts, guards, shard fan-out, temp writes) before executing
      // anything; any TRAC-V finding turns into an error Status here.
      auto report = reporter.Run(sql, options);
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_FALSE(report->normal_temp_table.empty());
    }
  }
}

TEST(VerifyIntegrationTest, NaiveMethodSessionsVerifyToo) {
  PaperExampleDb fx;
  Session session(&fx.db);
  RecencyReporter reporter(&fx.db, &session);
  RecencyReportOptions options;
  options.method = RecencyMethod::kNaive;
  auto report = reporter.Run("SELECT mach_id FROM activity", options);
  ASSERT_TRUE(report.ok()) << report.status();
}

}  // namespace
}  // namespace trac

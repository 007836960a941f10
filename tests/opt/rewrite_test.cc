// Unit tests for the cost-based rewriter (opt/rewrite.h): the range-scan
// rule fires only on plans it improves, and every attempt is recorded in
// the plan's rewrite trail. Under TRAC_DEBUG_INVARIANTS every attempt also
// checks that the rewrite leaves the lowered IR unchanged.

#include "opt/rewrite.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/planner.h"
#include "exec/statement.h"
#include "expr/binder.h"
#include "storage/database.h"

namespace trac {
namespace {

class RewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE activity (mach_id TEXT DATA SOURCE, value TEXT, "
         "event_time TIMESTAMP)");
    Exec("CREATE TABLE routing (mach_id TEXT DATA SOURCE, neighbor TEXT)");
    Exec("CREATE INDEX ON activity (value)");
    for (int i = 0; i < 32; ++i) {
      const std::string id = "m" + std::to_string(100 + i);
      Exec("INSERT INTO activity VALUES ('" + id + "', 'v" +
           std::to_string(100 + i) + "', '2006-03-15 14:00:00')");
      Exec("INSERT INTO routing VALUES ('" + id + "', 'n1')");
    }
  }

  void TearDown() override {
    // Leave the process-wide toggle the way other tests expect it.
    opt::SetOptimizerEnabled(true);
  }

  void Exec(const std::string& sql) {
    auto result = ExecuteStatement(&db_, sql);
    ASSERT_TRUE(result.ok()) << result.status() << "\n" << sql;
  }

  QueryPlan Plan(const std::string& sql) {
    auto query = BindSql(db_, sql);
    EXPECT_TRUE(query.ok()) << query.status();
    auto plan = PlanQuery(db_, *query, db_.LatestSnapshot());
    EXPECT_TRUE(plan.ok()) << plan.status();
    return std::move(*plan);
  }

  static const PlanRewrite* FindRule(const QueryPlan& plan,
                                     const std::string& rule) {
    for (const PlanRewrite& r : plan.rewrites) {
      if (r.rule == rule) return &r;
    }
    return nullptr;
  }

  Database db_;
};

TEST_F(RewriteTest, DisabledOptimizerLeavesNoTrail) {
  opt::SetOptimizerEnabled(false);
  const QueryPlan plan =
      Plan("SELECT value FROM activity WHERE value = 'v100' AND "
           "value = 'v100'");
  EXPECT_TRUE(plan.rewrites.empty());
  ASSERT_EQ(plan.levels.size(), 1u);
  EXPECT_EQ(plan.levels[0].local_preds.size(), 2u);
}

TEST_F(RewriteTest, RangeConjunctConvertsToRangeScan) {
  // Aggregate-only output, so the order-changing rule may fire; the
  // range conjunct over the indexed `value` column selects a fraction
  // of the table, which the cost model must price below a full scan.
  const QueryPlan plan =
      Plan("SELECT COUNT(*) FROM activity WHERE value >= 'v125'");
  const PlanRewrite* r = FindRule(plan, "convert-to-range-scan");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->applied) << r->verdict;
  ASSERT_EQ(plan.levels.size(), 1u);
  EXPECT_TRUE(plan.levels[0].use_range_index);
  // The supplying predicate stays in local_preds: the access path only
  // narrows the walk, the filter semantics are unchanged.
  EXPECT_EQ(plan.levels[0].local_preds.size(), 1u);
}

TEST_F(RewriteTest, OrderSensitiveOutputBlocksRangeScan) {
  // Same shape without the aggregate fold: row order is observable, so
  // the rule must not fire and the plan keeps the sequential scan.
  const QueryPlan plan =
      Plan("SELECT value FROM activity WHERE value >= 'v125'");
  EXPECT_EQ(FindRule(plan, "convert-to-range-scan"), nullptr);
  ASSERT_EQ(plan.levels.size(), 1u);
  EXPECT_FALSE(plan.levels[0].use_range_index);
}

}  // namespace
}  // namespace trac

// Randomized executor correctness: every generated SPJ query is
// evaluated twice — once by the planner/executor (index scans, hash
// joins, index nested-loop joins, early exits) and once by a tiny
// reference oracle that materializes the cross product and filters with
// EvalPredicate. The results must match as multisets.

#include <algorithm>
#include <functional>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/random.h"
#include "expr/evaluator.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;

/// Reference evaluation: nested loops over the cross product, no
/// planning, no indexes.
Result<std::vector<Row>> ReferenceExecute(const Database& db,
                                          const BoundQuery& q,
                                          Snapshot snap) {
  std::vector<std::vector<const Row*>> rows(q.relations.size());
  for (size_t r = 0; r < q.relations.size(); ++r) {
    const Table* table = db.GetTable(q.relations[r].table_id);
    table->Scan(snap, [&](size_t vidx, const Row&) {
      rows[r].push_back(&table->version(vidx).values);
    });
  }
  std::vector<Row> out;
  int64_t count = 0;
  std::vector<const Row*> tuple(q.relations.size(), nullptr);
  std::function<Status(size_t)> rec = [&](size_t depth) -> Status {
    if (depth == q.relations.size()) {
      bool keep = true;
      if (q.where != nullptr) {
        TRAC_ASSIGN_OR_RETURN(TriBool v, EvalPredicate(*q.where, tuple));
        keep = IsTrue(v);
      }
      if (!keep) return Status::OK();
      if (q.count_star) {
        ++count;
        return Status::OK();
      }
      Row projected;
      for (const auto& oc : q.outputs) {
        projected.push_back((*tuple[oc.ref.rel])[oc.ref.col]);
      }
      out.push_back(std::move(projected));
      return Status::OK();
    }
    for (const Row* row : rows[depth]) {
      tuple[depth] = row;
      TRAC_RETURN_IF_ERROR(rec(depth + 1));
    }
    tuple[depth] = nullptr;
    return Status::OK();
  };
  TRAC_RETURN_IF_ERROR(rec(0));
  if (q.count_star) return std::vector<Row>{{Value::Int(count)}};
  if (q.distinct) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

class ExecutorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorPropertyTest, MatchesReferenceOracle) {
  PaperExampleDb fixture(/*finite_domains=*/false);
  Random rng(GetParam());

  // Add some rows with NULLs and duplicates to stress 3VL and DISTINCT.
  TRAC_ASSERT_OK(fixture.db.Insert(
      "activity", {Value::Str("m4"), Value::Null(), Value::Null()}));
  TRAC_ASSERT_OK(fixture.db.Insert(
      "activity",
      {Value::Str("m1"), Value::Str("idle"),
       Value::Ts(Timestamp::FromSeconds(1142432405))}));
  TRAC_ASSERT_OK(fixture.db.Insert(
      "routing", {Value::Str("m5"), Value::Null(), Value::Null()}));

  auto machine = [&]() {
    return "'m" + std::to_string(1 + rng.Uniform(6)) + "'";
  };
  auto atom = [&](bool join) -> std::string {
    if (join) {
      switch (rng.Uniform(7)) {
        case 0:
          return "r.mach_id = " + machine();
        case 1:
          return "a.value = 'idle'";
        case 2:
          return "r.neighbor = a.mach_id";
        case 3:
          return "r.mach_id = a.mach_id";
        case 4:
          return "a.value IS NULL";
        case 5:
          return "r.neighbor <> a.mach_id";
        default:
          return "a.mach_id IN (" + machine() + ", " + machine() + ")";
      }
    }
    switch (rng.Uniform(8)) {
      case 0:
        return "mach_id = " + machine();
      case 1:
        return "value = 'idle'";
      case 2:
        return "value IS NOT NULL";
      case 3:
        return "mach_id IN (" + machine() + ", " + machine() + ")";
      case 4:
        return "mach_id NOT IN (" + machine() + ")";
      case 5:
        return "mach_id BETWEEN 'm1' AND 'm4'";
      case 6:  // Inverted: an empty range with rows inside it.
        return "mach_id BETWEEN 'm4' AND 'm1'";
      default:
        return "mach_id > " + machine();
    }
  };
  std::function<std::string(bool, int)> pred = [&](bool join,
                                                   int depth) -> std::string {
    int pick = depth >= 2 ? 0 : static_cast<int>(rng.Uniform(4));
    switch (pick) {
      case 1:
        return "(" + pred(join, depth + 1) + " AND " + pred(join, depth + 1) +
               ")";
      case 2:
        return "(" + pred(join, depth + 1) + " OR " + pred(join, depth + 1) +
               ")";
      case 3:
        return "NOT (" + pred(join, depth + 1) + ")";
      default:
        return atom(join);
    }
  };

  for (int round = 0; round < 40; ++round) {
    bool join = rng.Bernoulli(0.5);
    bool count = rng.Bernoulli(0.3);
    bool distinct = !count && rng.Bernoulli(0.3);
    std::string select =
        count ? "COUNT(*)"
              : (join ? "r.mach_id, a.value" : "mach_id");
    std::string sql = std::string("SELECT ") +
                      (distinct ? "DISTINCT " : "") + select + " FROM " +
                      (join ? "routing r, activity a" : "activity") +
                      " WHERE " + pred(join, 0);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " sql=" + sql);

    auto bound = BindSql(fixture.db, sql);
    ASSERT_TRUE(bound.ok()) << bound.status();
    Snapshot snap = fixture.db.LatestSnapshot();

    auto fast = ExecuteQuery(fixture.db, *bound, snap);
    ASSERT_TRUE(fast.ok()) << fast.status();
    auto reference = ReferenceExecute(fixture.db, *bound, snap);
    ASSERT_TRUE(reference.ok()) << reference.status();

    std::vector<Row> got = fast->rows;
    std::vector<Row> want = *reference;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST_P(ExecutorPropertyTest, LimitIsAPrefixOfTheFullResult) {
  PaperExampleDb fixture(/*finite_domains=*/false);
  Random rng(GetParam() * 13 + 5);
  for (int round = 0; round < 10; ++round) {
    std::string sql = "SELECT mach_id FROM activity WHERE mach_id <> 'm" +
                      std::to_string(1 + rng.Uniform(4)) + "'";
    auto bound = BindSql(fixture.db, sql);
    ASSERT_TRUE(bound.ok());
    Snapshot snap = fixture.db.LatestSnapshot();
    auto full = ExecuteQuery(fixture.db, *bound, snap);
    ASSERT_TRUE(full.ok());
    auto plan = PlanQuery(fixture.db, *bound, snap);
    ASSERT_TRUE(plan.ok());
    for (size_t limit = 1; limit <= full->num_rows() + 1; ++limit) {
      auto limited = ExecutePlan(fixture.db, *bound, *plan, snap, limit);
      ASSERT_TRUE(limited.ok());
      EXPECT_EQ(limited->num_rows(),
                std::min(limit, full->num_rows()));
    }
    auto exists = QueryHasResults(fixture.db, *bound, snap);
    ASSERT_TRUE(exists.ok());
    EXPECT_EQ(*exists, full->num_rows() > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Values(3, 5, 7, 9, 11, 13));

}  // namespace
}  // namespace trac

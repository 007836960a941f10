#include "opt/rewrite.h"

#include <atomic>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/dcheck.h"
#include "ir/lower.h"
#include "opt/cost.h"
#include "telemetry/metrics.h"

namespace trac {
namespace opt {

namespace {

std::atomic<bool> g_optimizer_enabled{true};

/// A candidate must clear this margin so estimate noise (and exact ties
/// on tiny tables) keeps the incumbent.
constexpr double kStrictImprovement = 0.99;

/// Row order reaching the output is unobservable only when the query
/// folds everything into aggregates; the range-scan rule, which changes
/// row order, gates on this so report bytes stay identical with the
/// optimizer on and off.
bool OrderInsensitiveOutput(const BoundQuery& query) {
  return query.count_star || !query.aggregates.empty();
}

struct Counters {
  Counter* attempted;
  Counter* applied;
};

Counters& OptCounters() {
  static Counters counters{
      MetricRegistry::Default().GetCounter(
          "trac_opt_rewrites_attempted",
          "Optimizer rewrite candidates costed against the incumbent plan"),
      MetricRegistry::Default().GetCounter(
          "trac_opt_rewrites_applied",
          "Optimizer rewrites that won on cost"),
  };
  return counters;
}

/// Shared application discipline: compare costs, keep the incumbent on
/// any doubt, and record every attempt. A candidate never changes the
/// lowered IR (checked under TRAC_DEBUG_INVARIANTS), so no equivalence
/// proof is needed to apply it.
class RewriteSession {
 public:
  RewriteSession(const Database& db, const BoundQuery& query,
                 Snapshot snapshot, QueryPlan* plan)
      : db_(db), query_(query), snapshot_(snapshot), plan_(plan) {
    current_cost_ = PlanCost(db_, query_, *plan_);
  }

  /// Replaces `*plan` with `cand` if it wins on cost.
  void Attempt(const char* rule, std::string detail, QueryPlan cand) {
    OptCounters().attempted->Increment();
    PlanRewrite log;
    log.rule = rule;
    log.detail = std::move(detail);
    log.cost_before = current_cost_;
    cand.rewrites.clear();
    log.cost_after = PlanCost(db_, query_, cand);
    TRAC_DCHECK(LowerQueryPlan(db_, query_, *plan_, snapshot_).Dump() ==
                    LowerQueryPlan(db_, query_, cand, snapshot_).Dump(),
                "a rewrite changed the lowered plan IR");

    if (!(log.cost_after < current_cost_ * kStrictImprovement)) {
      log.verdict = "not cheaper";
      plan_->rewrites.push_back(std::move(log));
      return;
    }
    OptCounters().applied->Increment();
    log.verdict = "applied";
    log.applied = true;
    current_cost_ = log.cost_after;
    std::vector<PlanRewrite> trail = std::move(plan_->rewrites);
    trail.push_back(std::move(log));
    *plan_ = std::move(cand);
    plan_->rewrites = std::move(trail);
  }

 private:
  const Database& db_;
  const BoundQuery& query_;
  Snapshot snapshot_;
  QueryPlan* plan_;
  double current_cost_ = 0;
};

// ---------------------------------------------------------------------------
// Rule: convert-to-range-scan. Lowering ignores `use_range_index` (the
// supplying conjunct stays in local_preds and is re-checked per row), so
// the lowered IR does not change.

struct RangeBounds {
  std::optional<Value> lo;
  std::optional<Value> hi;
  bool lo_inclusive = false;
  bool hi_inclusive = false;
};

/// Matches one range conjunct (`col op literal`, `literal op col`, or
/// `col BETWEEN lo AND hi`) on relation `rel`.
bool RangePredOn(const BoundExpr& e, size_t rel, size_t* column,
                 RangeBounds* bounds) {
  if (e.kind == ExprKind::kCompare &&
      (e.op == CompareOp::kLt || e.op == CompareOp::kLe ||
       e.op == CompareOp::kGt || e.op == CompareOp::kGe)) {
    const BoundExpr* col = nullptr;
    const BoundExpr* lit = nullptr;
    CompareOp op = e.op;
    if (e.children[0]->kind == ExprKind::kColumnRef &&
        e.children[1]->kind == ExprKind::kLiteral) {
      col = e.children[0].get();
      lit = e.children[1].get();
    } else if (e.children[1]->kind == ExprKind::kColumnRef &&
               e.children[0]->kind == ExprKind::kLiteral) {
      col = e.children[1].get();
      lit = e.children[0].get();
      op = FlipCompareOp(op);
    } else {
      return false;
    }
    if (col->column.rel != rel || lit->literal.is_null()) return false;
    *column = col->column.col;
    *bounds = RangeBounds{};
    if (op == CompareOp::kGt || op == CompareOp::kGe) {
      bounds->lo = lit->literal;
      bounds->lo_inclusive = op == CompareOp::kGe;
    } else {
      bounds->hi = lit->literal;
      bounds->hi_inclusive = op == CompareOp::kLe;
    }
    return true;
  }
  if (e.kind == ExprKind::kBetween && !e.negated &&
      e.children[0]->kind == ExprKind::kColumnRef &&
      e.children[0]->column.rel == rel &&
      e.children[1]->kind == ExprKind::kLiteral &&
      e.children[2]->kind == ExprKind::kLiteral &&
      !e.children[1]->literal.is_null() && !e.children[2]->literal.is_null()) {
    *column = e.children[0]->column.col;
    *bounds = RangeBounds{};
    bounds->lo = e.children[1]->literal;
    bounds->lo_inclusive = true;
    bounds->hi = e.children[2]->literal;
    bounds->hi_inclusive = true;
    return true;
  }
  return false;
}

/// Conjunctive tightening: both bounds come from real conjuncts, so the
/// stricter one can only exclude rows some conjunct rejects anyway.
void TightenBounds(RangeBounds* acc, const RangeBounds& b) {
  if (b.lo.has_value() &&
      (!acc->lo.has_value() || *acc->lo < *b.lo ||
       (!(*b.lo < *acc->lo) && acc->lo_inclusive && !b.lo_inclusive))) {
    acc->lo = b.lo;
    acc->lo_inclusive = b.lo_inclusive;
  }
  if (b.hi.has_value() &&
      (!acc->hi.has_value() || *b.hi < *acc->hi ||
       (!(*acc->hi < *b.hi) && acc->hi_inclusive && !b.hi_inclusive))) {
    acc->hi = b.hi;
    acc->hi_inclusive = b.hi_inclusive;
  }
}

void RuleConvertToRangeScan(const Database& db, const BoundQuery& query,
                            RewriteSession* session, QueryPlan* plan) {
  if (!OrderInsensitiveOutput(query)) return;
  for (size_t i = 0; i < plan->levels.size(); ++i) {
    const LevelPlan& level = plan->levels[i];
    if (level.use_local_index || level.use_range_index) continue;
    const Table* table = db.GetTable(query.relations[level.relation].table_id);

    // First indexed column with a range conjunct wins; further range
    // conjuncts on the same column tighten the bounds.
    size_t range_column = 0;
    RangeBounds bounds;
    bool found = false;
    for (const BoundExpr* p : level.local_preds) {
      size_t column;
      RangeBounds b;
      if (!RangePredOn(*p, level.relation, &column, &b)) continue;
      if (!found) {
        if (table->GetIndex(column) == nullptr) continue;
        range_column = column;
        bounds = b;
        found = true;
      } else if (column == range_column) {
        TightenBounds(&bounds, b);
      }
    }
    if (!found) continue;

    QueryPlan cand = *plan;
    LevelPlan& target = cand.levels[i];
    target.use_range_index = true;
    target.index_column = range_column;
    target.range_lo = bounds.lo;
    target.range_hi = bounds.hi;
    target.range_lo_inclusive = bounds.lo_inclusive;
    target.range_hi_inclusive = bounds.hi_inclusive;

    const TableSchema& schema =
        db.catalog().schema(query.relations[level.relation].table_id);
    session->Attempt("convert-to-range-scan",
                     "level " + std::to_string(i) + ": range scan on " +
                         query.relations[level.relation].display_name + "." +
                         schema.column(range_column).name,
                     std::move(cand));
  }
}

}  // namespace

bool OptimizerEnabled() {
  return g_optimizer_enabled.load(std::memory_order_relaxed);
}

void SetOptimizerEnabled(bool enabled) {
  g_optimizer_enabled.store(enabled, std::memory_order_relaxed);
}

void OptimizePlan(const Database& db, const BoundQuery& query,
                  Snapshot snapshot, QueryPlan* plan) {
  if (!OptimizerEnabled()) return;
  RewriteSession session(db, query, snapshot, plan);
  RuleConvertToRangeScan(db, query, &session, plan);
}

}  // namespace opt
}  // namespace trac

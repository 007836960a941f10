#include "opt/rewrite.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ir/lower.h"
#include "opt/cost.h"
#include "opt/plan_build.h"
#include "telemetry/metrics.h"
#include "verify/equiv.h"

namespace trac {
namespace opt {

namespace {

std::atomic<bool> g_optimizer_enabled{true};
std::atomic<bool> g_force_witness_failure{false};

/// Cost-motivated rules must clear this margin so estimate noise (and
/// exact ties on tiny tables) keeps the incumbent — which is what pins
/// the existing plan goldens byte-for-byte.
constexpr double kStrictImprovement = 0.99;

constexpr size_t kMaxReorderRelations = 4;

/// Row order reaching the output is unobservable only when the query
/// folds everything into aggregates; every order-changing rule gates on
/// this so report bytes stay identical with the optimizer on and off.
bool OrderInsensitiveOutput(const BoundQuery& query) {
  return query.count_star || !query.aggregates.empty();
}

/// Deterministic corruption for TestOnlyForceWitnessFailure: flip a
/// fingerprint (V009), else move a scan to a new epoch (V011), else
/// flip an output provenance class (V010).
void CorruptWitness(PlanIr* after) {
  for (IrNode& n : after->nodes) {
    if (n.kind == IrNodeKind::kFilter && n.has_pred) {
      n.pred_fingerprint ^= 1;
      return;
    }
  }
  for (IrNode& n : after->nodes) {
    if (n.kind == IrNodeKind::kScan) {
      n.snapshot += 1;
      return;
    }
  }
  if (!after->nodes.empty() && !after->nodes.back().columns.empty()) {
    IrColumn& c = after->nodes.back().columns[0];
    c.provenance = c.provenance == ColumnProvenance::kDataSource
                       ? ColumnProvenance::kRegular
                       : ColumnProvenance::kDataSource;
  }
}

struct WitnessVerdict {
  bool ok = false;
  std::string reject_code;  ///< "TRAC-Vnnn" of the first finding.
};

WitnessVerdict ValidateWitness(const Database& db, const BoundQuery& query,
                               Snapshot snapshot, const QueryPlan& before,
                               const QueryPlan& after) {
  const PlanIr before_ir = LowerQueryPlan(db, query, before, snapshot);
  PlanIr after_ir = LowerQueryPlan(db, query, after, snapshot);
  if (g_force_witness_failure.load(std::memory_order_relaxed)) {
    CorruptWitness(&after_ir);
  }
  const VerifyReport report = CheckIrEquivalence(before_ir, after_ir);
  WitnessVerdict verdict;
  verdict.ok = report.ok();
  if (!report.ok()) {
    verdict.reject_code = std::string(VerifyCodeId(report.diagnostics[0].code));
  }
  return verdict;
}

struct Counters {
  Counter* attempted;
  Counter* applied;
  Counter* rejected;
};

Counters& OptCounters() {
  static Counters counters{
      MetricRegistry::Default().GetCounter(
          "trac_opt_rewrites_attempted",
          "Optimizer rewrite candidates submitted for translation "
          "validation"),
      MetricRegistry::Default().GetCounter(
          "trac_opt_rewrites_applied",
          "Optimizer rewrites whose witness verified and that won on cost"),
      MetricRegistry::Default().GetCounter(
          "trac_opt_rewrites_rejected",
          "Optimizer rewrites discarded because the equivalence witness "
          "failed verification"),
  };
  return counters;
}

/// Shared application discipline: validate the witness, compare costs,
/// keep the incumbent on any doubt. Returns true when `cand` replaced
/// `*plan`.
class RewriteSession {
 public:
  RewriteSession(const Database& db, const BoundQuery& query,
                 Snapshot snapshot, QueryPlan* plan)
      : db_(db), query_(query), snapshot_(snapshot), plan_(plan) {
    current_cost_ = PlanCost(db_, query_, *plan_);
  }

  double current_cost() const { return current_cost_; }

  bool Attempt(const char* rule, std::string detail, QueryPlan cand,
               bool require_strictly_cheaper) {
    OptCounters().attempted->Increment();
    PlanRewrite log;
    log.rule = rule;
    log.detail = std::move(detail);
    log.cost_before = current_cost_;
    cand.rewrites.clear();
    log.cost_after = PlanCost(db_, query_, cand);

    const WitnessVerdict verdict =
        ValidateWitness(db_, query_, snapshot_, *plan_, cand);
    if (!verdict.ok) {
      OptCounters().rejected->Increment();
      log.verdict = "rejected " + verdict.reject_code;
      plan_->rewrites.push_back(std::move(log));
      return false;
    }
    const bool wins = require_strictly_cheaper
                          ? log.cost_after < current_cost_ * kStrictImprovement
                          : log.cost_after <= current_cost_;
    if (!wins) {
      log.verdict = "verified, not cheaper";
      plan_->rewrites.push_back(std::move(log));
      return false;
    }
    OptCounters().applied->Increment();
    log.verdict = "applied";
    log.applied = true;
    current_cost_ = log.cost_after;
    std::vector<PlanRewrite> trail = std::move(plan_->rewrites);
    trail.push_back(std::move(log));
    *plan_ = std::move(cand);
    plan_->rewrites = std::move(trail);
    return true;
  }

 private:
  const Database& db_;
  const BoundQuery& query_;
  Snapshot snapshot_;
  QueryPlan* plan_;
  double current_cost_ = 0;
};

// ---------------------------------------------------------------------------
// Rule: redundant-filter elimination. Identity is the canonical SQL
// rendering of a conjunct — the same identity the V007 fingerprint facts
// are built from — so a conjunct evaluated twice anywhere in the plan is
// evaluated once after the rewrite.

void RuleRedundantFilterElim(const Database& db, const BoundQuery& query,
                             RewriteSession* session, QueryPlan* plan) {
  std::set<std::string> seen;
  size_t dropped = 0;
  QueryPlan cand = *plan;
  auto dedupe = [&](std::vector<const BoundExpr*>* preds) {
    std::vector<const BoundExpr*> kept;
    for (const BoundExpr* p : *preds) {
      if (seen.insert(query.ExprToSql(db, *p)).second) {
        kept.push_back(p);
      } else {
        ++dropped;
      }
    }
    *preds = std::move(kept);
  };
  dedupe(&cand.constant_preds);
  for (LevelPlan& level : cand.levels) {
    dedupe(&level.local_preds);
    dedupe(&level.level_preds);
  }
  if (dropped == 0) return;
  session->Attempt("redundant-filter-elim",
                   "dropped " + std::to_string(dropped) +
                       " duplicate conjunct(s)",
                   std::move(cand), /*require_strictly_cheaper=*/false);
}

// ---------------------------------------------------------------------------
// Rule: predicate pushdown. The planner already places every unit at the
// earliest checkable level, so this fires only on plans built elsewhere
// (tests, tools, rewritten candidates) — but when it fires, evaluating
// the predicate below the join shrinks every level above it.

void RulePredicatePushdown(RewriteSession* session, QueryPlan* plan) {
  QueryPlan cand = *plan;
  // prefix_mask[i]: relations bound once level i has run.
  std::vector<uint64_t> prefix_mask(cand.levels.size(), 0);
  uint64_t mask = 0;
  for (size_t i = 0; i < cand.levels.size(); ++i) {
    mask |= uint64_t{1} << cand.levels[i].relation;
    prefix_mask[i] = mask;
  }
  size_t moved = 0;
  for (size_t j = 0; j < cand.levels.size(); ++j) {
    std::vector<const BoundExpr*> remaining;
    for (const BoundExpr* p : cand.levels[j].level_preds) {
      const uint64_t refs = p->ReferencedRelations();
      size_t earliest = j;
      for (size_t k = 0; k < j; ++k) {
        if ((refs & ~prefix_mask[k]) == 0) {
          earliest = k;
          break;
        }
      }
      if (earliest == j) {
        remaining.push_back(p);
        continue;
      }
      ++moved;
      LevelPlan& target = cand.levels[earliest];
      if (refs == (uint64_t{1} << target.relation)) {
        target.local_preds.push_back(p);
      } else {
        target.level_preds.push_back(p);
      }
    }
    cand.levels[j].level_preds = std::move(remaining);
  }
  if (moved == 0) return;
  session->Attempt("predicate-pushdown",
                   "sank " + std::to_string(moved) +
                       " predicate(s) below the join they were checked at",
                   std::move(cand), /*require_strictly_cheaper=*/false);
}

// ---------------------------------------------------------------------------
// Rule: join reordering. Exhaustive over left-deep orders for small
// joins; every candidate is rebuilt through the shared construction path
// (opt/plan_build.h) so predicate placement discipline is identical to
// the planner's, then costed with the catalog row/NDV statistics.

void RuleJoinReorder(const Database& db, const BoundQuery& query,
                     RewriteSession* session, QueryPlan* plan) {
  const size_t num_rels = query.relations.size();
  if (num_rels < 2 || num_rels > kMaxReorderRelations) return;
  if (!OrderInsensitiveOutput(query)) return;

  auto order_of = [&](const QueryPlan& p) {
    std::vector<size_t> order;
    order.reserve(p.levels.size());
    for (const LevelPlan& level : p.levels) order.push_back(level.relation);
    return order;
  };
  auto order_name = [&](const std::vector<size_t>& order) {
    std::string out;
    for (size_t i = 0; i < order.size(); ++i) {
      if (i != 0) out += ',';
      out += query.relations[order[i]].display_name;
    }
    return out;
  };

  std::vector<size_t> perm(num_rels);
  for (size_t i = 0; i < num_rels; ++i) perm[i] = i;
  do {
    if (perm == order_of(*plan)) continue;
    QueryPlan cand;
    cand.provably_empty = plan->provably_empty;
    std::vector<PredUnit> units = SplitWhereUnits(query, &cand);
    const std::vector<RelAccess> info = ComputeRelAccess(db, query, units);
    const Status built = BuildJoinLevels(db, query, info, std::move(units),
                                         &perm, &cand);
    if (!built.ok()) continue;
    // Only surface candidates that would actually change the bill: the
    // full permutation sweep would flood the decision trail with
    // obviously-losing orders.
    if (PlanCost(db, query, cand) >=
        session->current_cost() * kStrictImprovement) {
      continue;
    }
    session->Attempt(
        "join-reorder",
        "order " + order_name(order_of(*plan)) + " -> " + order_name(perm),
        std::move(cand), /*require_strictly_cheaper=*/true);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

// ---------------------------------------------------------------------------
// Rule: convert-to-range-scan.

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
                     std::move(cand), /*require_strictly_cheaper=*/true);
  }
}

}  // namespace

bool OptimizerEnabled() {
  return g_optimizer_enabled.load(std::memory_order_relaxed);
}

void SetOptimizerEnabled(bool enabled) {
  g_optimizer_enabled.store(enabled, std::memory_order_relaxed);
}

void TestOnlyForceWitnessFailure(bool fail) {
  g_force_witness_failure.store(fail, std::memory_order_relaxed);
}

void OptimizePlan(const Database& db, const BoundQuery& query,
                  Snapshot snapshot, QueryPlan* plan) {
  if (!OptimizerEnabled()) return;
  RewriteSession session(db, query, snapshot, plan);
  RuleRedundantFilterElim(db, query, &session, plan);
  RulePredicatePushdown(&session, plan);
  RuleJoinReorder(db, query, &session, plan);
  RuleConvertToRangeScan(db, query, &session, plan);
}

}  // namespace opt
}  // namespace trac

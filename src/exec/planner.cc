#include "exec/planner.h"

#include <algorithm>

#include "catalog/stats.h"

namespace trac {

namespace {

constexpr double kLocalPredSelectivity = 0.1;
constexpr double kIndexNestedLoopMaxPrefix = 1024.0;

/// One top-level AND unit of the WHERE clause.
struct PredUnit {
  const BoundExpr* expr;
  uint64_t rel_mask;
  bool consumed = false;
};

/// Splits the WHERE clause into top-level AND units. Constant units
/// (rel_mask == 0) are moved into plan->constant_preds and marked
/// consumed.
std::vector<PredUnit> SplitWhereUnits(const BoundQuery& query,
                                      QueryPlan* plan) {
  std::vector<PredUnit> units;
  if (query.where != nullptr) {
    if (query.where->kind == ExprKind::kAnd) {
      for (const auto& c : query.where->children) {
        units.push_back(PredUnit{c.get(), c->ReferencedRelations()});
      }
    } else {
      units.push_back(
          PredUnit{query.where.get(), query.where->ReferencedRelations()});
    }
  }
  for (PredUnit& u : units) {
    if (u.rel_mask == 0) {
      plan->constant_preds.push_back(u.expr);
      u.consumed = true;
    }
  }
  return units;
}

/// Matches `col = literal` / `col IN (literals)` on relation `rel`;
/// fills the column and the deduplicated, sorted key list.
bool IsColumnLiteralEq(const BoundExpr& e, size_t rel, size_t* column,
                       std::vector<Value>* keys) {
  if (e.kind == ExprKind::kCompare && e.op == CompareOp::kEq) {
    const BoundExpr* col = nullptr;
    const BoundExpr* lit = nullptr;
    if (e.children[0]->kind == ExprKind::kColumnRef &&
        e.children[1]->kind == ExprKind::kLiteral) {
      col = e.children[0].get();
      lit = e.children[1].get();
    } else if (e.children[1]->kind == ExprKind::kColumnRef &&
               e.children[0]->kind == ExprKind::kLiteral) {
      col = e.children[1].get();
      lit = e.children[0].get();
    } else {
      return false;
    }
    if (col->column.rel != rel || lit->literal.is_null()) return false;
    *column = col->column.col;
    keys->assign(1, lit->literal);
    return true;
  }
  if (e.kind == ExprKind::kInList && !e.negated &&
      e.children[0]->kind == ExprKind::kColumnRef &&
      e.children[0]->column.rel == rel) {
    *column = e.children[0]->column.col;
    keys->clear();
    for (const Value& v : e.list) {
      if (!v.is_null()) keys->push_back(v);
    }
    std::sort(keys->begin(), keys->end());
    keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
    return !keys->empty();
  }
  return false;
}

/// Per-relation access-path candidate and cardinality estimate.
struct RelAccess {
  double base_rows = 0;
  double est_rows = 0;
  bool has_local_pred = false;
  bool use_index = false;
  size_t index_column = 0;
  std::vector<Value> index_keys;
};

std::vector<RelAccess> ComputeRelAccess(const Database& db,
                                        const BoundQuery& query,
                                        const std::vector<PredUnit>& units) {
  const size_t num_rels = query.relations.size();
  std::vector<RelAccess> info(num_rels);
  for (size_t r = 0; r < num_rels; ++r) {
    const Table* table = db.GetTable(query.relations[r].table_id);
    info[r].base_rows = static_cast<double>(table->num_versions());
    info[r].est_rows = info[r].base_rows;
    for (const PredUnit& u : units) {
      if (u.consumed || u.rel_mask != (uint64_t{1} << r)) continue;
      info[r].has_local_pred = true;
      size_t column;
      std::vector<Value> keys;
      if (!IsColumnLiteralEq(*u.expr, r, &column, &keys)) continue;
      const OrderedIndex* index = table->GetIndex(column);
      if (index == nullptr) continue;
      double est = 0;
      for (const Value& k : keys) {
        est += static_cast<double>(index->CountEqual(k));
      }
      if (!info[r].use_index || est < info[r].est_rows) {
        info[r].use_index = true;
        info[r].index_column = column;
        info[r].index_keys = keys;
        info[r].est_rows = est;
      }
    }
    if (!info[r].use_index && info[r].has_local_pred) {
      info[r].est_rows =
          std::max(1.0, info[r].base_rows * kLocalPredSelectivity);
    }
  }
  return info;
}

/// Appends one level per relation to plan->levels in greedy join order
/// (connected relations first, then smallest estimate). Consumes every
/// unit at the earliest level where it becomes checkable; Internal error
/// if any unit is left unplaced.
[[nodiscard]] Status BuildJoinLevels(const Database& db,
                                     const BoundQuery& query,
                                     const std::vector<RelAccess>& info,
                                     std::vector<PredUnit> units,
                                     QueryPlan* plan) {
  const size_t num_rels = query.relations.size();
  uint64_t bound_mask = 0;
  std::vector<bool> placed(num_rels, false);
  double prefix_est = 1.0;

  auto connected = [&](size_t r) {
    if (bound_mask == 0) return false;
    for (const PredUnit& u : units) {
      if (u.consumed) continue;
      if (u.expr->kind != ExprKind::kCompare ||
          u.expr->op != CompareOp::kEq) {
        continue;
      }
      const BoundExpr& l = *u.expr->children[0];
      const BoundExpr& rr = *u.expr->children[1];
      if (l.kind != ExprKind::kColumnRef || rr.kind != ExprKind::kColumnRef) {
        continue;
      }
      uint64_t mask = u.rel_mask;
      uint64_t rbit = uint64_t{1} << r;
      if ((mask & rbit) != 0 && (mask & bound_mask) != 0 &&
          (mask & ~(bound_mask | rbit)) == 0) {
        return true;
      }
    }
    return false;
  };

  for (size_t step = 0; step < num_rels; ++step) {
    // Pick the next relation: connected ones first, then by estimate.
    size_t r = num_rels;
    bool best_connected = false;
    for (size_t cand = 0; cand < num_rels; ++cand) {
      if (placed[cand]) continue;
      bool conn = connected(cand);
      if (r == num_rels || (conn && !best_connected) ||
          (conn == best_connected && info[cand].est_rows < info[r].est_rows)) {
        r = cand;
        best_connected = conn;
      }
    }
    placed[r] = true;
    const uint64_t rbit = uint64_t{1} << r;

    LevelPlan level;
    level.relation = r;
    level.use_local_index = info[r].use_index;
    level.index_column = info[r].index_column;
    level.index_keys = info[r].index_keys;
    level.estimated_rows = info[r].est_rows;

    // Consume predicates that become checkable at this level.
    for (PredUnit& u : units) {
      if (u.consumed || (u.rel_mask & ~(bound_mask | rbit)) != 0) continue;
      if ((u.rel_mask & rbit) == 0) continue;  // Already checkable earlier.
      u.consumed = true;
      if (u.rel_mask == rbit) {
        level.local_preds.push_back(u.expr);
        continue;
      }
      // Spans the prefix and this relation: equi key or level predicate.
      const BoundExpr& e = *u.expr;
      if (e.kind == ExprKind::kCompare && e.op == CompareOp::kEq &&
          e.children[0]->kind == ExprKind::kColumnRef &&
          e.children[1]->kind == ExprKind::kColumnRef) {
        const BoundColumnRef& a = e.children[0]->column;
        const BoundColumnRef& b = e.children[1]->column;
        if (a.rel == r && b.rel != r) {
          level.equi_keys.push_back(LevelPlan::EquiKey{b, a});
          continue;
        }
        if (b.rel == r && a.rel != r) {
          level.equi_keys.push_back(LevelPlan::EquiKey{a, b});
          continue;
        }
      }
      level.level_preds.push_back(u.expr);
    }

    // Index nested loop: worthwhile when the prefix is small and the
    // build column is indexed (and a local index path would not already
    // be cheaper than per-probe lookups).
    if (!level.equi_keys.empty() && bound_mask != 0) {
      const Table* table = db.GetTable(query.relations[r].table_id);
      const OrderedIndex* index =
          table->GetIndex(level.equi_keys[0].build.col);
      if (index != nullptr && prefix_est <= kIndexNestedLoopMaxPrefix &&
          (!level.use_local_index || info[r].est_rows > prefix_est)) {
        level.index_nested_loop = true;
      }
    }

    prefix_est *= std::max(1.0, level.estimated_rows);
    bound_mask |= rbit;
    plan->levels.push_back(std::move(level));
  }

  // Every unit must be consumed by now (masks are subsets of all bound).
  for (const PredUnit& u : units) {
    if (!u.consumed) {
      return Status::Internal("planner failed to place a predicate");
    }
  }
  return Status::OK();
}

/// Row and distinct-key statistics for `id`, cached in the catalog until
/// the table's published version count moves. Nothing reads them. The
/// walk stays for its side effect: after every write it re-reads each
/// indexed column's distinct keys, which keeps those ordered indexes
/// cache-warm for the next insert. Without it, `grid-live-2k`'s
/// `ingest_p50_us` rose about 50% (DESIGN.md §4g). It goes together with
/// the node-per-entry index (ROADMAP item 3).
void CollectTableStats(const Database& db, TableId id) {
  const Table* table = db.GetTable(id);
  const uint64_t rows = table->num_versions();
  if (db.catalog().TableStatsFresh(id, rows)) return;
  TableStats stats;
  stats.row_count = rows;
  for (size_t col : table->IndexedColumns()) {
    const size_t ndv = table->GetIndex(col)->NumDistinctKeys();
    stats.columns.push_back(ColumnStats{col, static_cast<uint64_t>(ndv)});
  }
  db.catalog().SetTableStats(id, std::move(stats));
}

}  // namespace

[[nodiscard]] Result<QueryPlan> PlanQuery(const Database& db, const BoundQuery& query,
                            Snapshot /*snapshot*/, const PlanningHints& hints) {
  QueryPlan plan;
  const size_t num_rels = query.relations.size();
  if (num_rels > 63) {
    return Status::Unsupported("queries limited to 63 relations");
  }

  // A statically proven-unsatisfiable predicate (TRAC-E001) lets the
  // executor skip every scan. Only the unsatisfiable-query finding is
  // consulted: other kEmptySet causes (e.g. no monitored relation) speak
  // about the relevant set, not about this query's result.
  if (hints.guarantee != nullptr &&
      hints.guarantee->verdict == RecencyGuarantee::kEmptySet) {
    for (const AnalysisDiagnostic& d : hints.guarantee->diagnostics) {
      if (d.code == AnalysisCode::kUnsatisfiableQuery) {
        plan.provably_empty = true;
        break;
      }
    }
  }

  // Baseline plan: greedy join order with earliest-level predicate
  // placement.
  std::vector<PredUnit> units = SplitWhereUnits(query, &plan);
  const std::vector<RelAccess> info = ComputeRelAccess(db, query, units);
  const Status built =
      BuildJoinLevels(db, query, info, std::move(units), &plan);
  if (!built.ok()) return built;

  if (!plan.provably_empty) {
    for (const LevelPlan& level : plan.levels) {
      CollectTableStats(db, query.relations[level.relation].table_id);
    }
  }
  return plan;
}

}  // namespace trac

#include "exec/planner.h"

#include "common/dcheck.h"
#include "opt/plan_build.h"
#include "opt/rewrite.h"
#include "telemetry/metrics.h"
#include "verify/verifier.h"

namespace trac {

[[nodiscard]] Result<QueryPlan> BuildQueryPlan(
    const Database& db, const BoundQuery& query, Snapshot snapshot,
    const PlanningHints& hints) {
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
  // placement (opt/plan_build.cc, shared with the reorder rule).
  std::vector<opt::PredUnit> units = opt::SplitWhereUnits(query, &plan);
  const std::vector<opt::RelAccess> info =
      opt::ComputeRelAccess(db, query, units);
  const Status built = opt::BuildJoinLevels(db, query, info, units,
                                            /*forced_order=*/nullptr, &plan);
  if (!built.ok()) return built;

  // Cost-based rewrites, each one translation-validated against the
  // baseline (opt/rewrite.cc): a rule's witness must discharge
  // TRAC-V009..V012 before it is applied.
  opt::OptimizePlan(db, query, snapshot, &plan);
  return plan;
}

[[nodiscard]] Status GateQueryPlan(const Database& db, const BoundQuery& query,
                                   const QueryPlan& plan, Snapshot snapshot) {
  const Status verified = VerifyPlan(db, query, plan, snapshot);
  // Outcome counters resolved once: metric lookup stays off the per-plan
  // path after the first call.
  static Counter* verify_ok = MetricRegistry::Default().GetCounter(
      "trac_plan_verify_total", "Plan-IR verifier outcomes at plan time",
      {{"outcome", "ok"}});
  static Counter* verify_reject = MetricRegistry::Default().GetCounter(
      "trac_plan_verify_total", "Plan-IR verifier outcomes at plan time",
      {{"outcome", "reject"}});
  (verified.ok() ? verify_ok : verify_reject)->Increment();
  TRAC_DCHECK(verified.ok(), verified.message().c_str());
  return verified;
}

[[nodiscard]] Result<QueryPlan> PlanQuery(const Database& db, const BoundQuery& query,
                            Snapshot snapshot, const PlanningHints& hints) {
  TRAC_ASSIGN_OR_RETURN(QueryPlan plan,
                        BuildQueryPlan(db, query, snapshot, hints));
  TRAC_RETURN_IF_ERROR(GateQueryPlan(db, query, plan, snapshot));
  return plan;
}

std::string QueryPlan::Explain(const Database& db,
                               const BoundQuery& query) const {
  std::string out;
  if (provably_empty) {
    out += "empty result: predicate statically unsatisfiable over the "
           "declared domains (guarantee analysis)\n";
  }
  for (size_t i = 0; i < levels.size(); ++i) {
    const LevelPlan& level = levels[i];
    const BoundTableRef& rel = query.relations[level.relation];
    const TableSchema& schema = db.catalog().schema(rel.table_id);
    out += std::to_string(i) + ": " + rel.display_name;
    if (level.use_local_index) {
      out += " [index on " + schema.column(level.index_column).name + ", " +
             std::to_string(level.index_keys.size()) + " key(s)]";
    } else if (level.use_range_index) {
      out += " [range scan on " + schema.column(level.index_column).name + "]";
    } else {
      out += " [seq scan]";
    }
    if (!level.equi_keys.empty()) {
      out += level.index_nested_loop ? " join: index-nested-loop"
                                     : " join: hash";
    } else if (i > 0) {
      out += " join: nested-loop";
    }
    out += " est=" + std::to_string(static_cast<int64_t>(level.estimated_rows));
    out += "\n";
  }
  return out;
}

}  // namespace trac

#ifndef TRAC_OPT_REWRITE_H_
#define TRAC_OPT_REWRITE_H_

#include "exec/planner.h"
#include "expr/bound_expr.h"
#include "storage/database.h"
#include "storage/snapshot.h"

namespace trac {
namespace opt {

/// Cost-based plan rewriter. Each rule proposes a candidate plan that
/// must beat the incumbent's modeled cost (opt/cost.h) to replace it;
/// every attempt, applied or not, is recorded in the plan's decision
/// trail and counted (trac_opt_rewrites_attempted/_applied).
///
/// Contract: a rewrite leaves LowerQueryPlan(...).Dump() unchanged, so
/// the plan IR the verifier checks is the same with the optimizer on
/// and off and no equivalence proof is needed. A TRAC_DCHECK in the
/// rewrite session checks it on every attempt in TRAC_DEBUG_INVARIANTS
/// builds.
///
/// Rule:
///   convert-to-range-scan     a range conjunct over an indexed column
///                             turns a sequential scan into an ordered
///                             index range scan. Lowering ignores the
///                             access path, so the IR is unchanged; the
///                             rule is restricted to order-insensitive
///                             (aggregate-only) outputs.

/// Process-wide optimizer toggle, default on. Exists so tools and tests
/// can compare optimized and unoptimized plans in one process.
bool OptimizerEnabled();
void SetOptimizerEnabled(bool enabled);

/// Runs the rewrite pipeline over `plan` in place, recording every
/// attempt in plan->rewrites. Never fails: a losing candidate leaves
/// the incumbent untouched.
void OptimizePlan(const Database& db, const BoundQuery& query,
                  Snapshot snapshot, QueryPlan* plan);

}  // namespace opt
}  // namespace trac

#endif  // TRAC_OPT_REWRITE_H_

#ifndef TRAC_OPT_REWRITE_H_
#define TRAC_OPT_REWRITE_H_

#include "exec/planner.h"
#include "expr/bound_expr.h"
#include "storage/database.h"
#include "storage/snapshot.h"

namespace trac {
namespace opt {

/// Translation-validated plan rewriter. Each rule proposes a candidate
/// plan, lowers both the incumbent and the candidate into the dataflow
/// IR, and submits the (before, after) pair to the static equivalence
/// checker (verify/equiv.h). Only a witness that discharges all four
/// obligations (TRAC-V009..V012) may be applied, and cost-motivated
/// rules additionally require the candidate to beat the incumbent's
/// modeled cost (opt/cost.h). A failing witness is counted
/// (trac_opt_rewrites_rejected) and the incumbent is kept — graceful
/// degradation, never a planning error.
///
/// Rules, in application order:
///   redundant-filter-elim     duplicate conjuncts (equal canonical SQL,
///                             the V007 fingerprint identity) evaluated
///                             more than once are dropped.
///   predicate-pushdown        a level predicate checkable strictly
///                             earlier sinks to the earliest level
///                             (no-op on planner output, which already
///                             places at the earliest level; fires on
///                             hand-built or rewritten plans).
///   join-reorder              exhaustive left-deep orders for small
///                             joins, costed with catalog row/NDV stats;
///                             restricted to order-insensitive
///                             (aggregate-only) outputs.
///   convert-to-range-scan     a range conjunct over an indexed column
///                             turns a sequential scan into an ordered
///                             index range scan; IR-invisible, also
///                             restricted to order-insensitive outputs.

/// Process-wide optimizer toggle, default on. Exists so tools and tests
/// can compare optimized and unoptimized plans in one process.
bool OptimizerEnabled();
void SetOptimizerEnabled(bool enabled);

/// Test hook: corrupt the next witnesses so every rewrite verification
/// fails. Proves the rejected-witness path (a rejected rewrite is never
/// applied) end to end; never set outside tests.
void TestOnlyForceWitnessFailure(bool fail);

/// Runs the rewrite pipeline over `plan` in place, recording every
/// attempt in plan->rewrites. Never fails: an unprovable or losing
/// candidate leaves the incumbent untouched.
void OptimizePlan(const Database& db, const BoundQuery& query,
                  Snapshot snapshot, QueryPlan* plan);

}  // namespace opt
}  // namespace trac

#endif  // TRAC_OPT_REWRITE_H_

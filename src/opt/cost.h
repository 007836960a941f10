#ifndef TRAC_OPT_COST_H_
#define TRAC_OPT_COST_H_

#include "catalog/stats.h"
#include "exec/planner.h"
#include "storage/database.h"

namespace trac {
namespace opt {

/// Row/NDV statistics for `id`, collected from the row store and its
/// ordered indexes and cached in the catalog (catalog/stats.h). The
/// cache invalidates itself when the table's published version count
/// moves, so repeated planning against a quiescent table is O(1).
TableStats CollectTableStats(const Database& db, TableId id);

/// Deterministic cost of one plan under the collected statistics: rows
/// touched by each level's access path, charged per prefix row for
/// index-nested-loop levels, plus hash build/probe work, with equi-join
/// output estimated from the join columns' NDV. Advisory only — no
/// rewrite it motivates changes the lowered IR (opt/rewrite.h) — but
/// stable for a given database state, so candidate ranking is
/// reproducible.
double PlanCost(const Database& db, const BoundQuery& query,
                const QueryPlan& plan);

}  // namespace opt
}  // namespace trac

#endif  // TRAC_OPT_COST_H_

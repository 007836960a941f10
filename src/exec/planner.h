#ifndef TRAC_EXEC_PLANNER_H_
#define TRAC_EXEC_PLANNER_H_

#include <vector>

#include "analysis/guarantee.h"
#include "common/result.h"
#include "expr/bound_expr.h"
#include "storage/database.h"
#include "storage/snapshot.h"

namespace trac {

/// One level of a left-deep join plan: how to access one relation and
/// how to connect it to the already-bound prefix. All BoundExpr pointers
/// reference nodes owned by the BoundQuery passed to PlanQuery; the plan
/// must not outlive it.
struct LevelPlan {
  size_t relation = 0;  ///< Slot index into BoundQuery::relations.

  // -- Access path.
  /// Equality probes of `index_column`'s index, one per key; otherwise a
  /// sequential scan. Range predicates always scan and filter.
  bool use_local_index = false;
  size_t index_column = 0;  ///< Valid if use_local_index.
  std::vector<Value> index_keys;     ///< Deduplicated = / IN keys.
  /// Predicates referencing only this relation (re-checked on each row,
  /// including the one that supplied the index keys).
  std::vector<const BoundExpr*> local_preds;

  // -- Connection to the prefix.
  struct EquiKey {
    BoundColumnRef probe;  ///< Column bound by an earlier level.
    BoundColumnRef build;  ///< Column of this level's relation.
  };
  std::vector<EquiKey> equi_keys;
  /// Other predicates that become checkable at this level.
  std::vector<const BoundExpr*> level_preds;

  /// Per-probe index lookup on equi_keys[0].build instead of building a
  /// hash table (index nested-loop join).
  bool index_nested_loop = false;

  double estimated_rows = 0;  ///< Cardinality guess used for ordering.
};

/// A full plan: constant predicates (evaluated once), then the join
/// levels in execution order.
struct QueryPlan {
  /// Predicates referencing no columns (e.g. WHERE FALSE).
  std::vector<const BoundExpr*> constant_preds;
  std::vector<LevelPlan> levels;

  /// The static guarantee analysis proved the predicate unsatisfiable
  /// over the declared column domains (TRAC-E001). Because inserts
  /// enforce finite domains and CHECK constraints, no stored tuple
  /// combination can satisfy it: execution emits zero rows without
  /// touching storage.
  bool provably_empty = false;
};

/// Optional static-analysis input to planning.
struct PlanningHints {
  /// Guarantee analysis of the query being planned, when the caller ran
  /// it (the recency reporter always does). A kEmptySet verdict caused
  /// by an unsatisfiable predicate marks the plan provably empty.
  const GuaranteeReport* guarantee = nullptr;
};

/// Builds a heuristic left-deep plan: index selection for =/IN
/// predicates on indexed columns, greedy join ordering by estimated
/// cardinality preferring equi-join-connected relations, hash joins for
/// equi-joins, and index nested-loop joins when the prefix is small and
/// the build side is indexed on the join column. The plan it returns is
/// the plan that runs. Unverified: a release build trusts its planner;
/// TRAC_DEBUG_INVARIANTS builds verify every executed plan
/// (ExecutePlan), and trac_verify and the property suites verify the
/// report sessions.
///
/// Planning reads only the schema, table and index sizes, and the hints,
/// and writes nothing: it refreshes no statistics (CollectTableStats
/// does). `snapshot` is unused.
[[nodiscard]] Result<QueryPlan> PlanQuery(const Database& db, const BoundQuery& query,
                            Snapshot snapshot,
                            const PlanningHints& hints = PlanningHints());

/// The statistics walk: unless `plan` is provably empty, re-reads the
/// indexed columns' distinct keys of each table `plan` reads whose
/// published version count moved since its last walk, and caches the
/// counts in the catalog (catalog/stats.h), where nothing reads them.
/// Each walk adds one to `trac_planner_stats_walks_total`. Only a user
/// query's planning calls it (ExecuteQuery, PlanReportSession's user
/// plan); a recency part or guard plan never does. See the walk in
/// exec/planner.cc for why it stays.
void CollectTableStats(const Database& db, const BoundQuery& query,
                       const QueryPlan& plan);

}  // namespace trac

#endif  // TRAC_EXEC_PLANNER_H_

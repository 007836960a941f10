#ifndef TRAC_EXEC_EXECUTOR_H_
#define TRAC_EXEC_EXECUTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "exec/planner.h"
#include "expr/bound_expr.h"
#include "storage/database.h"
#include "storage/snapshot.h"

namespace trac {

struct ExecProfile;  // telemetry/profile.h

/// A fully materialized query result.
struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;

  size_t num_rows() const { return rows.size(); }

  /// For COUNT(*) results: the single counter value.
  int64_t count() const { return rows.at(0).at(0).int_val(); }

  /// True if some row equals `row` (structural equality).
  bool Contains(const Row& row) const;

  /// Pipe-separated textual table, one line per row; stable ordering is
  /// the executor's emission order.
  std::string ToString() const;
};

/// Executes a bound query against `snapshot`. The paper's reporter runs
/// the user query and the generated recency query through this with the
/// *same* snapshot, which yields the consistency guarantee of
/// Section 3.2. `hints` forwards static-analysis results to the planner
/// (a proven-unsatisfiable predicate short-circuits to an empty result).
/// Runs the statistics walk (CollectTableStats) over the planned tables.
///
/// `profile`, when non-null, receives per-operator row counters for the
/// execution (telemetry/profile.h); `clock` additionally enables stage
/// timings (pass the telemetry bundle's ClockFn — clock reads happen
/// only when a profile sink is attached, keeping the unprofiled path
/// free of time syscalls).
[[nodiscard]] Result<ResultSet> ExecuteQuery(const Database& db, const BoundQuery& query,
                               Snapshot snapshot,
                               const PlanningHints& hints = PlanningHints(),
                               ExecProfile* profile = nullptr,
                               ClockFn clock = nullptr);

/// Executes `plan`, PlanQuery's output for `query` at `snapshot`.
/// ExecuteQuery (with the statistics walk) and QueryHasResults are
/// PlanQuery followed by this; the recency reporter calls it with the
/// user plan PlanReportSession built.
/// Stops once `row_limit` output rows (or counted tuples, for COUNT(*))
/// have been produced (0 = unlimited; 1 powers EXISTS-style guards).
/// `profile`/`clock` as above.
[[nodiscard]] Result<ResultSet> ExecutePlan(const Database& db,
                                            const BoundQuery& query,
                                            const QueryPlan& plan,
                                            Snapshot snapshot,
                                            size_t row_limit = 0,
                                            ExecProfile* profile = nullptr,
                                            ClockFn clock = nullptr);

/// True iff the query produces at least one tuple under `snapshot`;
/// evaluation stops at the first one. `profile`/`clock` as above.
[[nodiscard]] Result<bool> QueryHasResults(const Database& db, const BoundQuery& query,
                             Snapshot snapshot,
                             ExecProfile* profile = nullptr,
                             ClockFn clock = nullptr);

/// Parse + bind + execute against the latest snapshot.
[[nodiscard]] Result<ResultSet> ExecuteSql(const Database& db, std::string_view sql);

}  // namespace trac

#endif  // TRAC_EXEC_EXECUTOR_H_

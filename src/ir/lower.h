#ifndef TRAC_IR_LOWER_H_
#define TRAC_IR_LOWER_H_

#include <string>
#include <string_view>
#include <vector>

#include "exec/planner.h"
#include "expr/bound_expr.h"
#include "ir/plan_ir.h"
#include "storage/database.h"
#include "storage/snapshot.h"

namespace trac {

/// Lowering from physical plans into the dataflow IR (ir/plan_ir.h).
/// Lowering is pure bookkeeping — it never touches table data — and is
/// deliberately cheap enough to run on every planned query.

struct LowerOptions {
  /// Name of the Heartbeat table. A scan of this table marks its
  /// source-id column as data-source provenance even though the table
  /// itself has no declared data-source column (it *is* the source
  /// registry). Empty: only declared data-source columns are marked.
  std::string heartbeat_table;
};

/// Lowers one planned query: per level a scan (pinned to `snapshot`),
/// an optional filter, and a join connecting it to the prefix; then the
/// constant-predicate filter and the aggregate fold, if any.
PlanIr LowerQueryPlan(const Database& db, const BoundQuery& query,
                      const QueryPlan& plan, Snapshot snapshot,
                      const LowerOptions& options = LowerOptions());

/// One recency part of a report session, pre-planned by the caller.
struct SessionPartInput {
  const BoundQuery* query = nullptr;
  /// Null for a registry walk part (core/relevance.h), whose main query
  /// the executor never plans: it lowers to one scan node, the same node
  /// its plan would lower to.
  const QueryPlan* plan = nullptr;
  /// EXISTS guards gating the part (a walk part's too), pre-planned like
  /// the main query.
  std::vector<const BoundQuery*> guard_queries;
  std::vector<const QueryPlan*> guard_plans;
  /// Read by nothing. Kept only because the benchmark program
  /// (perfbench/) still sets it; ROADMAP item 1 deletes that write and
  /// this field.
  size_t shards = 1;
};

/// Everything a report session executes, for session-level lowering.
struct ReportSessionInput {
  const BoundQuery* user_query = nullptr;
  const QueryPlan* user_plan = nullptr;
  std::vector<SessionPartInput> parts;
  /// Temp tables the session writes the merged sources into
  /// (sys_temp_a*/sys_temp_e*), in write order.
  std::vector<std::string> temp_writes;
  uint64_t session = 0;   ///< Owning session id; 0 = no session.
  Snapshot snapshot;      ///< The one snapshot every read is pinned to.
};

/// Node-id extents of the subgraphs a session lowering emitted. Lowering
/// is append-only, so every subgraph occupies one contiguous id range
/// [begin, end) whose last node is its dataflow root — which is what
/// lets the profiler (telemetry/profile.h) map executor-side counters
/// back onto exactly the nodes the session IR lowered for them.
struct SessionLayout {
  struct QueryRange {
    size_t begin = 0;  ///< First node id of the subgraph.
    size_t end = 0;    ///< One past the last node id, the root's.
  };
  QueryRange user;
  struct Part {
    /// A registry walk part: its one scan node instead of `main`.
    bool walk = false;
    size_t scan_id = 0;
    /// Guard subgraphs (execution order), then the main query's subgraph
    /// (or the walk's scan), then the optional gating filter.
    std::vector<QueryRange> guards;
    QueryRange main;
    bool has_gate = false;
    size_t gate_id = 0;
  };
  std::vector<Part> parts;
  size_t merge_id = 0;
  std::vector<size_t> tempwrite_ids;
  size_t report_id = 0;
};

/// Lowers a full report session: the user query subgraph, every recency
/// part (its guard subgraphs, a walk's scan or its plan subgraph, and a
/// gating filter when it has guards),
/// the deterministic set merge of all parts, the temp-table writes, and
/// the final report node consuming the user result and the sources.
/// Recency-side nodes are marked `generated`. `layout` is overwritten
/// with the node-id extents of every subgraph emitted.
PlanIr LowerReportSession(const Database& db, const ReportSessionInput& input,
                          const LowerOptions& options, SessionLayout* layout);

}  // namespace trac

#endif  // TRAC_IR_LOWER_H_

#ifndef TRAC_CORE_RELEVANCE_H_
#define TRAC_CORE_RELEVANCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/guarantee.h"
#include "common/result.h"
#include "core/heartbeat.h"
#include "exec/planner.h"
#include "expr/bound_expr.h"
#include "ir/lower.h"
#include "predicate/normalize.h"
#include "predicate/satisfiability.h"
#include "storage/database.h"
#include "telemetry/profile.h"

namespace trac {

struct Telemetry;

/// Knobs for recency-query generation and execution.
struct RelevanceOptions {
  std::string heartbeat_table = std::string(HeartbeatTable::kDefaultName);
  NormalizeOptions normalize;
  SatOptions sat;

  /// Telemetry sinks and clock; nullptr = the process defaults. Task
  /// wall times go to the `trac_relevance_task_micros` histogram.
  const Telemetry* telemetry = nullptr;
  /// Trace linkage: with trace_id != 0, every execution task records a
  /// "relevance-task" span under `parent_span_id` — same trace tree as
  /// the report session that issued the queries.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;

  /// Number of concurrent strands used to execute a plan's recency
  /// queries (1 = fully serial, the default). Each executed part runs as
  /// one task, an independent read of one Snapshot, so execution fans
  /// the parts out across `parallelism` strands (the calling thread plus
  /// ThreadPool::Shared() workers) and merges the partial results in
  /// deterministic part order: results are byte-identical to the serial
  /// execution at any parallelism level. A single-part plan (the Naive
  /// plan) runs serially at any setting, and so does a guarded walk
  /// (see PlannedPart).
  size_t parallelism = 1;

  /// Collect per-operator execution profiles (telemetry/profile.h) for
  /// every task into RecencyExecution::task_profiles. Off by default —
  /// profiling is requested by the reporter, which owns the session IR
  /// the profiles attach onto. Each task writes only its own profile
  /// slot, so collection is race-free at any parallelism.
  bool profile = false;
};

/// The generated recency queries for a user query — one per
/// (DNF conjunct, referenced relation) pair, following Theorem 3 (single
/// relation) and Theorem 4 (multi relation):
///
///   S(Q, R_i) [=|⊆] π_{c_s}( σ_{P_s' ∧ J_s' ∧ P_o}
///                             (H × R_1 × ... R_{i-1} × R_{i+1} ... × R_n) )
///
/// Each part's query SELECTs DISTINCT H.source_id and H's recency
/// timestamp so one execution yields both the relevant set and the data
/// for the recency report. S(Q) is the union over all parts
/// (Corollaries 1 and 4). Parts are bound queries that execute as plans;
/// none carries SQL text (RecencyPartSql renders one on demand).
struct RecencyQueryPlan {
  struct Part {
    BoundQuery query;
    /// EXISTS guards: relations of the Theorem 4 cross product that are
    /// not predicate-connected to the Heartbeat slot only matter through
    /// non-emptiness, so each such connected component becomes a guard
    /// query evaluated with LIMIT 1. If any guard is empty the part
    /// contributes nothing; otherwise `query` (which keeps only H's
    /// component) computes the sources. Semantically identical to the
    /// full cross product, and it reproduces the cost profile the paper
    /// describes for Q4's Routing subquery.
    std::vector<BoundQuery> guards;
    /// Which user-query relation this part covers (S(Q, R_i) via R_i).
    size_t via_relation = 0;
    size_t conjunct = 0;
    /// Theorem 3/4 preconditions held: P_m and J_rm NULL, P_r proven
    /// satisfiable. The part computes the exact S for its conjunct.
    bool minimal = true;
  };

  std::vector<Part> parts;

  /// True when generation fell back to "all sources are relevant"
  /// (DNF blow-up, or a query relation without a data source column in a
  /// position that prevents analysis). The plan then holds a single part
  /// scanning the whole Heartbeat table — complete but maximally
  /// imprecise, equivalent to the Naive method.
  bool fallback_all = false;

  /// All parts minimal, the DNF was exact, and no conjunct was dropped
  /// on an unproven satisfiability verdict: A(Q) == S(Q) guaranteed.
  /// Always equal to (analysis.verdict != kUpperBound).
  bool minimal = true;

  /// The static guarantee analysis the plan was generated from: the
  /// three-way verdict (EXACT_MINIMUM / UPPER_BOUND / EMPTY_SET) with
  /// source-anchored diagnostics and per-theorem citations. Plan
  /// generation consumes the same per-conjunct classification the
  /// verdict is derived from, so the two cannot disagree.
  GuaranteeReport analysis;
};

/// Renders `part` as one SQL statement: its main query, with each EXISTS
/// guard appended to the WHERE clause (opening one when the main query
/// has none). For display and tests: the report path runs the bound
/// queries and never renders them.
std::string RecencyPartSql(const Database& db,
                           const RecencyQueryPlan::Part& part);

/// Generates the recency queries for `user_query` (pure analysis; does
/// not touch table data). Corresponds to the paper's "parse a user query
/// and generate a recency query" phase, which the evaluation times
/// separately.
[[nodiscard]] Result<RecencyQueryPlan> GenerateRecencyQueries(
    const Database& db, const BoundQuery& user_query,
    const RelevanceOptions& options = RelevanceOptions());

/// A relevant source with its recency timestamp.
struct SourceRecency {
  std::string source;
  Timestamp recency;

  friend bool operator==(const SourceRecency& a, const SourceRecency& b) {
    return a.source == b.source && a.recency == b.recency;
  }
};

/// How one part of a RecencyQueryPlan executes, decided once per
/// report. A part whose main query is a pure Heartbeat scan (`SELECT
/// DISTINCT source, recency FROM heartbeat`: the Naive plan, or a
/// conjunct with no source-column predicate), guarded or not, on a
/// registry with a source_id index walks that index in key order behind
/// its EXISTS `guards`; its main query is never planned. The walk builds
/// its SourceRecency list sorted and unique, so when no other part has
/// rows that list is the result, moved, not merged. Any other
/// part, including a pure scan of an unindexed registry, runs `main`
/// behind its `guards`. The executor runs at most these, and the session
/// IR lowers exactly these. Points into the Part it was built from.
///
/// A walk that runs names every source the snapshot holds, so the
/// executor skips every part after the first walk whose guards pass:
/// their rows could add no source, and coming later in part order, no
/// recency. Such a walk runs whole on the calling thread before the
/// fan-out when it has guards, and in the fan-out when it has none.
struct PlannedPart {
  /// The registry's source_id index for a walk part; null otherwise.
  const OrderedIndex* walk = nullptr;
  QueryPlan main;  ///< Empty for a walk part.
  std::vector<QueryPlan> guards;  ///< Parallel to Part::guards.
};

/// Builds the PlannedPart of every part of `plan` for execution at
/// `snapshot`, in part order.
[[nodiscard]] Result<std::vector<PlannedPart>> PlanRecencyParts(
    const Database& db, const RecencyQueryPlan& plan, Snapshot snapshot);

/// The plans one report session runs. No plan is verified: a release
/// report trusts its planner, and LowerReportSessionPlans builds the
/// session IR for the code that reads it.
struct ReportSession {
  QueryPlan user_plan;
  std::vector<PlannedPart> parts;  ///< Parallel to RecencyQueryPlan::parts.
};

/// Plans `user_query` (hinted with `plan.analysis`) and every part and
/// guard of `plan` once: the one place a report session is planned.
[[nodiscard]] Result<ReportSession> PlanReportSession(
    const Database& db, const BoundQuery& user_query,
    const RecencyQueryPlan& plan, Snapshot snapshot);

/// Lowers `session`'s plans into one session IR, every read pinned to
/// `snapshot`; `layout` receives one subgraph per planned query. For
/// the IR's readers (the profiler, the debug build's verifier,
/// trac_verify and the tests), never on a default release report.
/// `session_id` 0: no temp-table writes.
PlanIr LowerReportSessionPlans(const Database& db, const BoundQuery& user_query,
                               const RecencyQueryPlan& plan,
                               const ReportSession& session, Snapshot snapshot,
                               std::string_view heartbeat_table,
                               uint64_t session_id, SessionLayout* layout);

/// Result of executing a plan's parts against one snapshot: the union
/// of their sources, sorted by source id (std::string byte order), plus
/// per-task timing (`task_micros[i]` is the wall time of task i, which
/// runs part i; parts skipped behind a walk run no task and come last),
/// letting the reporter split the relevance wall time into busy time
/// vs. fan-out win. A source several rows name carries the recency of
/// its first row in task order, and a part's rows come in version
/// order: a walk part keeps each source's first visible version. Rows
/// with a NULL source are skipped; a NULL recency reads as the epoch.
struct RecencyExecution {
  /// Strictly ascending by source. When a registry walk is the only task
  /// with rows (the Naive plan, a Q2-style plan, a passing guarded walk
  /// with nothing before it), this is the walk's own list, moved.
  std::vector<SourceRecency> sources;
  /// One entry per executed task: skipped parts have none.
  std::vector<int64_t> task_micros;
  size_t parallelism = 1;  ///< Strands actually requested (clamped >= 1).

  /// Per-task operator profiles, parallel to `task_micros`, when
  /// options.profile was set; empty otherwise.
  std::vector<TaskProfile> task_profiles;
  /// Rows the executed tasks fed into the set merge (pre-dedup); always
  /// counted.
  uint64_t premerge_rows = 0;
  /// Wall time of the set merge, from the first task result read to the
  /// last SourceRecency built; always measured. A lone walk's list is
  /// moved, so this is near 0. Otherwise it is one sort over prefix-keyed
  /// views of every task's rows, then one string copy per source.
  int64_t merge_micros = 0;
};
/// PlanRecencyParts, then the overload below. With parallelism > 1 the
/// parts run as pool tasks against the *same* snapshot; the result is
/// identical to serial.
[[nodiscard]] Result<RecencyExecution> ExecuteRecencyQueriesDetailed(
    const Database& db, const RecencyQueryPlan& plan, Snapshot snapshot,
    const RelevanceOptions& options = RelevanceOptions());
/// Runs `plan`'s parts from `planned` (PlanRecencyParts' output for
/// this plan and snapshot): no part is planned again.
[[nodiscard]] Result<RecencyExecution> ExecuteRecencyQueriesDetailed(
    const Database& db, const RecencyQueryPlan& plan,
    const std::vector<PlannedPart>& planned, Snapshot snapshot,
    const RelevanceOptions& options);

/// Always 1: no part is split any more. Kept only because the benchmark
/// program (perfbench/) calls it to decide which parts to plan itself,
/// and so plans every part; ROADMAP item 1 deletes that call and this
/// function.
size_t PlannedHeartbeatShards(const Database& db,
                              const RecencyQueryPlan::Part& part,
                              size_t parallelism);

/// The combined answer: A(Q) with its provenance.
struct RelevanceResult {
  std::vector<SourceRecency> sources;  ///< Sorted by source id.
  bool minimal = true;                 ///< A(Q) == S(Q) proven.
  bool fallback_all = false;
  /// The plan's static guarantee analysis (verdict + diagnostics): the
  /// reasons minimality or precision was lost are its TRAC-W
  /// diagnostics (AnalysisDiagnostic::Format renders one).
  GuaranteeReport analysis;

  std::vector<std::string> SourceIds() const;
};

/// Generation + execution in one call.
[[nodiscard]] Result<RelevanceResult> ComputeRelevantSources(
    const Database& db, const BoundQuery& user_query, Snapshot snapshot,
    const RelevanceOptions& options = RelevanceOptions());

/// The Naive method (Section 5): every source in the Heartbeat table is
/// reported relevant. Used as the experimental baseline and as the
/// fallback plan.
[[nodiscard]] Result<RecencyQueryPlan> GenerateNaivePlan(
    const Database& db, const RelevanceOptions& options = RelevanceOptions());

}  // namespace trac

#endif  // TRAC_CORE_RELEVANCE_H_

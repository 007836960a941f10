#ifndef TRAC_CORE_RECENCY_REPORTER_H_
#define TRAC_CORE_RECENCY_REPORTER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/recency_stats.h"
#include "core/relevance.h"
#include "core/session.h"
#include "exec/executor.h"
#include "telemetry/telemetry.h"

namespace trac {

/// Which relevant-source computation backs the report (Section 5.2's
/// three measured configurations).
enum class RecencyMethod {
  kFocused,           ///< Generated recency queries (this paper).
  kFocusedHardcoded,  ///< Pre-generated plan supplied by the caller.
  kNaive,             ///< All sources reported (the baseline).
};

struct RecencyReportOptions {
  RecencyMethod method = RecencyMethod::kFocused;
  RecencyStatsOptions stats;
  RelevanceOptions relevance;
  /// Materialize the normal/exceptional source lists as session temp
  /// tables (sys_temp_a* / sys_temp_e*). Disable in benchmarks when only
  /// timings matter... the paper's function always creates them, so the
  /// default is on.
  bool create_temp_tables = true;
  /// Telemetry sinks and clock; nullptr = the process defaults. Every
  /// report records a span tree (report > parse/generate/plan/
  /// user-query/relevance/stats) under RecencyReport::trace_id and feeds
  /// the trac_report_* histograms.
  const Telemetry* telemetry = nullptr;
  /// Collect a per-operator execution profile for the session
  /// (telemetry/profile.h), lower the session IR, attach the profile
  /// onto it as actual_rows=/actual_ns= annotations
  /// (RecencyReport::profiled_ir), and record the session into the
  /// flight recorder. Off by default: a plain report lowers no IR.
  bool profile = false;
};

/// Everything the paper's recencyReport() table function returns: the
/// user-query result plus the recency/consistency report consistent with
/// it.
struct RecencyReport {
  ResultSet result;               ///< The user query's rows.
  RelevanceResult relevance;      ///< A(Q) with provenance.
  RecencyStats stats;             ///< Normal/exceptional split + extremes.
  std::string normal_temp_table;       ///< sys_temp_a*; empty if disabled.
  std::string exceptional_temp_table;  ///< sys_temp_e*; empty if disabled.

  /// Timing breakdown in microseconds (the three components measured in
  /// Section 5.2, plus the user query itself).
  int64_t parse_generate_micros = 0;  ///< Parse user SQL + generate plan.
  int64_t relevance_exec_micros = 0;  ///< Execute the recency queries (wall).
  int64_t merge_micros = 0;  ///< Set merge into A(Q), within relevance.
  int64_t stats_micros = 0;           ///< Outlier detection + min/max.
  int64_t user_query_micros = 0;      ///< The user query alone.
  /// Wall time of planning every query once (plus lowering the session
  /// IR when profiling or under TRAC_DEBUG_INVARIANTS, and verifying it
  /// under TRAC_DEBUG_INVARIANTS): the duration of the "plan" span.
  int64_t plan_micros = 0;

  /// Parallel-execution detail, merged from the per-task timings of
  /// ExecuteRecencyQueriesDetailed: one task per plan part. With
  /// parallelism 1 busy == wall; with fan-out, busy / wall is the
  /// realized speedup of the relevance-execution component (what
  /// bench_parallel_relevance reports).
  size_t relevance_parallelism = 1;        ///< Strands requested.
  std::vector<int64_t> relevance_task_micros;  ///< Wall time per task.
  int64_t relevance_busy_micros = 0;       ///< Sum over tasks.

  /// The MVCC snapshot every part of this report (user query, recency
  /// queries, stats) was evaluated against — Section 3.2's consistency
  /// requirement, exposed so oracles can recompute at the same epoch.
  Snapshot snapshot;

  /// The report's span tree in the tracer
  /// (Tracer::DumpTraceJson(trace_id) renders it).
  uint64_t trace_id = 0;

  /// The session IR with runtime actual_rows=/actual_ns= annotations
  /// attached (options.profile; empty by default, when profiling is off).
  /// Round-trips through ParsePlanIr — a profiled session is a plain
  /// corpus artifact; AnalyzeProfileDrift over it yields the TRAC-P
  /// estimate-drift findings.
  std::string profiled_ir;
  /// IR nodes that received runtime annotations.
  size_t profiled_nodes = 0;

  /// Formats the paper's NOTICE block (exceptional table, least/most
  /// recent source, bound of inconsistency, normal table).
  std::string FormatNotices() const;
};

/// Runs user queries with recency and consistency reporting. The user
/// query and the generated recency queries are evaluated against the
/// same MVCC snapshot, satisfying the consistency requirement of
/// Section 3.2.
class RecencyReporter {
 public:
  /// `session` may be null iff options.create_temp_tables is false on
  /// every call.
  RecencyReporter(Database* db, Session* session)
      : db_(db), session_(session) {}

  /// Parse + bind + report.
  [[nodiscard]] Result<RecencyReport> Run(
      std::string_view user_sql,
      const RecencyReportOptions& options = RecencyReportOptions());

  /// Report for an already-bound user query (no parse cost).
  [[nodiscard]] Result<RecencyReport> RunBound(
      const BoundQuery& user_query,
      const RecencyReportOptions& options = RecencyReportOptions());

  /// The hardcoded-recency-query configuration: the caller supplies a
  /// pre-generated plan, so the report pays no parse/generate cost.
  [[nodiscard]] Result<RecencyReport> RunWithPlan(
      const BoundQuery& user_query, const RecencyQueryPlan& plan,
      const RecencyReportOptions& options = RecencyReportOptions());

 private:
  /// Generates the recency queries, then Finish; `t0` began the report.
  [[nodiscard]] Result<RecencyReport> GenerateAndFinish(
      const BoundQuery& user_query, const RecencyReportOptions& options,
      int64_t t0, TraceSpan root);
  /// `root` is the report session's root trace span; Finish hangs the
  /// lifecycle child spans off it and ends it when the report is built.
  /// Fills every field but `relevance.analysis`, which the caller sets
  /// from `plan`: moved when the plan is its own, copied otherwise.
  [[nodiscard]] Result<RecencyReport> Finish(const BoundQuery& user_query,
                               const RecencyQueryPlan& plan,
                               Snapshot snapshot,
                               const RecencyReportOptions& options,
                               int64_t parse_generate_micros,
                               TraceSpan root);

  Database* db_;
  Session* session_;
};

}  // namespace trac

#endif  // TRAC_CORE_RECENCY_REPORTER_H_

#include "core/recency_reporter.h"

#include "common/dcheck.h"
#include "expr/binder.h"
#include "ir/lower.h"
#include "telemetry/profile.h"
#include "verify/verifier.h"

namespace trac {

namespace {

/// The series every completed report updates, resolved together.
struct ReportSeries {
  Histogram* parse_generate;
  Histogram* plan;
  Histogram* user_query;
  Histogram* relevance;
  Histogram* merge;
  Histogram* stats;
  Histogram* relevance_busy;
  Counter* reports;
  Counter* exceptional_sources;
};

ReportSeries LookupReportSeries(MetricRegistry& metrics) {
  auto phase = [&metrics](const char* name) {
    return metrics.GetHistogram("trac_report_phase_micros",
                                "Wall time of one recency-report phase",
                                {{"phase", name}});
  };
  return ReportSeries{
      phase("parse_generate"),
      phase("plan"),
      phase("user_query"),
      phase("relevance"),
      phase("merge"),
      phase("stats"),
      metrics.GetHistogram(
          "trac_relevance_busy_micros",
          "Summed task busy time per report (vs. the relevance phase wall "
          "time: busy/wall = realized speedup)"),
      metrics.GetCounter("trac_reports_total", "Recency reports completed"),
      metrics.GetCounter(
          "trac_report_exceptional_sources_total",
          "Exceptional (z-score outlier) sources across reports"),
  };
}

}  // namespace

std::string RecencyReport::FormatNotices() const {
  std::string out;
  if (!exceptional_temp_table.empty()) {
    out +=
        "NOTICE: Exceptional relevant data sources and timestamps are in "
        "the temporary table: " +
        exceptional_temp_table + "\n";
  }
  if (stats.least_recent.has_value()) {
    out += "NOTICE: The least recent data source: " +
           stats.least_recent->source + ", " +
           stats.least_recent->recency.ToString() + "\n";
    out += "NOTICE: The most recent data source: " +
           stats.most_recent->source + ", " +
           stats.most_recent->recency.ToString() + "\n";
    out += "NOTICE: Bound of inconsistency: " +
           FormatDurationMicros(stats.inconsistency_bound_micros) + "\n";
  } else {
    out += "NOTICE: No normal relevant data sources\n";
  }
  out += "NOTICE: Recency guarantee: " + relevance.analysis.Summary() + "\n";
  if (!normal_temp_table.empty()) {
    out +=
        "NOTICE: All \"normal\" relevant data sources and timestamps are "
        "in the temporary table: " +
        normal_temp_table + "\n";
  }
  if (!relevance.minimal) {
    out +=
        "NOTICE: The relevant source set is an upper bound (minimality "
        "not guaranteed)\n";
  }
  return out;
}

Result<RecencyReport> RecencyReporter::Run(
    std::string_view user_sql, const RecencyReportOptions& options) {
  const Telemetry& tel = ResolveTelemetry(options.telemetry);
  TraceSpan root(tel.tracer, tel.clock, "report", tel.tracer->NextTraceId());
  const int64_t t0 = tel.clock();
  TraceSpan parse_span(tel.tracer, tel.clock, "parse", root.trace_id(),
                       root.id());
  TRAC_ASSIGN_OR_RETURN(BoundQuery user_query, BindSql(*db_, user_sql));
  parse_span.End();
  return GenerateAndFinish(user_query, options, t0, std::move(root));
}

Result<RecencyReport> RecencyReporter::RunBound(
    const BoundQuery& user_query, const RecencyReportOptions& options) {
  const Telemetry& tel = ResolveTelemetry(options.telemetry);
  TraceSpan root(tel.tracer, tel.clock, "report", tel.tracer->NextTraceId());
  return GenerateAndFinish(user_query, options, tel.clock(), std::move(root));
}

Result<RecencyReport> RecencyReporter::GenerateAndFinish(
    const BoundQuery& user_query, const RecencyReportOptions& options,
    int64_t t0, TraceSpan root) {
  const Telemetry& tel = ResolveTelemetry(options.telemetry);
  TraceSpan generate_span(tel.tracer, tel.clock, "generate", root.trace_id(),
                          root.id());
  RecencyQueryPlan plan;
  if (options.method == RecencyMethod::kNaive) {
    // The Naive method pays no generation cost in the paper's
    // accounting; parsing the user query is shared by every method.
    TRAC_ASSIGN_OR_RETURN(plan, GenerateNaivePlan(*db_, options.relevance));
  } else {
    TRAC_ASSIGN_OR_RETURN(
        plan, GenerateRecencyQueries(*db_, user_query, options.relevance));
  }
  generate_span.End();
  Snapshot snapshot = db_->LatestSnapshot();
  TRAC_ASSIGN_OR_RETURN(RecencyReport report,
                        Finish(user_query, plan, snapshot, options,
                               tel.clock() - t0, std::move(root)));
  // The plan is this call's own, so its analysis moves into the report.
  report.relevance.analysis = std::move(plan.analysis);
  return report;
}

Result<RecencyReport> RecencyReporter::RunWithPlan(
    const BoundQuery& user_query, const RecencyQueryPlan& plan,
    const RecencyReportOptions& options) {
  const Telemetry& tel = ResolveTelemetry(options.telemetry);
  TraceSpan root(tel.tracer, tel.clock, "report", tel.tracer->NextTraceId());
  // No generation cost: the plan is hardcoded.
  Snapshot snapshot = db_->LatestSnapshot();
  TRAC_ASSIGN_OR_RETURN(RecencyReport report,
                        Finish(user_query, plan, snapshot, options,
                               /*parse_generate=*/0, std::move(root)));
  report.relevance.analysis = plan.analysis;
  return report;
}

Result<RecencyReport> RecencyReporter::Finish(
    const BoundQuery& user_query, const RecencyQueryPlan& plan,
    Snapshot snapshot, const RecencyReportOptions& options,
    int64_t parse_generate_micros, TraceSpan root) {
  if (options.create_temp_tables && session_ == nullptr) {
    return Status::InvalidArgument(
        "temp tables requested but the reporter has no session");
  }
  const Telemetry& tel = ResolveTelemetry(options.telemetry);
  const uint64_t trace_id = root.trace_id();
  root.set_snapshot_epoch(snapshot.version);
  if (session_ != nullptr) root.set_session_id(session_->id());

  RecencyReport report;
  report.trace_id = trace_id;
  report.snapshot = snapshot;
  report.parse_generate_micros = parse_generate_micros;

  // Plan every query once. The session IR is lowered only for a reader:
  // the profiler, or the debug build's verifier.
  TraceSpan plan_span(tel.tracer, tel.clock, "plan", trace_id, root.id());
  TRAC_ASSIGN_OR_RETURN(
      ReportSession planned,
      PlanReportSession(*db_, user_query, plan, snapshot));
  const bool profiling = options.profile;
  bool lower = profiling;
#if defined(TRAC_DEBUG_INVARIANTS)
  lower = true;  // Every report session is verified.
#endif
  PlanIr ir;
  SessionLayout layout;
  if (lower) {
    ir = LowerReportSessionPlans(
        *db_, user_query, plan, planned, snapshot,
        options.relevance.heartbeat_table,
        options.create_temp_tables ? session_->id() : 0, &layout);
    TRAC_DCHECK(VerifyIr(ir).ok(), VerifyIr(ir).Format(ir).c_str());
  }
  report.plan_micros = plan_span.End();
  SessionProfile session_profile;

  // 1. The user query, on the shared snapshot.
  TraceSpan user_span(tel.tracer, tel.clock, "user-query", trace_id,
                      root.id());
  int64_t t = tel.clock();
  TRAC_ASSIGN_OR_RETURN(
      report.result,
      ExecutePlan(*db_, user_query, planned.user_plan, snapshot,
                  /*row_limit=*/0,
                  profiling ? &session_profile.user : nullptr, tel.clock));
  session_profile.ran_user = profiling;
  report.user_query_micros = tel.clock() - t;
  user_span.End();

  // 2. The recency queries, on the same snapshot, fanned out across
  // options.relevance.parallelism strands (1 = serial). The execution
  // tasks hang their "relevance-task" spans off this span.
  TraceSpan relevance_span(tel.tracer, tel.clock, "relevance", trace_id,
                           root.id());
  RelevanceOptions relevance_options = options.relevance;
  relevance_options.telemetry = options.telemetry;
  relevance_options.trace_id = trace_id;
  relevance_options.parent_span_id = relevance_span.id();
  relevance_options.profile = profiling;
  t = tel.clock();
  TRAC_ASSIGN_OR_RETURN(
      RecencyExecution exec,
      ExecuteRecencyQueriesDetailed(*db_, plan, planned.parts, snapshot,
                                    relevance_options));
  report.relevance_exec_micros = tel.clock() - t;
  report.merge_micros = exec.merge_micros;
  report.relevance_parallelism = exec.parallelism;
  report.relevance_task_micros = std::move(exec.task_micros);
  session_profile.tasks = std::move(exec.task_profiles);
  session_profile.premerge_rows = exec.premerge_rows;
  session_profile.merge_micros = exec.merge_micros;
  session_profile.merged_rows = exec.sources.size();
  relevance_span.set_relevant_sources(
      static_cast<int64_t>(exec.sources.size()));
  relevance_span.End();
  root.set_relevant_sources(static_cast<int64_t>(exec.sources.size()));
  for (int64_t micros : report.relevance_task_micros) {
    report.relevance_busy_micros += micros;
  }

  report.relevance.minimal = plan.minimal;
  report.relevance.fallback_all = plan.fallback_all;

  // 3. Exceptional-source detection + descriptive statistics over the
  // merged list, which is sorted by source. The stats copy what they
  // keep, then the report takes the merged list itself.
  TraceSpan stats_span(tel.tracer, tel.clock, "stats", trace_id, root.id());
  t = tel.clock();
  report.stats = ComputeSortedRecencyStats(exec.sources, options.stats);
  report.stats_micros = tel.clock() - t;
  stats_span.End();
  report.relevance.sources = std::move(exec.sources);
  session_profile.stats_micros = report.stats_micros;
  session_profile.normal_rows = report.stats.normal.size();
  session_profile.exceptional_rows = report.stats.exceptional.size();

  if (options.create_temp_tables) {
    const std::vector<ColumnDef> columns = {
        ColumnDef("sid", TypeId::kString),
        ColumnDef("recency_timestamp", TypeId::kTimestamp)};
    auto write = [&](std::string_view prefix,
                     const std::vector<SourceRecency>& list) {
      std::vector<Row> rows;
      rows.reserve(list.size());
      for (const SourceRecency& s : list) {
        rows.push_back({Value::Str(s.source), Value::Ts(s.recency)});
      }
      return session_->CreateTempTable(prefix, columns, std::move(rows));
    };
    TRAC_ASSIGN_OR_RETURN(report.normal_temp_table,
                          write("sys_temp_a", report.stats.normal));
    TRAC_ASSIGN_OR_RETURN(report.exceptional_temp_table,
                          write("sys_temp_e", report.stats.exceptional));
  }

  // The report's timing fields are its caller's view; the phase
  // histograms are the record that /metrics and trac_top export.
  const ReportSeries series =
      ResolveSeries(tel.metrics, [](MetricRegistry& metrics) {
        return LookupReportSeries(metrics);
      });
  series.parse_generate->Observe(report.parse_generate_micros);
  series.plan->Observe(report.plan_micros);
  series.user_query->Observe(report.user_query_micros);
  series.relevance->Observe(report.relevance_exec_micros);
  series.merge->Observe(report.merge_micros);
  series.stats->Observe(report.stats_micros);
  series.relevance_busy->Observe(report.relevance_busy_micros);
  series.reports->Increment();
  series.exceptional_sources->Add(
      static_cast<int64_t>(report.stats.exceptional.size()));
  if (report.stats.least_recent.has_value()) {
    ResolveSeries(tel.metrics,
                  [](MetricRegistry& metrics) {
                    return metrics.GetHistogram(
                        "trac_report_inconsistency_bound_micros",
                        "Bound of inconsistency over normal sources");
                  })
        ->Observe(report.stats.inconsistency_bound_micros);
  }

  if (profiling) {
    // Write the runtime counters back onto the session's one lowering
    // (under TRAC_DEBUG_INVARIANTS, byte-for-byte the graph the verifier
    // passed) and preserve the whole profiled session in the flight
    // recorder. Readers of the recorded IR run the estimate-drift pass
    // (AnalyzeProfileDrift).
    report.profiled_nodes = AttachSessionProfile(&ir, layout, session_profile);
    report.profiled_ir = ir.Dump();
    SessionProfileRecord record;
    record.trace_id = trace_id;
    record.snapshot = snapshot.version;
    record.profiled_ir = report.profiled_ir;
    record.annotated_nodes = report.profiled_nodes;
    ResolveFlightRecorder(tel).Record(std::move(record));
    ResolveSeries(tel.metrics,
                  [](MetricRegistry& metrics) {
                    return metrics.GetCounter(
                        "trac_profile_sessions_total",
                        "Report sessions profiled into the flight recorder");
                  })
        ->Increment();
  }
  return report;
}

}  // namespace trac

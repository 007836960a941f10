#include "ir/lower.h"

#include <algorithm>

#include "common/str_util.h"
#include "ir/fingerprint.h"

namespace trac {

namespace {

std::string AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kNone:
      return "none";
    case AggFn::kCountStar:
      return "count*";
    case AggFn::kCount:
      return "count";
    case AggFn::kSum:
      return "sum";
    case AggFn::kMin:
      return "min";
    case AggFn::kMax:
      return "max";
    case AggFn::kAvg:
      return "avg";
  }
  return "?";
}

/// The source registry's key: the Heartbeat table's source-id column.
bool IsRegistryColumn(const Database& db, TableId table_id, size_t col,
                      const LowerOptions& options) {
  const TableSchema& schema = db.catalog().schema(table_id);
  return !options.heartbeat_table.empty() &&
         EqualsIgnoreCaseAscii(schema.name(), options.heartbeat_table) &&
         EqualsIgnoreCaseAscii(schema.column(col).name, "source_id");
}

/// Provenance of column `col` of the relation backing `table_id`:
/// declared data-source columns, plus the Heartbeat table's source-id
/// column (the source registry's key carries source identity too).
ColumnProvenance ProvenanceOf(const Database& db, TableId table_id, size_t col,
                              const LowerOptions& options) {
  const TableSchema& schema = db.catalog().schema(table_id);
  if (schema.IsDataSourceColumn(col)) return ColumnProvenance::kDataSource;
  if (IsRegistryColumn(db, table_id, col, options)) {
    return ColumnProvenance::kDataSource;
  }
  return ColumnProvenance::kRegular;
}

/// FNV-1a 64 over the canonical SQL renderings of a predicate
/// conjunction, sorted, deduplicated, and joined with " AND " so that
/// neither conjunct order nor a literally repeated conjunct changes the
/// identity (TRAC-V007 compares these fingerprints; p AND p ≡ p, so a
/// plan that evaluates a repeated conjunct once or twice lowers to the
/// same IR).
uint64_t PredFingerprint(const Database& db, const BoundQuery& query,
                         const std::vector<const BoundExpr*>& preds) {
  std::vector<std::string> terms;
  terms.reserve(preds.size());
  for (const BoundExpr* p : preds) {
    if (p != nullptr) terms.push_back(query.ExprToSql(db, *p));
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::string joined;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i != 0) joined += " AND ";
    joined += terms[i];
  }
  return Fnv1a64(joined);
}

void AnnotateFilter(IrNode* filter, const Database& db,
                    const BoundQuery& query,
                    const std::vector<const BoundExpr*>& preds) {
  if (preds.empty()) return;
  filter->has_pred = true;
  filter->pred_fingerprint = PredFingerprint(db, query, preds);
}

/// Appends the scan of `rel` pinned to `snapshot`: the node a planned
/// level starts with, and the whole of a registry walk part.
IrNode& LowerScan(PlanIr* ir, const Database& db, const BoundTableRef& rel,
                  Snapshot snapshot, const LowerOptions& options,
                  bool generated) {
  const TableSchema& schema = db.catalog().schema(rel.table_id);
  IrNode& scan = ir->Add(IrNodeKind::kScan);
  scan.generated = generated;
  scan.table = schema.name();
  scan.snapshot = snapshot.version;
  // A temp table resolved at bind time predates this plan; in-session
  // defs are modeled by LowerReportSession instead.
  scan.preexisting_temp = IsTempTableName(schema.name());
  if (const Table* table = db.GetTable(rel.table_id); table != nullptr) {
    scan.has_rows = true;
    scan.rows = table->num_versions();
  }
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    scan.columns.push_back(
        IrColumn{rel.display_name + "." + schema.column(c).name,
                 ProvenanceOf(db, rel.table_id, c, options)});
  }
  return scan;
}

/// Lowers one planned query into `ir` and returns the root node id.
/// `generated` marks every emitted node as recency machinery.
size_t LowerQueryInto(PlanIr* ir, const Database& db, const BoundQuery& query,
                      const QueryPlan& plan, Snapshot snapshot,
                      const LowerOptions& options, bool generated) {
  size_t top = 0;
  std::vector<IrColumn> top_cols;
  for (size_t i = 0; i < plan.levels.size(); ++i) {
    const LevelPlan& level = plan.levels[i];
    const IrNode& scan = LowerScan(ir, db, query.relations[level.relation],
                                   snapshot, options, generated);
    size_t level_top = scan.id;
    std::vector<IrColumn> level_cols = scan.columns;

    if (level.use_local_index || !level.local_preds.empty()) {
      IrNode& filter = ir->Add(IrNodeKind::kFilter);
      filter.generated = generated;
      filter.inputs.push_back(level_top);
      filter.columns = level_cols;
      AnnotateFilter(&filter, db, query, level.local_preds);
      level_top = filter.id;
    }

    if (i == 0) {
      top = level_top;
      top_cols = std::move(level_cols);
      continue;
    }
    IrNode& join = ir->Add(IrNodeKind::kJoin);
    join.generated = generated;
    join.inputs = {top, level_top};
    for (const LevelPlan::EquiKey& key : level.equi_keys) {
      IrNode::JoinKey jk;
      jk.probe = ProvenanceOf(db, query.relations[key.probe.rel].table_id,
                              key.probe.col, options);
      jk.build = ProvenanceOf(db, query.relations[key.build.rel].table_id,
                              key.build.col, options);
      jk.relevance =
          IsRegistryColumn(db, query.relations[key.probe.rel].table_id,
                           key.probe.col, options) ||
          IsRegistryColumn(db, query.relations[key.build.rel].table_id,
                           key.build.col, options);
      join.keys.push_back(jk);
    }
    top_cols.insert(top_cols.end(), level_cols.begin(), level_cols.end());
    join.columns = top_cols;
    top = join.id;
    if (!level.level_preds.empty()) {
      IrNode& filter = ir->Add(IrNodeKind::kFilter);
      filter.generated = generated;
      filter.inputs.push_back(top);
      filter.columns = top_cols;
      AnnotateFilter(&filter, db, query, level.level_preds);
      top = filter.id;
    }
  }

  if (!plan.constant_preds.empty() || plan.provably_empty) {
    IrNode& filter = ir->Add(IrNodeKind::kFilter);
    filter.generated = generated;
    if (!ir->nodes.empty() && !plan.levels.empty()) {
      filter.inputs.push_back(top);
    }
    filter.columns = top_cols;
    // The guarantee analyzer refuted the predicate over the declared
    // domains (TRAC-E001): selectivity is statically zero, which is
    // what seeds the dead-subplan propagation (TRAC-V006).
    filter.sel_zero = plan.provably_empty;
    AnnotateFilter(&filter, db, query, plan.constant_preds);
    top = filter.id;
  }

  if (query.count_star || !query.aggregates.empty()) {
    IrNode& agg = ir->Add(IrNodeKind::kAggregate);
    agg.generated = generated;
    agg.inputs.push_back(top);
    if (query.count_star) {
      agg.aggs.push_back(IrNode::Agg{"count*", ColumnProvenance::kRegular});
      agg.columns.push_back(IrColumn{"count", ColumnProvenance::kRegular});
    }
    for (const BoundQuery::Aggregate& a : query.aggregates) {
      ColumnProvenance arg = ColumnProvenance::kRegular;
      if (a.fn != AggFn::kCountStar) {
        arg = ProvenanceOf(db, query.relations[a.arg.rel].table_id, a.arg.col,
                           options);
      }
      agg.aggs.push_back(IrNode::Agg{AggFnName(a.fn), arg});
      agg.columns.push_back(IrColumn{a.name, ColumnProvenance::kRegular});
    }
    top = agg.id;
  }
  return top;
}

/// Lowers every recency part of `input` plus their deterministic rejoin
/// into `ir` and returns the merge's node id. `layout` receives the
/// parts' node-id extents and the merge id.
size_t LowerPartsAndMergeInto(PlanIr* ir, const Database& db,
                              const ReportSessionInput& input,
                              const LowerOptions& options,
                              SessionLayout* layout) {
  // Every recency part: a registry walk's scan, or the part's plan
  // subgraph, gated by its guard subgraphs.
  std::vector<size_t> part_tops;
  std::vector<IrColumn> source_cols;
  for (const SessionPartInput& part : input.parts) {
    const BoundQuery& q = *part.query;
    SessionLayout::Part layout_part;
    if (source_cols.empty()) {
      for (const BoundQuery::OutputColumn& out : q.outputs) {
        source_cols.push_back(IrColumn{
            out.name, ProvenanceOf(db, q.relations[out.ref.rel].table_id,
                                   out.ref.col, options)});
      }
    }
    // EXISTS guards execute before the part's main query, so they lower
    // first (IR node order is execution order).
    std::vector<size_t> guard_tops;
    for (size_t g = 0; g < part.guard_queries.size(); ++g) {
      SessionLayout::QueryRange range;
      range.begin = ir->nodes.size();
      guard_tops.push_back(LowerQueryInto(
          ir, db, *part.guard_queries[g], *part.guard_plans[g],
          input.snapshot, options, /*generated=*/true));
      range.end = ir->nodes.size();
      layout_part.guards.push_back(range);
    }
    size_t part_top = 0;
    if (part.plan == nullptr) {
      // A registry walk: one scan node, the same node its plan would
      // lower to.
      part_top = LowerScan(ir, db, q.relations[0], input.snapshot, options,
                           /*generated=*/true)
                     .id;
      layout_part.walk = true;
      layout_part.scan_id = part_top;
    } else {
      layout_part.main.begin = ir->nodes.size();
      part_top = LowerQueryInto(ir, db, q, *part.plan, input.snapshot,
                                options, /*generated=*/true);
      layout_part.main.end = ir->nodes.size();
    }
    if (!guard_tops.empty()) {
      // The part's rows flow only if every guard is non-empty, modeled
      // as a gating filter fed by the part and the guard roots.
      const std::vector<IrColumn> cols = ir->nodes[part_top].columns;
      IrNode& gate = ir->Add(IrNodeKind::kFilter);
      gate.generated = true;
      gate.inputs.push_back(part_top);
      for (size_t g : guard_tops) gate.inputs.push_back(g);
      gate.columns = cols;
      part_top = gate.id;
      layout_part.has_gate = true;
      layout_part.gate_id = gate.id;
    }
    part_tops.push_back(part_top);
    layout->parts.push_back(std::move(layout_part));
  }

  // The deterministic rejoin: an order-insensitive set merge keyed on
  // the source id, with sorted output (the union of Corollaries 1/4).
  IrNode& merge = ir->Add(IrNodeKind::kMerge);
  merge.generated = true;
  merge.inputs = part_tops;
  merge.set_merge = true;
  merge.sorted = true;
  if (source_cols.empty()) {
    // No parts (S(Q) = ∅): the merge of nothing still carries the
    // source-anchored shape the temp writes and report consume.
    source_cols.push_back(IrColumn{"source_id", ColumnProvenance::kDataSource});
    source_cols.push_back(
        IrColumn{"recency_timestamp", ColumnProvenance::kRegular});
  }
  merge.columns = source_cols;
  layout->merge_id = merge.id;
  return merge.id;
}

}  // namespace

PlanIr LowerQueryPlan(const Database& db, const BoundQuery& query,
                      const QueryPlan& plan, Snapshot snapshot,
                      const LowerOptions& options) {
  PlanIr ir;
  ir.label = "query";
  LowerQueryInto(&ir, db, query, plan, snapshot, options,
                 /*generated=*/false);
  return ir;
}

PlanIr LowerReportSession(const Database& db, const ReportSessionInput& input,
                          const LowerOptions& options, SessionLayout* layout) {
  PlanIr ir;
  ir.label = "report_session";
  *layout = SessionLayout();

  // 1. The user query (not generated machinery).
  const size_t user_top =
      LowerQueryInto(&ir, db, *input.user_query, *input.user_plan,
                     input.snapshot, options, /*generated=*/false);
  layout->user = {0, ir.nodes.size()};

  // 2+3. Every recency part and their deterministic set-merge rejoin.
  const size_t merge_id =
      LowerPartsAndMergeInto(&ir, db, input, options, layout);

  // 4. Temp-table writes (sys_temp_a*/sys_temp_e*).
  std::vector<size_t> report_inputs = {user_top};
  for (const std::string& name : input.temp_writes) {
    IrNode& write = ir.Add(IrNodeKind::kTempWrite);
    write.generated = true;
    write.inputs.push_back(merge_id);
    write.table = name;
    write.session = input.session;
    write.columns = ir.nodes[merge_id].columns;
    report_inputs.push_back(write.id);
    layout->tempwrite_ids.push_back(write.id);
  }
  if (input.temp_writes.empty()) report_inputs.push_back(merge_id);

  // 5. The report consumes the user result and the relevant sources.
  IrNode& report = ir.Add(IrNodeKind::kReport);
  report.generated = true;
  report.inputs = std::move(report_inputs);
  layout->report_id = report.id;
  return ir;
}

}  // namespace trac

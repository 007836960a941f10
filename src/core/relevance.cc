#include "core/relevance.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string_view>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "telemetry/telemetry.h"
#include "exec/executor.h"
#include "predicate/basic_term.h"

namespace trac {

namespace {

struct HeartbeatInfo {
  TableId table_id;
  size_t source_col;
  size_t recency_col;
  std::string name;
};

[[nodiscard]] Result<HeartbeatInfo> ResolveHeartbeat(const Database& db,
                                       const RelevanceOptions& options) {
  TRAC_ASSIGN_OR_RETURN(TableId id, db.FindTable(options.heartbeat_table));
  const TableSchema& schema = db.catalog().schema(id);
  TRAC_ASSIGN_OR_RETURN(
      HeartbeatTable::Columns columns,
      HeartbeatTable::CheckSchema(schema, options.heartbeat_table));
  return HeartbeatInfo{id, columns.source, columns.recency, schema.name()};
}

/// A display name for the Heartbeat slot that cannot clash with the user
/// query's FROM list.
std::string UniqueHeartbeatAlias(const BoundQuery& user) {
  std::string alias = "__hb";
  bool clash = true;
  while (clash) {
    clash = false;
    for (const BoundTableRef& rel : user.relations) {
      if (EqualsIgnoreCaseAscii(rel.display_name, alias)) {
        alias += "_";
        clash = true;
        break;
      }
    }
  }
  return alias;
}

/// Builds the SELECT DISTINCT H.source_id, H.recency FROM heartbeat [...]
/// scaffold shared by every generated part and the Naive plan.
BoundQuery MakeRecencyScaffold(const HeartbeatInfo& hb,
                               const std::string& hb_alias) {
  BoundQuery rq;
  rq.relations.push_back(BoundTableRef{hb.table_id, hb_alias});
  rq.distinct = true;
  rq.outputs.push_back(BoundQuery::OutputColumn{
      BoundColumnRef{0, hb.source_col, TypeId::kString},
      std::string(HeartbeatTable::kSourceColumn)});
  rq.outputs.push_back(BoundQuery::OutputColumn{
      BoundColumnRef{0, hb.recency_col, TypeId::kTimestamp},
      std::string(HeartbeatTable::kRecencyColumn)});
  return rq;
}

/// Splits a freshly built part into its Heartbeat-connected main query
/// plus one EXISTS guard per disconnected component (see the Part doc).
/// `where_terms` are the P_s' ∧ J_s' ∧ P_o terms in the part's slot
/// space; the part's relations/outputs are already populated.
void SplitPartIntoGuards(const Database& db, RecencyQueryPlan::Part* part,
                         std::vector<BoundExprPtr> where_terms) {
  const size_t n = part->query.relations.size();
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const BoundExprPtr& term : where_terms) {
    uint64_t mask = term->ReferencedRelations();
    int first = -1;
    for (size_t r = 0; r < n; ++r) {
      if (((mask >> r) & 1) == 0) continue;
      if (first < 0) {
        first = static_cast<int>(r);
      } else {
        parent[find(static_cast<size_t>(first))] = find(r);
      }
    }
  }

  const size_t h_root = find(0);
  bool all_connected = true;
  for (size_t r = 0; r < n; ++r) all_connected &= (find(r) == h_root);
  if (all_connected) {
    if (where_terms.size() == 1) {
      part->query.where = std::move(where_terms[0]);
    } else if (!where_terms.empty()) {
      part->query.where = MakeBoundAnd(std::move(where_terms));
    }
    return;
  }

  // Slot remapping per component root.
  std::map<size_t, std::vector<size_t>> component_slots;  // root -> slots
  for (size_t r = 0; r < n; ++r) component_slots[find(r)].push_back(r);

  std::map<size_t, BoundQuery> component_query;  // root -> query shell
  std::map<size_t, std::vector<size_t>> remap;   // root -> old slot -> new
  for (auto& [root, slots] : component_slots) {
    BoundQuery q;
    std::vector<size_t> m(n, SIZE_MAX);
    for (size_t slot : slots) {
      m[slot] = q.relations.size();
      q.relations.push_back(part->query.relations[slot]);
    }
    if (root == h_root) {
      q.distinct = part->query.distinct;
      q.outputs = part->query.outputs;  // Slot 0 stays slot 0.
    } else {
      // EXISTS guard: project an arbitrary column; execution stops at
      // the first row anyway.
      const TableSchema& schema =
          db.catalog().schema(q.relations[0].table_id);
      q.outputs.push_back(BoundQuery::OutputColumn{
          BoundColumnRef{0, 0, schema.column(0).type},
          schema.column(0).name});
    }
    component_query.emplace(root, std::move(q));
    remap.emplace(root, std::move(m));
  }

  std::map<size_t, std::vector<BoundExprPtr>> component_terms;
  for (BoundExprPtr& term : where_terms) {
    uint64_t mask = term->ReferencedRelations();
    size_t root = h_root;  // Constant terms ride with the main query.
    for (size_t r = 0; r < n; ++r) {
      if ((mask >> r) & 1) {
        root = find(r);
        break;
      }
    }
    const std::vector<size_t>& m = remap[root];
    term->RewriteColumnRefs([&](BoundColumnRef* ref) { ref->rel = m[ref->rel]; });
    component_terms[root].push_back(std::move(term));
  }
  for (auto& [root, q] : component_query) {
    auto& terms = component_terms[root];
    if (terms.size() == 1) {
      q.where = std::move(terms[0]);
    } else if (!terms.empty()) {
      q.where = MakeBoundAnd(std::move(terms));
    }
  }

  part->query = std::move(component_query[h_root]);
  for (auto& [root, q] : component_query) {
    if (root == h_root) continue;
    part->guards.push_back(std::move(q));
  }
}

}  // namespace

[[nodiscard]] Result<RecencyQueryPlan> GenerateNaivePlan(const Database& db,
                                           const RelevanceOptions& options) {
  TRAC_ASSIGN_OR_RETURN(HeartbeatInfo hb, ResolveHeartbeat(db, options));
  RecencyQueryPlan plan;
  plan.fallback_all = true;
  plan.minimal = false;
  plan.analysis.verdict = RecencyGuarantee::kUpperBound;
  plan.analysis.citation = std::string(
      AnalysisCodeCitation(AnalysisCode::kNaiveAllSources, false));
  {
    AnalysisDiagnostic d;
    d.code = AnalysisCode::kNaiveAllSources;
    d.citation = plan.analysis.citation;
    d.message =
        "Naive method: every heartbeat source reported relevant (complete "
        "upper bound)";
    plan.analysis.diagnostics.push_back(std::move(d));
  }
  RecencyQueryPlan::Part part;
  part.query = MakeRecencyScaffold(hb, hb.name);
  part.minimal = false;
  plan.parts.push_back(std::move(part));
  return plan;
}

[[nodiscard]] Result<RecencyQueryPlan> GenerateRecencyQueries(
    const Database& db, const BoundQuery& user_query,
    const RelevanceOptions& options) {
  TRAC_ASSIGN_OR_RETURN(HeartbeatInfo hb, ResolveHeartbeat(db, options));
  const std::string hb_alias = UniqueHeartbeatAlias(user_query);
  const size_t num_rels = user_query.relations.size();

  // The static walk (Section 3.4's Q' = Q ∧ C, DNF normalization,
  // Notation 6 term classes, per-conjunct satisfiability) lives in the
  // analyzer; plan generation consumes the same per-conjunct views the
  // verdict is derived from, so plan and verdict cannot disagree.
  GuaranteeOptions gopts;
  gopts.normalize = options.normalize;
  gopts.sat = options.sat;
  TRAC_ASSIGN_OR_RETURN(QueryAnalysis analysis,
                        AnalyzeQuery(db, user_query, gopts));

  // DNF blow-up falls back to the complete Naive answer (never an
  // error: completeness first). The analyzer's report — kUpperBound
  // with the TRAC-W004 diagnostic — replaces the Naive plan's own.
  if (analysis.report.dnf_overflow) {
    RecencyQueryPlan plan;
    TRAC_ASSIGN_OR_RETURN(plan, GenerateNaivePlan(db, options));
    plan.analysis = analysis.report;
    return plan;
  }

  RecencyQueryPlan plan;
  plan.analysis = analysis.report;

  for (size_t ci = 0; ci < analysis.conjuncts.size(); ++ci) {
    const ConjunctAnalysis& ca = analysis.conjuncts[ci];
    // Corollaries 2 / 6: a conjunct whose predicates are unsatisfiable
    // over the column domains contributes nothing.
    if (ca.sat == Sat::kUnsat) continue;

    for (const ConjunctRelationView& view : ca.relations) {
      // S(C, R_i) = ∅ when the selection predicates on R_i alone are
      // unsatisfiable over the domains.
      if (view.selection_sat == Sat::kUnsat) continue;
      const size_t ri = view.relation;

      // Build the part: H × R_j (j != i) with P_s' ∧ J_s' ∧ P_o.
      RecencyQueryPlan::Part part;
      part.via_relation = ri;
      part.conjunct = ci;
      part.minimal = view.minimal;
      part.query = MakeRecencyScaffold(hb, hb_alias);

      // Relation remapping: user slot j -> recency slot.
      std::vector<size_t> remap(num_rels, SIZE_MAX);
      for (size_t j = 0; j < num_rels; ++j) {
        if (j == ri) continue;
        remap[j] = part.query.relations.size();
        part.query.relations.push_back(user_query.relations[j]);
      }

      auto rewrite = [&](BoundColumnRef* ref) {
        if (ref->rel == ri) {
          // Only the data source column of R_i may appear here (terms in
          // P_s and J_s reference no other R_i column by construction):
          // substitute H.c_s for R_i.c_s (Notations 5 and 7).
          ref->rel = 0;
          ref->col = hb.source_col;
          ref->type = TypeId::kString;
        } else {
          ref->rel = remap[ref->rel];
        }
      };

      std::vector<BoundExprPtr> where_terms;
      for (const std::vector<const BasicTerm*>* group :
           {&view.ps, &view.js, &view.po}) {
        for (const BasicTerm* term : *group) {
          BoundExprPtr cloned = term->expr->Clone();
          cloned->RewriteColumnRefs(rewrite);
          where_terms.push_back(std::move(cloned));
        }
      }
      SplitPartIntoGuards(db, &part, std::move(where_terms));
      plan.parts.push_back(std::move(part));
    }
  }

  plan.minimal = plan.analysis.verdict != RecencyGuarantee::kUpperBound;
  return plan;
}

namespace {

/// Output of one execution task. A registry walk builds its final
/// list in `walked`: one SourceRecency per source, strictly ascending by
/// source, each string built once while its row version is in cache.
/// A planned part leaves its unmerged rows in `rows`: (source, recency)
/// pairs in emission order, duplicates allowed (the merge dedups), each
/// source a view into the part's own `result`, which outlives the merge.
struct RecencyTaskResult {
  Status status = Status::OK();
  std::vector<SourceRecency> walked;
  std::vector<std::pair<std::string_view, Timestamp>> rows;
  /// Backing storage for a planned part's `rows`.
  ResultSet result;
  int64_t micros = 0;
  /// Per-operator profile under options.profile. One slot per task, so
  /// each strand writes only its own — race-free by construction.
  TaskProfile profile;

  size_t num_rows() const { return walked.size() + rows.size(); }
};

/// A registry walk: a pure Heartbeat scan read through the registry's
/// source_id index in key order, in place. A key's versions come in
/// version order, so the first one visible at `snapshot` is the source's
/// first row in scan order, and the rest are skipped. The list comes out
/// strictly ascending by source, one entry per source. NULL sources are
/// never indexed.
void RunHeartbeatWalk(const Database& db, const RecencyQueryPlan::Part& part,
                      const OrderedIndex& index, Snapshot snapshot,
                      std::vector<SourceRecency>* out) {
  const Table* table = db.GetTable(part.query.relations[0].table_id);
  const size_t src_col = index.column();
  const size_t rec_col = part.query.outputs[1].ref.col;
  // Every visible source has an index entry, so the list does not
  // regrow mid-walk unless a writer inserts meanwhile.
  out->reserve(index.num_entries());
  // Runs under the index's shared lock: reads only immutable row
  // versions and takes no lock.
  index.ScanInKeyOrder([&](size_t vidx) {
    const RowVersion& v = table->version(vidx);
    if (!table->Visible(v, snapshot)) return;
    const std::string& source = v.values[src_col].str_val();
    if (!out->empty() && out->back().source == source) return;
    const Value& recency = v.values[rec_col];
    out->emplace_back(
        source, recency.is_null() ? Timestamp() : recency.ts_val());
  });
}

/// Runs one part: guards first (any empty guard kills the part), then
/// the registry walk or the main query. Returns whether every guard
/// passed and the walk or main query ran. `profile`, when non-null,
/// collects one ExecProfile per executed guard plus the main query's;
/// `clock` enables its stage timings.
bool RunPartTask(const Database& db, const RecencyQueryPlan::Part& part,
                 const PlannedPart& planned, Snapshot snapshot,
                 TaskProfile* profile, ClockFn clock,
                 RecencyTaskResult* out) {
  for (size_t g = 0; g < part.guards.size(); ++g) {
    ExecProfile* gprof = nullptr;
    if (profile != nullptr) {
      profile->guards.emplace_back();
      gprof = &profile->guards.back();
    }
    // A guard projects one column (never COUNT(*)): nonempty iff a row.
    Result<ResultSet> guard =
        ExecutePlan(db, part.guards[g], planned.guards[g], snapshot,
                    /*row_limit=*/1, gprof, clock);
    if (!guard.ok()) {
      out->status = guard.status();
      return false;
    }
    if (guard->rows.empty()) return false;
  }
  if (planned.walk != nullptr) {
    RunHeartbeatWalk(db, part, *planned.walk, snapshot, &out->walked);
  } else {
    Result<ResultSet> rs =
        ExecutePlan(db, part.query, planned.main, snapshot, /*row_limit=*/0,
                    profile != nullptr ? &profile->main : nullptr, clock);
    if (!rs.ok()) {
      out->status = rs.status();
      return false;
    }
    // Moving the ResultSet moves its row buffer, not the rows: views
    // taken after the move stay valid as long as `out` does.
    out->result = std::move(*rs);
    out->rows.reserve(out->result.rows.size());
    for (const Row& row : out->result.rows) {
      if (row[0].is_null()) continue;
      out->rows.emplace_back(
          row[0].str_val(),
          row[1].is_null() ? Timestamp() : row[1].ts_val());
    }
  }
  if (profile != nullptr) profile->ran_main = true;
  return true;
}

/// One task row in the set merge. `key` is the source's first 8 bytes,
/// zero-padded and read big-endian, so comparing keys agrees with
/// std::string's byte order on every prefix and most comparisons never
/// touch the string; `seq` is the row's position in task order.
struct MergeEntry {
  uint64_t key;
  uint64_t seq;
  Timestamp recency;
  std::string_view source;
};

constexpr size_t kKeyBytes = sizeof(uint64_t);

/// Swaps between native and big-endian byte order (an involution).
uint64_t BigEndian(uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(v);
  }
  return v;
}

uint64_t PrefixKey(std::string_view s) {
  uint64_t raw = 0;
  std::memcpy(&raw, s.data(), std::min(s.size(), kKeyBytes));
  return BigEndian(raw);
}

/// Three-way std::string order of two entries' sources. On a key tie,
/// sources of at most 8 bytes lie wholly in their keys and are equal up
/// to zero padding, so the shorter is a prefix of the longer: the
/// lengths decide without touching either string.
int CompareSources(const MergeEntry& a, const MergeEntry& b) {
  if (a.key != b.key) return a.key < b.key ? -1 : 1;
  if (a.source.size() <= kKeyBytes && b.source.size() <= kKeyBytes) {
    return (a.source.size() > b.source.size()) -
           (a.source.size() < b.source.size());
  }
  return a.source.compare(b.source);
}

/// The entry's source as a string; one of at most 8 bytes is rebuilt
/// from its key, sparing a read of the (cold) row it views.
std::string SourceString(const MergeEntry& e) {
  if (e.source.size() > kKeyBytes) return std::string(e.source);
  const uint64_t raw = BigEndian(e.key);
  char bytes[kKeyBytes];
  std::memcpy(bytes, &raw, kKeyBytes);
  return std::string(bytes, e.source.size());
}

/// The set union of `results`' rows in task order: one SourceRecency
/// per distinct source, sorted by source, each carrying the recency of
/// the source's first row in task order. One sort over fixed-width
/// entries that view each walk's strings and each planned part's rows,
/// then one string copy per surviving source.
std::vector<SourceRecency> MergeTaskRows(
    const std::vector<RecencyTaskResult>& results, size_t total_rows) {
  std::vector<MergeEntry> entries;
  entries.reserve(total_rows);
  for (const RecencyTaskResult& result : results) {
    for (const SourceRecency& s : result.walked) {
      entries.push_back(
          MergeEntry{PrefixKey(s.source), entries.size(), s.recency, s.source});
    }
    for (const auto& [source, ts] : result.rows) {
      entries.push_back(
          MergeEntry{PrefixKey(source), entries.size(), ts, source});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const MergeEntry& a, const MergeEntry& b) {
              const int c = CompareSources(a, b);
              return c != 0 ? c < 0 : a.seq < b.seq;
            });
  // A run of equal sources starts with its lowest seq; unique keeps it.
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const MergeEntry& a, const MergeEntry& b) {
                              return CompareSources(a, b) == 0;
                            }),
                entries.end());
  std::vector<SourceRecency> merged;
  merged.reserve(entries.size());
  for (const MergeEntry& e : entries) {
    merged.push_back(SourceRecency{SourceString(e), e.recency});
  }
  return merged;
}

/// Whether `part`'s main query is a pure Heartbeat scan; it may still
/// have EXISTS guards.
bool IsPureHeartbeatScan(const RecencyQueryPlan::Part& part) {
  const BoundQuery& q = part.query;
  return q.relations.size() == 1 &&
         q.where == nullptr && q.outputs.size() == 2 &&
         q.outputs[0].ref.rel == 0 && q.outputs[1].ref.rel == 0 &&
         q.aggregates.empty() && !q.count_star && q.order_by.empty() &&
         q.limit == 0;
}

}  // namespace

size_t PlannedHeartbeatShards(const Database&,
                              const RecencyQueryPlan::Part&, size_t) {
  return 1;
}

[[nodiscard]] Result<std::vector<PlannedPart>> PlanRecencyParts(
    const Database& db, const RecencyQueryPlan& plan, Snapshot snapshot) {
  std::vector<PlannedPart> planned(plan.parts.size());
  for (size_t i = 0; i < plan.parts.size(); ++i) {
    const RecencyQueryPlan::Part& part = plan.parts[i];
    PlannedPart& out = planned[i];
    if (IsPureHeartbeatScan(part)) {
      const Table* table = db.GetTable(part.query.relations[0].table_id);
      out.walk = table->GetIndex(part.query.outputs[0].ref.col);
    }
    if (out.walk == nullptr) {
      TRAC_ASSIGN_OR_RETURN(out.main, PlanQuery(db, part.query, snapshot));
    }
    out.guards.resize(part.guards.size());
    for (size_t g = 0; g < part.guards.size(); ++g) {
      TRAC_ASSIGN_OR_RETURN(out.guards[g],
                            PlanQuery(db, part.guards[g], snapshot));
    }
  }
  return planned;
}

[[nodiscard]] Result<ReportSession> PlanReportSession(
    const Database& db, const BoundQuery& user_query,
    const RecencyQueryPlan& plan, Snapshot snapshot) {
  ReportSession session;
  // A proven-unsatisfiable user predicate plans to an empty result.
  PlanningHints hints;
  hints.guarantee = &plan.analysis;
  TRAC_ASSIGN_OR_RETURN(session.user_plan,
                        PlanQuery(db, user_query, snapshot, hints));
  // The statistics walk runs for the user query only: a part or guard
  // plan over the registry would re-walk it after every heartbeat.
  CollectTableStats(db, user_query, session.user_plan);
  TRAC_ASSIGN_OR_RETURN(session.parts,
                        PlanRecencyParts(db, plan, snapshot));
  return session;
}

PlanIr LowerReportSessionPlans(const Database& db, const BoundQuery& user_query,
                               const RecencyQueryPlan& plan,
                               const ReportSession& session, Snapshot snapshot,
                               std::string_view heartbeat_table,
                               uint64_t session_id, SessionLayout* layout) {
  ReportSessionInput input;
  input.user_query = &user_query;
  input.user_plan = &session.user_plan;
  input.snapshot = snapshot;
  input.parts.resize(plan.parts.size());
  for (size_t i = 0; i < plan.parts.size(); ++i) {
    const PlannedPart& planned = session.parts[i];
    SessionPartInput& in = input.parts[i];
    in.query = &plan.parts[i].query;
    if (planned.walk == nullptr) in.plan = &planned.main;
    for (size_t g = 0; g < planned.guards.size(); ++g) {
      in.guard_queries.push_back(&plan.parts[i].guards[g]);
      in.guard_plans.push_back(&planned.guards[g]);
    }
  }
  if (session_id != 0) {
    // Stand-ins for the names CreateTempTable allocates later.
    input.temp_writes = {"sys_temp_a", "sys_temp_e"};
    input.session = session_id;
  }
  LowerOptions lower;
  lower.heartbeat_table = std::string(heartbeat_table);
  return LowerReportSession(db, input, lower, layout);
}

[[nodiscard]] Result<RecencyExecution> ExecuteRecencyQueriesDetailed(
    const Database& db, const RecencyQueryPlan& plan, Snapshot snapshot,
    const RelevanceOptions& options) {
  TRAC_ASSIGN_OR_RETURN(std::vector<PlannedPart> planned,
                        PlanRecencyParts(db, plan, snapshot));
  return ExecuteRecencyQueriesDetailed(db, plan, planned, snapshot, options);
}

[[nodiscard]] Result<RecencyExecution> ExecuteRecencyQueriesDetailed(
    const Database& db, const RecencyQueryPlan& plan,
    const std::vector<PlannedPart>& planned, Snapshot snapshot,
    const RelevanceOptions& options) {
  if (planned.size() != plan.parts.size()) {
    return Status::InvalidArgument("planned parts do not match the plan");
  }
  const size_t parallelism = std::max<size_t>(1, options.parallelism);

  // Telemetry is resolved once per call; the task histogram pointer and
  // trace linkage are shared read-only across strands (Observe/Record
  // are thread-safe).
  const Telemetry& tel = ResolveTelemetry(options.telemetry);
  const ClockFn clock = tel.clock;
  Histogram* task_histogram =
      ResolveSeries(tel.metrics, [](MetricRegistry& metrics) {
        return metrics.GetHistogram(
            "trac_relevance_task_micros",
            "Wall time of one relevance execution task (one per executed "
            "part)");
      });
  Tracer* tracer = options.trace_id != 0 ? tel.tracer : nullptr;
  const uint64_t trace_id = options.trace_id;
  const uint64_t parent_span_id = options.parent_span_id;

  // One task per executed part; one result slot per part: no shared
  // mutable state between strands — every task reads the shared
  // immutable plan/snapshot and writes only its own slot. The merge
  // numbers rows in part order, so the first row of a source wins at
  // any parallelism: identical results.
  const bool profiling = options.profile;
  std::vector<RecencyTaskResult> results(plan.parts.size());
  // Runs part i as one task; returns whether its guards passed.
  auto run_task = [&db, &plan, &planned, &results, snapshot, clock, profiling,
                   task_histogram, tracer, trace_id, parent_span_id](size_t i) {
    RecencyTaskResult* out = &results[i];
    out->profile.part = i;
    const int64_t t0 = clock();
    const bool ran = RunPartTask(db, plan.parts[i], planned[i], snapshot,
                                 profiling ? &out->profile : nullptr, clock,
                                 out);
    const int64_t t1 = clock();
    out->micros = t1 - t0;
    out->profile.micros = out->micros;
    out->profile.rows = out->num_rows();
    task_histogram->Observe(out->micros);
    if (tracer != nullptr) {
      // Built from the same t0/t1 as out->micros, so the span durations
      // sum to exactly the busy time the report publishes.
      SpanRecord span;
      span.trace_id = trace_id;
      span.span_id = tracer->NextSpanId();
      span.parent_id = parent_span_id;
      span.name = "relevance-task";
      span.start_micros = t0;
      span.end_micros = t1;
      tracer->Record(std::move(span));
    }
    return ran;
  };

  // The skip rule: a walk part that runs emits every non-NULL source
  // visible at the snapshot, so a later part's rows name only sources
  // it already gave a recency, and the first row in part order wins.
  // Parts after the first walk whose guards pass are not run. A guarded
  // walk runs whole here, on the calling thread, to learn whether its
  // guards pass; an unguarded one always runs, in the fan-out.
  const auto guarded_walk = [&plan, &planned](size_t i) {
    return planned[i].walk != nullptr && !plan.parts[i].guards.empty();
  };
  size_t end = plan.parts.size();
  for (size_t i = 0; i < end; ++i) {
    if (planned[i].walk == nullptr) continue;
    if (guarded_walk(i) && !run_task(i)) continue;
    end = i + 1;
    break;
  }
  results.resize(end);

  std::vector<std::function<void()>> tasks;
  tasks.reserve(end);
  for (size_t i = 0; i < end; ++i) {
    if (!guarded_walk(i)) tasks.push_back([&run_task, i] { run_task(i); });
  }
  ThreadPool* pool = parallelism > 1 ? &ThreadPool::Shared() : nullptr;
  RunOnPool(pool, parallelism, tasks);

  RecencyExecution exec;
  exec.parallelism = parallelism;
  const int64_t merge_t0 = clock();
  size_t with_rows = 0;
  RecencyTaskResult* last_with_rows = nullptr;
  for (RecencyTaskResult& result : results) {
    TRAC_RETURN_IF_ERROR(result.status);
    exec.premerge_rows += result.num_rows();
    exec.task_micros.push_back(result.micros);
    if (profiling) exec.task_profiles.push_back(std::move(result.profile));
    if (result.num_rows() != 0) {
      ++with_rows;
      last_with_rows = &result;
    }
  }
  // A walk's list is already the union when no other task has rows.
  if (with_rows == 1 && last_with_rows->rows.empty()) {
    exec.sources = std::move(last_with_rows->walked);
  } else {
    exec.sources = MergeTaskRows(results, exec.premerge_rows);
  }
  exec.merge_micros = clock() - merge_t0;
  return exec;
}

std::string RecencyPartSql(const Database& db,
                           const RecencyQueryPlan::Part& part) {
  std::string sql = part.query.ToSql(db);
  bool has_where = part.query.where != nullptr;
  for (const BoundQuery& guard : part.guards) {
    sql += has_where ? " AND EXISTS (" : " WHERE EXISTS (";
    sql += guard.ToSql(db) + ")";
    has_where = true;
  }
  return sql;
}

std::vector<std::string> RelevanceResult::SourceIds() const {
  std::vector<std::string> ids;
  ids.reserve(sources.size());
  for (const SourceRecency& s : sources) ids.push_back(s.source);
  return ids;
}

[[nodiscard]] Result<RelevanceResult> ComputeRelevantSources(const Database& db,
                                               const BoundQuery& user_query,
                                               Snapshot snapshot,
                                               const RelevanceOptions& options) {
  TRAC_ASSIGN_OR_RETURN(RecencyQueryPlan plan,
                        GenerateRecencyQueries(db, user_query, options));
  TRAC_ASSIGN_OR_RETURN(
      RecencyExecution exec,
      ExecuteRecencyQueriesDetailed(db, plan, snapshot, options));
  RelevanceResult result;
  result.sources = std::move(exec.sources);
  result.minimal = plan.minimal;
  result.fallback_all = plan.fallback_all;
  result.analysis = plan.analysis;
  return result;
}

}  // namespace trac

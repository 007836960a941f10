#include "exec/executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/dcheck.h"
#include "expr/binder.h"
#include "expr/evaluator.h"
#include "telemetry/metrics.h"
#include "telemetry/profile.h"
#include "verify/verifier.h"

namespace trac {

bool ResultSet::Contains(const Row& row) const {
  for (const Row& r : rows) {
    if (r == row) return true;
  }
  return false;
}

std::string ResultSet::ToString() const {
  std::string out;
  for (size_t i = 0; i < column_names.size(); ++i) {
    if (i != 0) out += " | ";
    out += column_names[i];
  }
  out += "\n";
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

namespace {

/// Runtime state for one plan level.
struct LevelState {
  const LevelPlan* plan = nullptr;
  const Table* table = nullptr;

  /// Filtered candidate rows (hash-join build input / nested-loop inner),
  /// prepared once. Unused for level 0 and index-nested-loop levels.
  std::vector<const Row*> rows;
  /// Hash table over `rows` keyed by the build columns.
  std::unordered_multimap<size_t, const Row*> hash;
  bool prepared = false;
};

class Execution {
 public:
  Execution(const Database& db, const BoundQuery& query, Snapshot snapshot,
            const QueryPlan& plan, size_t row_limit, ExecProfile* profile,
            ClockFn clock)
      : db_(db),
        query_(query),
        snapshot_(snapshot),
        plan_(plan),
        row_limit_(row_limit),
        profile_(profile),
        // Clock reads are gated on a sink being attached: without one
        // the timings would be dropped anyway, and the unprofiled path
        // must stay free of time syscalls.
        clock_(profile != nullptr ? clock : nullptr) {}

  [[nodiscard]] Result<ResultSet> Run() {
    // The structure flags are derived from the same plan fields the
    // lowering's node grammar keys on (ir/lower.cc), so the attach walk
    // in telemetry/profile.cc can re-derive the exact node sequence.
    prof_.levels.resize(plan_.levels.size());
    for (size_t i = 0; i < plan_.levels.size(); ++i) {
      const LevelPlan& lp = plan_.levels[i];
      prof_.levels[i].has_filter =
          lp.use_local_index || !lp.local_preds.empty();
      if (i > 0) prof_.levels[i].has_level_filter = !lp.level_preds.empty();
    }
    prof_.has_const_filter =
        !plan_.constant_preds.empty() || plan_.provably_empty;
    prof_.has_agg = query_.count_star || !query_.aggregates.empty();
    prof_.invocations = 1;

    const int64_t t0 = clock_ != nullptr ? clock_() : 0;
    Result<ResultSet> result = RunQuery();
    if (clock_ != nullptr) prof_.total_ns = (clock_() - t0) * 1000;
    if (result.ok()) prof_.output_rows = result->rows.size();
    if (profile_ != nullptr) *profile_ = std::move(prof_);
    return result;
  }

 private:
  [[nodiscard]] Result<ResultSet> RunQuery() {
    ResultSet result;
    if (query_.count_star) {
      result.column_names.push_back("count");
    } else if (!query_.aggregates.empty()) {
      for (const auto& agg : query_.aggregates) {
        result.column_names.push_back(agg.name);
      }
      agg_states_.resize(query_.aggregates.size());
    } else {
      for (const auto& out : query_.outputs) {
        result.column_names.push_back(out.name);
      }
    }

    // A statically proven-empty plan (guarantee analysis, TRAC-E001)
    // produces its zero-row / zero-count result without touching
    // storage, exactly like a constant-FALSE predicate.
    if (plan_.provably_empty) {
      if (query_.count_star) {
        result.rows.push_back({Value::Int(0)});
      } else if (!query_.aggregates.empty()) {
        result.rows.push_back(FinishAggregates());
      }
      return result;
    }

    // Constant predicates (e.g. WHERE FALSE) decide everything upfront.
    TupleView empty(query_.relations.size(), nullptr);
    for (const BoundExpr* e : plan_.constant_preds) {
      TRAC_ASSIGN_OR_RETURN(TriBool v, EvalPredicate(*e, empty));
      if (!IsTrue(v)) {
        if (query_.count_star) {
          result.rows.push_back({Value::Int(0)});
        } else if (!query_.aggregates.empty()) {
          result.rows.push_back(FinishAggregates());
        }
        return result;
      }
    }

    levels_.resize(plan_.levels.size());
    for (size_t i = 0; i < plan_.levels.size(); ++i) {
      levels_[i].plan = &plan_.levels[i];
      levels_[i].table =
          db_.GetTable(query_.relations[plan_.levels[i].relation].table_id);
    }

    tuple_.assign(query_.relations.size(), nullptr);
    count_ = 0;
    out_rows_.clear();
    sort_keys_.clear();
    distinct_seen_.clear();

    // Fold the query's own LIMIT into the early-exit limit, but only
    // when no ORDER BY forces us to see every row first.
    const bool ordered = !query_.order_by.empty() && !query_.count_star;
    // LIMIT truncates output rows; a COUNT(*) result is one row, so the
    // limit must not stop the counting itself.
    if (query_.limit != 0 && !ordered && !query_.count_star &&
        query_.aggregates.empty() &&
        (row_limit_ == 0 || query_.limit < row_limit_)) {
      row_limit_ = query_.limit;
    }
    const size_t post_limit =
        ordered ? (row_limit_ != 0 && (query_.limit == 0 ||
                                       row_limit_ < query_.limit)
                       ? row_limit_
                       : query_.limit)
                : 0;
    if (ordered) row_limit_ = 0;  // No early exit under ORDER BY.

    TRAC_RETURN_IF_ERROR(RunLevel(0));

    if (query_.count_star) {
      result.rows.push_back({Value::Int(count_)});
      return result;
    }
    if (!query_.aggregates.empty()) {
      result.rows.push_back(FinishAggregates());
      return result;
    }
    if (ordered) {
      // Sort by the key rows captured at emission time: SQL order with
      // NULLs first, structural order as the incomparable-type fallback.
      std::vector<size_t> order(out_rows_.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) {
                         return KeyLess(sort_keys_[a], sort_keys_[b]);
                       });
      std::vector<Row> sorted;
      sorted.reserve(out_rows_.size());
      for (size_t i : order) sorted.push_back(std::move(out_rows_[i]));
      if (post_limit != 0 && sorted.size() > post_limit) {
        sorted.resize(post_limit);
      }
      result.rows = std::move(sorted);
      return result;
    }
    result.rows = std::move(out_rows_);
    return result;
  }

  /// Lexicographic ORDER BY comparison over key rows.
  bool KeyLess(const Row& a, const Row& b) const {
    for (size_t k = 0; k < query_.order_by.size(); ++k) {
      const bool desc = query_.order_by[k].descending;
      const Value& x = desc ? b[k] : a[k];
      const Value& y = desc ? a[k] : b[k];
      if (x.is_null() || y.is_null()) {
        if (x.is_null() != y.is_null()) return x.is_null();  // NULLs first.
        continue;
      }
      auto cmp = Value::Compare(x, y);
      int c = cmp.ok() ? *cmp : (x < y ? -1 : (y < x ? 1 : 0));
      if (c != 0) return c < 0;
    }
    return false;
  }

 private:
  /// Hash of the values of `cols` taken from the full tuple context.
  static size_t HashKeyValues(const std::vector<Value>& vals) {
    size_t seed = vals.size();
    for (const Value& v : vals) {
      seed ^= v.Hash() + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2);
    }
    return seed;
  }

  [[nodiscard]] Result<bool> PassesPreds(const std::vector<const BoundExpr*>& preds) {
    for (const BoundExpr* e : preds) {
      TRAC_ASSIGN_OR_RETURN(TriBool v, EvalPredicate(*e, tuple_));
      if (!IsTrue(v)) return false;
    }
    return true;
  }

  /// Prepares the candidate row list (and hash table) of level `i`.
  [[nodiscard]] Status PrepareLevel(size_t i) {
    LevelState& state = levels_[i];
    const LevelPlan& lp = *state.plan;
    const size_t rel = lp.relation;
    ExecProfile::Level& lprof = prof_.levels[i];
    const int64_t t0 = clock_ != nullptr ? clock_() : 0;

    auto consider = [&](const Row& row) -> Status {
      ++lprof.scan_rows;
      tuple_[rel] = &row;
      TRAC_ASSIGN_OR_RETURN(bool ok, PassesPreds(lp.local_preds));
      if (ok) {
        ++lprof.filter_rows;
        state.rows.push_back(&row);
      }
      return Status::OK();
    };

    Status status = Status::OK();
    if (lp.use_local_index) {
      const OrderedIndex* index = state.table->GetIndex(lp.index_column);
      for (const Value& key : lp.index_keys) {
        index->ScanEqual(key, [&](size_t vidx) {
          if (!status.ok()) return;
          const RowVersion& v = state.table->version(vidx);
          if (state.table->Visible(v, snapshot_)) {
            Status s = consider(v.values);
            if (!s.ok()) status = s;
          }
        });
      }
    } else {
      state.table->Scan(snapshot_, [&](size_t, const Row& row) {
        if (!status.ok()) return;
        Status s = consider(row);
        if (!s.ok()) status = s;
      });
    }
    tuple_[rel] = nullptr;
    TRAC_RETURN_IF_ERROR(status);

    if (!lp.equi_keys.empty() && !lp.index_nested_loop) {
      state.hash.reserve(state.rows.size());
      for (const Row* row : state.rows) {
        std::vector<Value> key;
        key.reserve(lp.equi_keys.size());
        for (const auto& ek : lp.equi_keys) key.push_back((*row)[ek.build.col]);
        bool any_null = false;
        for (const Value& v : key) any_null |= v.is_null();
        if (any_null) continue;  // NULL never joins.
        state.hash.emplace(HashKeyValues(key), row);
      }
    }
    state.prepared = true;
    if (clock_ != nullptr) lprof.prepare_ns = (clock_() - t0) * 1000;
    return Status::OK();
  }

  [[nodiscard]] Status RunLevel(size_t depth) {
    if (done_) return Status::OK();
    if (depth == plan_.levels.size()) return Emit();
    LevelState& state = levels_[depth];
    const LevelPlan& lp = *state.plan;
    const size_t rel = lp.relation;

    auto try_row = [&](const Row& row) -> Status {
      ++prof_.levels[depth].join_rows;
      tuple_[rel] = &row;
      TRAC_ASSIGN_OR_RETURN(bool ok, PassesPreds(lp.level_preds));
      if (ok) {
        ++prof_.levels[depth].level_rows;
        TRAC_RETURN_IF_ERROR(RunLevel(depth + 1));
      }
      tuple_[rel] = nullptr;
      return Status::OK();
    };

    if (depth == 0) {
      // Stream the outermost relation straight off storage.
      Status status = Status::OK();
      auto consider = [&](const Row& row) {
        if (!status.ok() || done_) return;
        ++prof_.levels[0].scan_rows;
        tuple_[rel] = &row;
        Result<bool> ok = PassesPreds(lp.local_preds);
        if (!ok.ok()) {
          status = ok.status();
          return;
        }
        if (*ok) {
          ++prof_.levels[0].filter_rows;
          Status s = RunLevel(1);
          if (!s.ok()) status = s;
        }
      };
      if (lp.use_local_index) {
        const OrderedIndex* index = state.table->GetIndex(lp.index_column);
        for (const Value& key : lp.index_keys) {
          if (done_) break;
          index->ScanEqual(key, [&](size_t vidx) {
            if (done_) return;
            const RowVersion& v = state.table->version(vidx);
            if (state.table->Visible(v, snapshot_)) consider(v.values);
          });
        }
      } else {
        state.table->ScanWhile(snapshot_, [&](size_t, const Row& row) {
          consider(row);
          return status.ok() && !done_;
        });
      }
      tuple_[rel] = nullptr;
      return status;
    }

    if (lp.index_nested_loop) {
      // Per-probe lookup on the first equi key; the rest of the equi
      // keys plus local/level predicates are evaluated per row.
      const OrderedIndex* index = state.table->GetIndex(lp.equi_keys[0].build.col);
      const BoundColumnRef& probe_ref = lp.equi_keys[0].probe;
      const Value& probe = (*tuple_[probe_ref.rel])[probe_ref.col];
      if (probe.is_null()) return Status::OK();
      Status status = Status::OK();
      index->ScanEqual(probe, [&](size_t vidx) {
        if (!status.ok()) return;
        const RowVersion& v = state.table->version(vidx);
        if (!state.table->Visible(v, snapshot_)) return;
        ++prof_.levels[depth].scan_rows;
        tuple_[rel] = &v.values;
        // Remaining equi keys.
        for (size_t k = 1; k < lp.equi_keys.size(); ++k) {
          const auto& ek = lp.equi_keys[k];
          const Value& a = (*tuple_[ek.probe.rel])[ek.probe.col];
          const Value& b = v.values[ek.build.col];
          auto cmp = Value::Compare(a, b);
          if (!cmp.ok() || *cmp != 0) {
            tuple_[rel] = nullptr;
            return;
          }
        }
        Result<bool> ok = PassesPreds(lp.local_preds);
        if (ok.ok() && *ok) {
          ++prof_.levels[depth].filter_rows;
          Status s = try_row(v.values);
          if (!s.ok()) status = s;
        } else if (!ok.ok()) {
          status = ok.status();
        }
        tuple_[rel] = nullptr;
      });
      return status;
    }

    if (!state.prepared) TRAC_RETURN_IF_ERROR(PrepareLevel(depth));

    if (!lp.equi_keys.empty()) {
      std::vector<Value> key;
      key.reserve(lp.equi_keys.size());
      for (const auto& ek : lp.equi_keys) {
        const Value& v = (*tuple_[ek.probe.rel])[ek.probe.col];
        if (v.is_null()) return Status::OK();
        key.push_back(v);
      }
      auto [lo, hi] = state.hash.equal_range(HashKeyValues(key));
      for (auto it = lo; it != hi && !done_; ++it) {
        const Row& row = *it->second;
        // Re-check the key (hash collisions).
        bool match = true;
        for (size_t k = 0; k < lp.equi_keys.size(); ++k) {
          auto cmp = Value::Compare(key[k], row[lp.equi_keys[k].build.col]);
          if (!cmp.ok() || *cmp != 0) {
            match = false;
            break;
          }
        }
        if (match) TRAC_RETURN_IF_ERROR(try_row(row));
      }
      return Status::OK();
    }

    // No equi key: nested loop over the filtered inner rows.
    for (const Row* row : state.rows) {
      if (done_) break;
      TRAC_RETURN_IF_ERROR(try_row(*row));
    }
    return Status::OK();
  }

  [[nodiscard]] Status Emit() {
    ++prof_.emitted_rows;
    if (query_.count_star) {
      ++count_;
      if (row_limit_ != 0 && static_cast<size_t>(count_) >= row_limit_) {
        done_ = true;
      }
      return Status::OK();
    }
    if (!query_.aggregates.empty()) {
      for (size_t i = 0; i < query_.aggregates.size(); ++i) {
        const BoundQuery::Aggregate& agg = query_.aggregates[i];
        AggState& state = agg_states_[i];
        if (agg.fn == AggFn::kCountStar) {
          ++state.count;
          continue;
        }
        const Value& v = (*tuple_[agg.arg.rel])[agg.arg.col];
        if (v.is_null()) continue;  // SQL aggregates skip NULLs.
        ++state.count;
        switch (agg.fn) {
          case AggFn::kSum:
          case AggFn::kAvg:
            if (v.type() == TypeId::kInt64) {
              state.sum_int += v.int_val();
            } else {
              state.sum_is_double = true;
            }
            state.sum_double += v.AsDouble();
            break;
          case AggFn::kMin:
          case AggFn::kMax: {
            if (!state.any) {
              state.min = v;
              state.max = v;
              state.any = true;
              break;
            }
            TRAC_ASSIGN_OR_RETURN(int lo, Value::Compare(v, state.min));
            if (lo < 0) state.min = v;
            TRAC_ASSIGN_OR_RETURN(int hi, Value::Compare(v, state.max));
            if (hi > 0) state.max = v;
            break;
          }
          default:
            break;  // COUNT(col): the increment above is all.
        }
      }
      return Status::OK();
    }
    Row out;
    out.reserve(query_.outputs.size());
    for (const auto& oc : query_.outputs) {
      out.push_back((*tuple_[oc.ref.rel])[oc.ref.col]);
    }
    if (query_.distinct) {
      auto [it, inserted] = distinct_seen_.insert(out);
      if (!inserted) return Status::OK();
    }
    if (!query_.order_by.empty()) {
      Row key;
      key.reserve(query_.order_by.size());
      for (const auto& ok : query_.order_by) {
        key.push_back((*tuple_[ok.ref.rel])[ok.ref.col]);
      }
      sort_keys_.push_back(std::move(key));
    }
    out_rows_.push_back(std::move(out));
    if (row_limit_ != 0 && out_rows_.size() >= row_limit_) done_ = true;
    return Status::OK();
  }

  const Database& db_;
  const BoundQuery& query_;
  Snapshot snapshot_;
  const QueryPlan& plan_;
  size_t row_limit_ = 0;  // 0: unlimited.
  bool done_ = false;

  /// Row counters accumulate here unconditionally (plain increments on
  /// this stack-local state — no branch, no sharing); the result is
  /// copied out to `profile_` once at the end of Run(). `clock_` is
  /// non-null only when a sink is attached.
  ExecProfile prof_;
  ExecProfile* const profile_ = nullptr;
  const ClockFn clock_ = nullptr;

  std::vector<LevelState> levels_;
  TupleView tuple_;
  /// Accumulator for one aggregate select-list item.
  struct AggState {
    int64_t count = 0;
    int64_t sum_int = 0;
    double sum_double = 0;
    bool sum_is_double = false;
    bool any = false;
    Value min, max;
  };

  /// Materializes the single aggregate output row.
  Row FinishAggregates() const {
    Row row;
    row.reserve(query_.aggregates.size());
    for (size_t i = 0; i < query_.aggregates.size(); ++i) {
      const BoundQuery::Aggregate& agg = query_.aggregates[i];
      const AggState& state = agg_states_[i];
      switch (agg.fn) {
        case AggFn::kCountStar:
        case AggFn::kCount:
          row.push_back(Value::Int(state.count));
          break;
        case AggFn::kSum:
          if (state.count == 0) {
            row.push_back(Value::Null());
          } else if (state.sum_is_double ||
                     agg.arg.type == TypeId::kDouble) {
            row.push_back(Value::Double(state.sum_double));
          } else {
            row.push_back(Value::Int(state.sum_int));
          }
          break;
        case AggFn::kAvg:
          row.push_back(state.count == 0
                            ? Value::Null()
                            : Value::Double(state.sum_double /
                                            static_cast<double>(state.count)));
          break;
        case AggFn::kMin:
          row.push_back(state.any ? state.min : Value::Null());
          break;
        case AggFn::kMax:
          row.push_back(state.any ? state.max : Value::Null());
          break;
        case AggFn::kNone:
          row.push_back(Value::Null());
          break;
      }
    }
    return row;
  }

  int64_t count_ = 0;
  std::vector<AggState> agg_states_;
  std::vector<Row> out_rows_;
  std::vector<Row> sort_keys_;  ///< Parallel to out_rows_ under ORDER BY.
  std::unordered_set<Row, RowHash> distinct_seen_;
};

}  // namespace

[[nodiscard]] Result<ResultSet> ExecuteQuery(const Database& db, const BoundQuery& query,
                               Snapshot snapshot,
                               const PlanningHints& hints,
                               ExecProfile* profile, ClockFn clock) {
  TRAC_ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(db, query, snapshot, hints));
  return ExecutePlan(db, query, plan, snapshot, /*row_limit=*/0, profile,
                     clock);
}

[[nodiscard]] Result<ResultSet> ExecutePlan(const Database& db,
                                            const BoundQuery& query,
                                            const QueryPlan& plan,
                                            Snapshot snapshot,
                                            size_t row_limit,
                                            ExecProfile* profile,
                                            ClockFn clock) {
  static Counter* queries_executed = MetricRegistry::Default().GetCounter(
      "trac_queries_executed_total",
      "Bound queries executed (user, recency, and guard queries)");
  queries_executed->Increment();
#if defined(TRAC_DEBUG_INVARIANTS)
  // No release path verifies a plan. With invariants armed, every
  // executed plan is verified alone here, so neither a planner bug nor a
  // plan mutated (or hand-built) after planning can slip through.
  const Status reverified = VerifyPlan(db, query, plan, snapshot);
  TRAC_DCHECK(reverified.ok(), reverified.message().c_str());
#endif
  Execution exec(db, query, snapshot, plan, row_limit, profile, clock);
  return exec.Run();
}

[[nodiscard]] Result<bool> QueryHasResults(const Database& db, const BoundQuery& query,
                             Snapshot snapshot, ExecProfile* profile,
                             ClockFn clock) {
  TRAC_ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(db, query, snapshot));
  TRAC_ASSIGN_OR_RETURN(ResultSet rs, ExecutePlan(db, query, plan, snapshot,
                                                  1, profile, clock));
  if (query.count_star) return rs.count() > 0;
  return rs.num_rows() > 0;
}

[[nodiscard]] Result<ResultSet> ExecuteSql(const Database& db, std::string_view sql) {
  TRAC_ASSIGN_OR_RETURN(BoundQuery query, BindSql(db, sql));
  return ExecuteQuery(db, query, db.LatestSnapshot());
}

}  // namespace trac

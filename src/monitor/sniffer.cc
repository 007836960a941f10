#include "monitor/sniffer.h"

#include "expr/constraints.h"

namespace trac {

void Sniffer::EnsureMetrics() {
  if (metric_polls_ != nullptr) return;
  MetricRegistry& registry = options_.metrics != nullptr
                                 ? *options_.metrics
                                 : MetricRegistry::Default();
  const LabelSet labels = {{"source", source_->id()}};
  metric_polls_ = registry.GetCounter(
      "trac_sniffer_polls_total", "Sniffer poll cycles (including paused)",
      labels);
  metric_shipped_ = registry.GetCounter(
      "trac_sniffer_records_shipped_total",
      "Log records shipped into the database by this source's sniffer",
      labels);
  metric_backlog_ = registry.GetGauge(
      "trac_sniffer_backlog_records",
      "Log records written by the source but not yet shipped", labels);
  metric_lag_ = registry.GetGauge(
      "trac_sniffer_lag_micros",
      "Sniffer lag: poll time minus event time of the newest shipped record",
      labels);
}

Status Sniffer::Poll(Timestamp now) {
  next_poll_ = now + options_.poll_interval_micros;
  last_poll_ = now;
  ++polls_;
  // A log truncated below the cursor lost only already-shipped records;
  // clamp so the backlog arithmetic below stays well defined.
  if (cursor_ > source_->log().size()) cursor_ = source_->log().size();
  EnsureMetrics();
  metric_polls_->Increment();
  // Backlog and lag are published even while paused: a paused sniffer is
  // exactly the failure the dashboard must surface (backlog grows, lag
  // stretches while the DB's view of the source goes stale).
  metric_backlog_->Set(
      static_cast<int64_t>(source_->log().size() - cursor_));
  if (shipped_anything_)
    metric_lag_->Set(now.micros() - last_shipped_event_.micros());
  if (paused_) return Status::OK();

  const LogFile& log = source_->log();
  Timestamp latest_shipped;
  int64_t shipped_this_poll = 0;
  bool shipped_any = false;
  while (cursor_ < log.size()) {
    const LogRecord& record = log.record(cursor_);
    if (record.event_time + options_.ship_delay_micros > now) break;
    TRAC_RETURN_IF_ERROR(Apply(record));
    latest_shipped = record.event_time;
    shipped_any = true;
    ++shipped_this_poll;
    ++cursor_;
  }
  if (shipped_any) {
    metric_shipped_->Add(shipped_this_poll);
    last_shipped_event_ = latest_shipped;
    shipped_anything_ = true;
    metric_backlog_->Set(static_cast<int64_t>(log.size() - cursor_));
    metric_lag_->Set(now.micros() - latest_shipped.micros());
    // The simple recency protocol of Section 3.1: the recency timestamp
    // is the most recent event reported by this source. kHeartbeat
    // records make otherwise-quiet sources advance too.
    TRAC_RETURN_IF_ERROR(
        heartbeat_->ReportHeartbeat(source_->id(), latest_shipped));
  }
  return Status::OK();
}

Status Sniffer::Apply(const LogRecord& record) {
  if (record.op == LogRecord::Op::kHeartbeat) return Status::OK();

  TRAC_ASSIGN_OR_RETURN(TableId table_id, db_->FindTable(record.table));
  const TableSchema& schema = db_->catalog().schema(table_id);

  // Enforce the schema model of Section 3.3: only updates from source s
  // may insert or change tuples tagged with s.
  std::optional<size_t> ds = schema.data_source_column();
  if (ds.has_value()) {
    const Value& tag = record.row.at(*ds);
    if (tag.is_null() || tag.str_val() != source_->id()) {
      return Status::InvalidArgument(
          "source '" + source_->id() + "' emitted a row tagged '" +
          tag.ToString() + "' for table '" + record.table + "'");
    }
  }

  // CHECK constraints are enforced at the ingest boundary (inserted and
  // upserted rows must be legal instances).
  if (record.op == LogRecord::Op::kInsert ||
      record.op == LogRecord::Op::kUpsert) {
    TRAC_RETURN_IF_ERROR(CheckRowConstraints(*db_, table_id, record.row));
  }

  if (record.op == LogRecord::Op::kInsert) {
    return db_->Insert(record.table, record.row);
  }

  auto matches = [&](const Row& row) {
    for (size_t k : record.key_columns) {
      if (!(row[k] == record.row[k])) return false;
    }
    // Never touch another source's tuples.
    if (ds.has_value() && !(row[*ds] == record.row[*ds])) return false;
    return true;
  };
  // The same conjuncts as keys: an index on any of their columns turns
  // the match into an index probe.
  std::vector<EqualityKey> keys;
  for (size_t k : record.key_columns) keys.push_back({k, record.row[k]});
  if (ds.has_value()) keys.push_back({*ds, record.row[*ds]});

  if (record.op == LogRecord::Op::kUpsert) {
    return db_
        ->Upsert(
            record.table, matches,
            [&](Row* row) {
              *row = record.row;
              return true;
            },
            record.row, keys)
        .status();
  }
  // kDelete. Deleting nothing is legal (idempotent logs).
  return db_->DeleteWhere(record.table, matches, keys).status();
}

}  // namespace trac

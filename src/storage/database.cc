#include "storage/database.h"

#include "telemetry/metrics.h"

namespace trac {

Database::Database()
    : metric_commits_(MetricRegistry::Default().GetCounter(
          "trac_storage_commits_total",
          "Committed mutations (auto-commit statements)")),
      metric_row_versions_(MetricRegistry::Default().GetCounter(
          "trac_storage_row_versions_total",
          "Row versions appended to shelf logs (MVCC log growth)")),
      metric_temp_tables_(MetricRegistry::Default().GetCounter(
          "trac_storage_temp_tables_created_total",
          "Session temp tables (sys_temp_*) created by report sessions")),
      metric_snapshot_epoch_(MetricRegistry::Default().GetGauge(
          "trac_storage_snapshot_epoch",
          "Latest committed snapshot version (commit counter)")),
      metric_tables_(MetricRegistry::Default().GetGauge(
          "trac_storage_tables", "Live tables in the catalog")) {}

Result<TableId> Database::CreateTable(TableSchema schema) {
  MutexLock lock(&write_mu_);
  const bool is_temp = schema.name().rfind("sys_temp_", 0) == 0;
  TRAC_ASSIGN_OR_RETURN(TableId id, catalog_.CreateTable(std::move(schema)));
  // Resolve the catalog schema pointer before taking tables_mu_: the
  // global lock order is catalog (kCatalog) before the table registry
  // (kTableRegistry), never the reverse.
  const TableSchema* table_schema = &catalog_.schema(id);
  {
    WriterMutexLock tables_lock(&tables_mu_);
    tables_.push_back(std::make_unique<Table>(id, table_schema));
  }
  metric_tables_->Add(1);
  if (is_temp) metric_temp_tables_->Increment();
  return id;
}

Status Database::DropTable(std::string_view name) {
  MutexLock lock(&write_mu_);
  const Status status = catalog_.DropTable(name);
  if (status.ok()) metric_tables_->Add(-1);
  return status;
}

Status Database::PrepareRow(const TableSchema& schema, Row* row) {
  // Normalize int64 values stored in double columns before validation so
  // index keys and comparisons see a single representation per column.
  if (row->size() == schema.num_columns()) {
    for (size_t i = 0; i < row->size(); ++i) {
      if (schema.column(i).type == TypeId::kDouble &&
          (*row)[i].type() == TypeId::kInt64) {
        (*row)[i] = Value::Double(static_cast<double>((*row)[i].int_val()));
      }
    }
  }
  return schema.ValidateRow(*row);
}

void Database::Publish(uint64_t commit, int64_t row_versions) {
  version_counter_.store(commit, std::memory_order_release);
  metric_commits_->Increment();
  metric_row_versions_->Add(row_versions);
  metric_snapshot_epoch_->Set(static_cast<int64_t>(commit));
}

Result<int> Database::Rewrite(Table* t, uint64_t commit,
                              const std::vector<size_t>& matches,
                              const std::function<bool(Row*)>& mutate) {
  std::vector<std::pair<size_t, Row>> rewrites;
  for (size_t vidx : matches) {
    Row updated = t->version(vidx).values;
    if (!mutate(&updated)) continue;
    TRAC_RETURN_IF_ERROR(PrepareRow(t->schema(), &updated));
    rewrites.emplace_back(vidx, std::move(updated));
  }
  for (auto& [vidx, updated] : rewrites) {
    t->CloseVersion(vidx, commit);
    t->AppendVersion(std::move(updated), commit);
  }
  return static_cast<int>(rewrites.size());
}

Status Database::Insert(std::string_view table, Row row) {
  TRAC_ASSIGN_OR_RETURN(TableId id, FindTable(table));
  MutexLock lock(&write_mu_);
  Table* t = GetTable(id);
  TRAC_RETURN_IF_ERROR(PrepareRow(t->schema(), &row));
  const uint64_t commit = NextCommit();
  t->AppendVersion(std::move(row), commit);
  Publish(commit, 1);
  return Status::OK();
}

Status Database::InsertMany(TableId table, std::vector<Row> rows) {
  MutexLock lock(&write_mu_);
  if (!catalog_.IsLive(table)) {
    return Status::NotFound("table id is not live");
  }
  Table* t = GetTable(table);
  for (Row& row : rows) {
    TRAC_RETURN_IF_ERROR(PrepareRow(t->schema(), &row));
  }
  const uint64_t commit = NextCommit();
  for (Row& row : rows) {
    t->AppendVersion(std::move(row), commit);
  }
  Publish(commit, static_cast<int64_t>(rows.size()));
  return Status::OK();
}

Result<int> Database::UpdateWhere(std::string_view table,
                                  const std::function<bool(const Row&)>& pred,
                                  const std::function<void(Row*)>& mutate,
                                  const std::vector<EqualityKey>& keys) {
  TRAC_ASSIGN_OR_RETURN(TableId id, FindTable(table));
  MutexLock lock(&write_mu_);
  Table* t = GetTable(id);
  const uint64_t commit = NextCommit();
  // Matches are collected before any append, so the rewrite never
  // revisits versions it just wrote.
  TRAC_ASSIGN_OR_RETURN(
      int updated,
      Rewrite(t, commit, t->Matches(Snapshot{commit - 1}, keys, pred),
              [&](Row* row) {
                mutate(row);
                return true;
              }));
  Publish(commit, updated);
  return updated;
}

Result<int> Database::DeleteWhere(std::string_view table,
                                  const std::function<bool(const Row&)>& pred,
                                  const std::vector<EqualityKey>& keys) {
  TRAC_ASSIGN_OR_RETURN(TableId id, FindTable(table));
  MutexLock lock(&write_mu_);
  Table* t = GetTable(id);
  const uint64_t commit = NextCommit();
  const std::vector<size_t> matches =
      t->Matches(Snapshot{commit - 1}, keys, pred);
  for (size_t vidx : matches) t->CloseVersion(vidx, commit);
  Publish(commit, 0);
  return static_cast<int>(matches.size());
}

Result<UpsertResult> Database::Upsert(
    std::string_view table, const std::function<bool(const Row&)>& pred,
    const std::function<bool(Row*)>& mutate, Row row,
    const std::vector<EqualityKey>& keys) {
  TRAC_ASSIGN_OR_RETURN(TableId id, FindTable(table));
  MutexLock lock(&write_mu_);
  Table* t = GetTable(id);
  const uint64_t commit = NextCommit();
  const std::vector<size_t> matches =
      t->Matches(Snapshot{commit - 1}, keys, pred);
  UpsertResult result;
  if (matches.empty()) {
    TRAC_RETURN_IF_ERROR(PrepareRow(t->schema(), &row));
    t->AppendVersion(std::move(row), commit);
    result.inserted = true;
  } else {
    TRAC_ASSIGN_OR_RETURN(result.updated,
                          Rewrite(t, commit, matches, mutate));
  }
  Publish(commit, result.updated + (result.inserted ? 1 : 0));
  return result;
}

Status Database::CreateIndex(std::string_view table, std::string_view column) {
  TRAC_ASSIGN_OR_RETURN(TableId id, FindTable(table));
  MutexLock lock(&write_mu_);
  Table* t = GetTable(id);
  std::optional<size_t> col = t->schema().FindColumn(column);
  if (!col.has_value()) {
    return Status::NotFound("no column '" + std::string(column) +
                            "' in table '" + std::string(table) + "'");
  }
  return t->CreateIndex(*col);
}

}  // namespace trac

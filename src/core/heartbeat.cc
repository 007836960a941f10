#include "core/heartbeat.h"

#include <algorithm>

namespace trac {

Result<HeartbeatTable> HeartbeatTable::Create(Database* db,
                                              std::string_view name) {
  TableSchema schema(std::string(name),
                     {ColumnDef(std::string(kSourceColumn), TypeId::kString),
                      ColumnDef(std::string(kRecencyColumn),
                                TypeId::kTimestamp)});
  TRAC_ASSIGN_OR_RETURN(TableId id, db->CreateTable(std::move(schema)));
  TRAC_RETURN_IF_ERROR(db->CreateIndex(name, kSourceColumn));
  return Bind(db, id, name);
}

Result<HeartbeatTable> HeartbeatTable::Open(Database* db,
                                            std::string_view name) {
  TRAC_ASSIGN_OR_RETURN(TableId id, db->FindTable(name));
  return Bind(db, id, name);
}

Result<HeartbeatTable> HeartbeatTable::Bind(Database* db, TableId id,
                                            std::string_view name) {
  const TableSchema& schema = db->catalog().schema(id);
  const std::optional<size_t> source_col = schema.FindColumn(kSourceColumn);
  const std::optional<size_t> recency_col = schema.FindColumn(kRecencyColumn);
  if (!source_col.has_value() || !recency_col.has_value() ||
      schema.column(*source_col).type != TypeId::kString ||
      schema.column(*recency_col).type != TypeId::kTimestamp) {
    return Status::InvalidArgument("table '" + std::string(name) +
                                   "' does not have the heartbeat schema");
  }
  return HeartbeatTable(db, id, std::string(name), *source_col,
                        *recency_col);
}

Status HeartbeatTable::Write(const std::string& source, Timestamp recency,
                             bool advance_only) {
  Row row(db_->catalog().schema(table_id_).num_columns());
  row[source_col_] = Value::Str(source);
  row[recency_col_] = Value::Ts(recency);
  return db_
      ->Upsert(
          name_, [&](const Row& r) { return IsSource(r, source); },
          [&](Row* r) {
            Value& current = (*r)[recency_col_];
            if (advance_only && !current.is_null() &&
                current.ts_val() >= recency) {
              return false;
            }
            current = Value::Ts(recency);
            return true;
          },
          std::move(row), {{source_col_, Value::Str(source)}})
      .status();
}

Status HeartbeatTable::ReportHeartbeat(const std::string& source,
                                       Timestamp recency) {
  return Write(source, recency, /*advance_only=*/true);
}

Status HeartbeatTable::SetRecency(const std::string& source,
                                  Timestamp recency) {
  return Write(source, recency, /*advance_only=*/false);
}

Result<Timestamp> HeartbeatTable::Get(const std::string& source,
                                      Snapshot snap) const {
  const Table* table = db_->GetTable(table_id_);
  const std::vector<size_t> rows =
      table->Matches(snap, {{source_col_, Value::Str(source)}},
                     [&](const Row& r) { return IsSource(r, source); });
  if (rows.empty()) {
    return Status::NotFound("source '" + source + "' has never reported");
  }
  return RecencyOf(table->version(rows.back()).values);
}

std::vector<std::pair<std::string, Timestamp>> HeartbeatTable::GetAll(
    Snapshot snap) const {
  std::vector<std::pair<std::string, Timestamp>> out;
  db_->GetTable(table_id_)->Scan(snap, [&](size_t, const Row& row) {
    const Value& s = row[source_col_];
    if (!s.is_null()) out.emplace_back(s.str_val(), RecencyOf(row));
  });
  std::sort(out.begin(), out.end());
  return out;
}

size_t HeartbeatTable::NumSources(Snapshot snap) const {
  size_t count = 0;
  db_->GetTable(table_id_)->Scan(snap, [&](size_t, const Row& row) {
    if (!row[source_col_].is_null()) ++count;
  });
  return count;
}

}  // namespace trac

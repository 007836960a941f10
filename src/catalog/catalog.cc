#include "catalog/catalog.h"

#include "common/str_util.h"

namespace trac {

Result<TableId> Catalog::CreateTable(TableSchema schema) {
  if (schema.name().empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  WriterMutexLock lock(&mu_);
  if (GetTableIdLocked(schema.name()).ok()) {
    return Status::AlreadyExists("table '" + schema.name() +
                                 "' already exists");
  }
  entries_.push_back(Entry{std::move(schema), /*live=*/true});
  return entries_.size() - 1;
}

Result<TableId> Catalog::GetTableIdLocked(std::string_view name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].live &&
        EqualsIgnoreCaseAscii(entries_[i].schema.name(), name)) {
      return i;
    }
  }
  return Status::NotFound("no table named '" + std::string(name) + "'");
}

Result<TableId> Catalog::GetTableId(std::string_view name) const {
  ReaderMutexLock lock(&mu_);
  return GetTableIdLocked(name);
}

Status Catalog::DropTable(std::string_view name) {
  WriterMutexLock lock(&mu_);
  TRAC_ASSIGN_OR_RETURN(TableId id, GetTableIdLocked(name));
  entries_[id].live = false;
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  ReaderMutexLock lock(&mu_);
  std::vector<std::string> names;
  for (const Entry& e : entries_) {
    if (e.live) names.push_back(e.schema.name());
  }
  return names;
}

}  // namespace trac

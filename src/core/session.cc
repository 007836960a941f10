#include "core/session.h"

#include "common/dcheck.h"

namespace trac {

/// RAII witness for the Session thread-confinement contract: entry
/// increments active_calls_ and (under TRAC_DEBUG_INVARIANTS) aborts if
/// a call from a *different* thread is already in flight — which can
/// only happen when two threads share one Session, the documented
/// misuse. Same-thread nesting (Materialize -> DropTempTable) is fine.
class SessionConfinementWitness {
 public:
  explicit SessionConfinementWitness(const Session& session)
      : session_(session) {
    const int prior =
        session_.active_calls_.fetch_add(1, std::memory_order_acq_rel);
    if (prior == 0) {
      session_.owner_.store(std::this_thread::get_id(),
                            std::memory_order_release);
    } else {
      TRAC_DCHECK(session_.owner_.load(std::memory_order_acquire) ==
                      std::this_thread::get_id(),
                  "Session is thread-confined: a second thread entered "
                  "while a call on another thread was still executing");
    }
  }
  ~SessionConfinementWitness() {
    session_.active_calls_.fetch_sub(1, std::memory_order_acq_rel);
  }

  SessionConfinementWitness(const SessionConfinementWitness&) = delete;
  SessionConfinementWitness& operator=(const SessionConfinementWitness&) =
      delete;

 private:
  const Session& session_;
};

Session::~Session() {
  for (const std::string& name : temp_tables_) {
    (void)db_->DropTable(name);  // Best effort; table may be materialized.
  }
}

Result<std::string> Session::CreateTempTable(std::string_view prefix,
                                             std::vector<ColumnDef> columns,
                                             std::vector<Row> rows) {
  SessionConfinementWitness witness(*this);
  // The id comes from the Database, not from a process-wide global: a
  // process hosting several Databases used to burn one shared counter
  // for all of them, and the global survived Database teardown, making
  // generated names depend on unrelated history. Per-Database allocation
  // keeps the contract local: every fetch_add is observed by exactly one
  // session, so concurrent reporters can never produce the same
  // sys_temp_a*/sys_temp_e* name on one Database; a user table holding
  // the name is skipped.
  for (;;) {
    std::string name =
        std::string(prefix) + std::to_string(db_->NextTempTableId());
    Result<TableId> id = db_->CreateTable(TableSchema(name, columns));
    if (id.status().code() == StatusCode::kAlreadyExists) continue;
    TRAC_RETURN_IF_ERROR(id.status());
    TRAC_RETURN_IF_ERROR(db_->InsertMany(*id, std::move(rows)));
    temp_tables_.push_back(name);
    return name;
  }
}

Status Session::Materialize(std::string_view temp_name,
                            std::string_view permanent_name) {
  SessionConfinementWitness witness(*this);
  TRAC_ASSIGN_OR_RETURN(TableId src_id, db_->FindTable(temp_name));
  const TableSchema& src_schema = db_->catalog().schema(src_id);
  TableSchema dst_schema(std::string(permanent_name), src_schema.columns());
  TRAC_ASSIGN_OR_RETURN(TableId dst_id,
                        db_->CreateTable(std::move(dst_schema)));
  std::vector<Row> rows;
  const Table* src = db_->GetTable(src_id);
  src->Scan(db_->LatestSnapshot(),
            [&](size_t, const Row& row) { rows.push_back(row); });
  TRAC_RETURN_IF_ERROR(db_->InsertMany(dst_id, std::move(rows)));
  return DropTempTable(temp_name);
}

Status Session::DropTempTable(std::string_view name) {
  SessionConfinementWitness witness(*this);
  for (auto it = temp_tables_.begin(); it != temp_tables_.end(); ++it) {
    if (*it == name) {
      temp_tables_.erase(it);
      return db_->DropTable(name);
    }
  }
  return Status::NotFound("no temp table named '" + std::string(name) +
                          "' in this session");
}

}  // namespace trac

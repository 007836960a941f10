#ifndef TRAC_CORE_SESSION_H_
#define TRAC_CORE_SESSION_H_

#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "storage/database.h"

namespace trac {

/// A user session owning temporary tables. The recency reporter stores
/// each report's relevant-source snapshots in session temp tables
/// (sys_temp_aNNN / sys_temp_eNNN, echoing the prototype's PostgreSQL
/// table names); they stay queryable through normal SQL until the
/// session ends, unless the user materializes them first (Section 4.3:
/// "the user can decide whether to copy it to a permanent table before
/// the end of a session").
///
/// Temp-table naming contract: the numeric suffix is drawn from the
/// owning Database's atomic allocator (Database::NextTempTableId), so
/// names are unique across ALL sessions of that Database — two sessions
/// reporting concurrently from different threads can never collide on a
/// sys_temp_a*/sys_temp_e* name (regression-tested in
/// tests/concurrency/temp_table_naming_test.cc). A Session object itself
/// is confined to one thread at a time: concurrency comes from one
/// session per thread, all sharing the Database. The confinement
/// contract is deliberately lock-free — a Session carries no mutex — so
/// under TRAC_DEBUG_INVARIANTS every mutating entry point asserts that
/// no other call is in flight (see session.cc), turning accidental
/// cross-thread sharing into a deterministic abort instead of a race.
class Session {
 public:
  explicit Session(Database* db) : db_(db), id_(db->NextSessionId()) {}
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Database* db() const { return db_; }

  /// Nonzero id unique among this Database's sessions; the plan
  /// verifier's session-confinement rule (TRAC-V002) keys on it.
  uint64_t id() const { return id_; }

  /// Creates a temp table named `<prefix><N>` with the given columns and
  /// rows; returns the generated name. An N whose name a user table
  /// already holds is skipped.
  [[nodiscard]] Result<std::string> CreateTempTable(std::string_view prefix,
                                      std::vector<ColumnDef> columns,
                                      std::vector<Row> rows);

  /// Renames a temp table into a permanent one (it survives the session).
  /// Implemented as create-copy + drop, like the prototype's "copy it to
  /// a permanent table".
  [[nodiscard]] Status Materialize(std::string_view temp_name,
                     std::string_view permanent_name);

  /// Drops one temp table now.
  [[nodiscard]] Status DropTempTable(std::string_view name);

  const std::vector<std::string>& temp_tables() const { return temp_tables_; }

 private:
  friend class SessionConfinementWitness;

  Database* db_;
  const uint64_t id_;
  std::vector<std::string> temp_tables_;
  /// Confinement witness state: count of Session calls currently
  /// executing and the thread owning the outermost one. Same-thread
  /// reentrancy (Materialize -> DropTempTable) is allowed; overlap from
  /// a second thread aborts under TRAC_DEBUG_INVARIANTS. Always present
  /// so the layout does not depend on the flag.
  mutable std::atomic<int> active_calls_{0};
  mutable std::atomic<std::thread::id> owner_{};
};

}  // namespace trac

#endif  // TRAC_CORE_SESSION_H_

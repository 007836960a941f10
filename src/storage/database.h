#ifndef TRAC_STORAGE_DATABASE_H_
#define TRAC_STORAGE_DATABASE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/snapshot.h"
#include "storage/table.h"

namespace trac {

class Counter;
class Gauge;

/// What one Database::Upsert wrote.
struct UpsertResult {
  /// Matching rows replaced by a new version.
  int updated = 0;
  /// True when no visible row matched and the new row was inserted.
  bool inserted = false;
};

/// The embedded database: a catalog plus MVCC tables plus a monotonically
/// increasing commit-version counter.
///
/// ## Concurrency contract (reader/writer memory ordering)
///
/// Any number of reader threads may take Snapshots and evaluate queries
/// concurrently with each other and with writers. Writers (Insert,
/// InsertMany, UpdateWhere, DeleteWhere, Upsert, CreateTable, DropTable,
/// CreateIndex) are serialized by `write_mu_`; there is never more than
/// one mutation in flight.
///
/// Snapshot isolation hangs off a single release/acquire edge on
/// `version_counter_`:
///
///  1. The writer fully applies a commit — constructs row versions,
///     closes superseded ones (atomic RowVersion::end), updates
///     secondary indexes — all tagged with commit version c, while the
///     counter still reads c - 1.
///  2. It then publishes with `version_counter_.store(c, release)`.
///  3. A reader's `LatestSnapshot()` does `load(acquire)`. If it reads
///     >= c, the release/acquire pair makes every write of step 1
///     visible to that reader; if it reads < c, MVCC visibility checks
///     (`begin <= snap < end`) reject the half-ordered commit's versions
///     even when some of its stores happen to be visible early (the
///     version log publishes row storage with its own release edge, and
///     RowVersion::end is atomic — see table.h).
///
/// Consequences readers may rely on:
///  - A Snapshot is frozen: scanning it yields the same rows no matter
///    how much later history accumulates (torn reads are impossible —
///    rows are immutable after publication).
///  - Commits are atomic: a snapshot sees all of commit c or none of it.
///  - Commit order is the counter order, so per-writer program order is
///    observed as a prefix: if a thread's k-th write is visible, so are
///    its first k-1.
///
/// Out of contract: dropping or re-creating a table concurrently with
/// readers that still resolve it by name (name lookup and row access are
/// separate steps; the storage stays alive, but name-based lookups may
/// spuriously fail mid-drop), and in-place schema mutation (CHECK
/// constraints) concurrent with binding. Both are setup-time operations.
/// Creating *new* tables (e.g. session temp tables) concurrently with
/// readers is supported: the catalog and the table registry are guarded
/// by reader/writer locks.
class Database {
 public:
  Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Creates a table from `schema`. AlreadyExists on name clash.
  [[nodiscard]] Result<TableId> CreateTable(TableSchema schema)
      TRAC_EXCLUDES(write_mu_, tables_mu_);

  /// Drops a table by name (its storage is kept until shutdown, but it
  /// disappears from the catalog and from name lookups).
  [[nodiscard]] Status DropTable(std::string_view name) TRAC_EXCLUDES(write_mu_);

  [[nodiscard]] Result<TableId> FindTable(std::string_view name) const {
    return catalog_.GetTableId(name);
  }

  /// Table storage by id. The returned pointer is stable for the
  /// Database's lifetime (dropped tables keep their storage).
  Table* GetTable(TableId id) TRAC_EXCLUDES(tables_mu_) {
    ReaderMutexLock lock(&tables_mu_);
    return tables_[id].get();
  }
  const Table* GetTable(TableId id) const TRAC_EXCLUDES(tables_mu_) {
    ReaderMutexLock lock(&tables_mu_);
    return tables_[id].get();
  }

  /// Read view of everything committed so far.
  Snapshot LatestSnapshot() const {
    return Snapshot{version_counter_.load(std::memory_order_acquire)};
  }

  /// Inserts one row (auto-commit). The row is validated against the
  /// schema and numerically normalized (int literals into double columns).
  [[nodiscard]] Status Insert(std::string_view table, Row row) TRAC_EXCLUDES(write_mu_);

  /// Bulk load: inserts all rows under a single commit version. Much
  /// faster than row-at-a-time and atomically visible.
  [[nodiscard]] Status InsertMany(TableId table, std::vector<Row> rows)
      TRAC_EXCLUDES(write_mu_);

  /// Updates every currently visible row matching `pred` by applying
  /// `mutate` to a copy (auto-commit). Returns the number updated.
  ///
  /// `keys` are optional conjuncts of `pred` that let the matches be
  /// found through an index (see Table::Matches); the result does not
  /// depend on which indexes exist.
  [[nodiscard]] Result<int> UpdateWhere(
      std::string_view table, const std::function<bool(const Row&)>& pred,
      const std::function<void(Row*)>& mutate,
      const std::vector<EqualityKey>& keys = {}) TRAC_EXCLUDES(write_mu_);

  /// Deletes every currently visible row matching `pred` (auto-commit).
  /// Returns the number deleted. `keys` as for UpdateWhere.
  [[nodiscard]] Result<int> DeleteWhere(
      std::string_view table, const std::function<bool(const Row&)>& pred,
      const std::vector<EqualityKey>& keys = {}) TRAC_EXCLUDES(write_mu_);

  /// Update-or-insert in one commit. When some currently visible row
  /// matches `pred`, applies `mutate` to a copy of each match and writes
  /// the copies for which it returns true (false leaves that row as it
  /// is); when none matches, inserts `row`. The commit is taken even
  /// when nothing is written. `keys` as for UpdateWhere. Because the
  /// match and the insert happen under one write lock, two racing
  /// upserts of the same key never both insert.
  [[nodiscard]] Result<UpsertResult> Upsert(
      std::string_view table, const std::function<bool(const Row&)>& pred,
      const std::function<bool(Row*)>& mutate, Row row,
      const std::vector<EqualityKey>& keys = {}) TRAC_EXCLUDES(write_mu_);

  /// Creates an ordered index on `table`.`column`. Setup-time: must not
  /// run concurrently with readers of the same table (see table.h).
  [[nodiscard]] Status CreateIndex(std::string_view table, std::string_view column)
      TRAC_EXCLUDES(write_mu_);

  /// Allocates the next id for session temp-table names. Monotonic and
  /// unique per Database (every allocation is observed by exactly one
  /// caller), so concurrently reporting sessions never collide — the
  /// naming contract Session::CreateTempTable documents.
  uint64_t NextTempTableId() {
    return temp_name_counter_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Allocates the next session id (nonzero, unique per Database). The
  /// plan verifier's session-confinement rule (TRAC-V002) identifies a
  /// report session's temp nodes by this id; 0 is reserved for "no
  /// session".
  uint64_t NextSessionId() {
    return session_counter_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  /// Validates and normalizes `row` in place against `schema`.
  [[nodiscard]] static Status PrepareRow(const TableSchema& schema, Row* row);

  /// The version the next commit publishes.
  uint64_t NextCommit() const TRAC_REQUIRES(write_mu_) {
    return version_counter_.load(std::memory_order_relaxed) + 1;
  }

  /// Replaces each version in `matches` whose copy `mutate` changes
  /// (returns true for) with that copy, at `commit`. Every copy is
  /// validated before the log is touched, so a rejected row leaves the
  /// table as it was. Returns the number of rows replaced.
  [[nodiscard]] static Result<int> Rewrite(
      Table* t, uint64_t commit, const std::vector<size_t>& matches,
      const std::function<bool(Row*)>& mutate);

  /// Publishes `commit`, which appended `row_versions` versions, to
  /// readers and records it in the storage metrics.
  void Publish(uint64_t commit, int64_t row_versions)
      TRAC_REQUIRES(write_mu_);

  Catalog catalog_;
  /// Guards growth of tables_ (CreateTable) against concurrent GetTable.
  /// Table pointers themselves are stable for the Database's lifetime.
  mutable SharedMutex tables_mu_{lock_rank::kTableRegistry,
                                 "Database::tables_mu_"};
  /// Indexed by TableId.
  std::deque<std::unique_ptr<Table>> tables_ TRAC_GUARDED_BY(tables_mu_);
  std::atomic<uint64_t> version_counter_{0};
  std::atomic<uint64_t> temp_name_counter_{1000};
  std::atomic<uint64_t> session_counter_{1};
  /// Serializes all mutations; outermost in the global lock order.
  Mutex write_mu_{lock_rank::kDatabaseWrite, "Database::write_mu_"};

  /// Storage-layer telemetry, resolved once at construction from the
  /// process-default registry (registry-owned; never null). Updated only
  /// under write_mu_, scraped lock-free.
  Counter* metric_commits_;
  Counter* metric_row_versions_;
  Counter* metric_temp_tables_;
  Gauge* metric_snapshot_epoch_;
  Gauge* metric_tables_;
};

}  // namespace trac

#endif  // TRAC_STORAGE_DATABASE_H_

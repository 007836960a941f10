#ifndef TRAC_CATALOG_CATALOG_H_
#define TRAC_CATALOG_CATALOG_H_

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "catalog/stats.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace trac {

/// Stable identifier of a table for the lifetime of a Database. Ids are
/// never reused, even after a drop.
using TableId = size_t;

/// Name -> schema mapping. The Catalog owns schemas only; row storage
/// lives in storage::Table objects held by the Database, keyed by the
/// same TableId. Lookups are case-insensitive, matching the SQL layer.
///
/// Concurrency: lookups (GetTableId, IsLive, schema, TableNames) may run
/// concurrently with each other and with CreateTable/DropTable — a
/// reader/writer lock guards the entry list, and entries live in a deque
/// so the TableSchema& returned by schema() stays valid across later
/// creations. Mutating a schema in place (mutable_schema, e.g. to add a
/// CHECK constraint) is a setup-time operation: it must be quiesced
/// against concurrent readers of that same schema.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a new table. Fails with AlreadyExists on a name clash.
  [[nodiscard]] Result<TableId> CreateTable(TableSchema schema);

  /// Id for `name`; NotFound if absent or dropped.
  [[nodiscard]] Result<TableId> GetTableId(std::string_view name) const;

  bool HasTable(std::string_view name) const {
    return GetTableId(name).ok();
  }

  /// Schema access by id. The id must be live (not dropped). The
  /// returned reference is stable for the Catalog's lifetime (entries
  /// live in a deque and are never erased), which is why handing it out
  /// past the lock is sound.
  const TableSchema& schema(TableId id) const {
    ReaderMutexLock lock(&mu_);
    return entries_[id].schema;
  }
  TableSchema& mutable_schema(TableId id) {
    ReaderMutexLock lock(&mu_);
    return entries_[id].schema;
  }

  /// Drops `name` and its cached statistics. The TableId becomes
  /// invalid. NotFound if absent.
  [[nodiscard]] Status DropTable(std::string_view name);

  bool IsLive(TableId id) const {
    ReaderMutexLock lock(&mu_);
    return id < entries_.size() && entries_[id].live;
  }

  /// Number of ids ever allocated (live + dropped); ids are < this.
  size_t NumIds() const {
    ReaderMutexLock lock(&mu_);
    return entries_.size();
  }

  /// Names of all live tables, in creation order.
  std::vector<std::string> TableNames() const;

  /// Caches the statistics walk's result for a live table (unread; see
  /// catalog/stats.h). Overwrites any previous entry; a dropped table
  /// gets none, so a walk racing DropTable cannot bring one back. Const:
  /// the stats cache is metadata about storage contents, not catalog
  /// identity, so read-only query paths may populate it.
  void SetTableStats(TableId id, TableStats stats) const {
    WriterMutexLock lock(&mu_);
    if (id < entries_.size() && entries_[id].live) {
      stats_[id] = std::move(stats);
    }
  }

  /// Whether `id` has cached stats collected at `row_count` row
  /// versions. A stale or missing entry makes the statistics walk
  /// (CollectTableStats in exec/planner.h) re-read the table's indexes
  /// once after each write. Copies nothing.
  bool TableStatsFresh(TableId id, uint64_t row_count) const {
    ReaderMutexLock lock(&mu_);
    auto it = stats_.find(id);
    return it != stats_.end() && it->second.row_count == row_count;
  }

 private:
  /// Lookup without locking; callers hold mu_ (at least shared).
  [[nodiscard]] Result<TableId> GetTableIdLocked(std::string_view name) const
      TRAC_REQUIRES_SHARED(mu_);

  struct Entry {
    TableSchema schema;
    bool live = true;
  };
  mutable SharedMutex mu_{lock_rank::kCatalog, "Catalog::mu_"};
  // Deque: schema references stay valid across CreateTable (Table objects
  // point at their catalog schema).
  std::deque<Entry> entries_ TRAC_GUARDED_BY(mu_);
  /// Statistics cache, keyed by live table id (catalog/stats.h).
  /// Mutable: populated from read-only query paths.
  mutable std::map<TableId, TableStats> stats_ TRAC_GUARDED_BY(mu_);
};

}  // namespace trac

#endif  // TRAC_CATALOG_CATALOG_H_

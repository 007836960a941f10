#include "storage/invariants.h"

#include <string>
#include <vector>

namespace trac {

[[nodiscard]] Status CheckShelfLogMonotonic(const Table& table) {
  const size_t n = table.num_versions();
  uint64_t prev_begin = 0;
  for (size_t i = 0; i < n; ++i) {
    const RowVersion& v = table.version(i);
    if (v.begin < prev_begin) {
      return Status::Internal(
          "shelf log not monotonic in table '" + table.schema().name() +
          "': version " + std::to_string(i) + " begins at " +
          std::to_string(v.begin) + " after a version beginning at " +
          std::to_string(prev_begin));
    }
    const uint64_t end = v.end.load(std::memory_order_acquire);
    if (end != RowVersion::kOpenVersion && end < v.begin) {
      return Status::Internal(
          "version " + std::to_string(i) + " of table '" +
          table.schema().name() + "' ends (" + std::to_string(end) +
          ") before it begins (" + std::to_string(v.begin) + ")");
    }
    prev_begin = v.begin;
  }
  return Status::OK();
}

namespace {

/// The versions among the first `n` that `snap` sees, in version order.
std::vector<size_t> VisibleVersions(const Table& table, Snapshot snap,
                                    size_t n) {
  std::vector<size_t> visible;
  for (size_t i = 0; i < n; ++i) {
    if (table.Visible(table.version(i), snap)) visible.push_back(i);
  }
  return visible;
}

}  // namespace

[[nodiscard]] Status CheckSnapshotImmutable(const Table& table, Snapshot snap) {
  // First pass: capture the visible set. Bound the scan by the version
  // count at entry so a concurrent writer appending versions (which are
  // invisible to `snap` by construction) cannot make the two passes
  // cover different prefixes.
  const size_t n = table.num_versions();
  const std::vector<size_t> first = VisibleVersions(table, snap, n);

  for (size_t vidx : first) {
    const RowVersion& v = table.version(vidx);
    if (v.begin > snap.version) {
      return Status::Internal(
          "snapshot " + std::to_string(snap.version) + " of table '" +
          table.schema().name() + "' observed version " +
          std::to_string(vidx) + " beginning at " + std::to_string(v.begin) +
          " — a frozen snapshot may never see the future");
    }
    const uint64_t end = v.end.load(std::memory_order_acquire);
    if (end != RowVersion::kOpenVersion && end <= snap.version) {
      return Status::Internal(
          "snapshot " + std::to_string(snap.version) + " of table '" +
          table.schema().name() + "' observed version " +
          std::to_string(vidx) + " already closed at " + std::to_string(end));
    }
  }

  // Second pass: the frozen view must be repeatable no matter how much
  // history accumulated in between.
  const std::vector<size_t> second = VisibleVersions(table, snap, n);
  if (first != second) {
    return Status::Internal(
        "snapshot " + std::to_string(snap.version) + " of table '" +
        table.schema().name() + "' is not repeatable: two scans saw " +
        std::to_string(first.size()) + " and " +
        std::to_string(second.size()) + " visible versions");
  }
  return Status::OK();
}

[[nodiscard]] Status CheckDatabaseInvariants(const Database& db) {
  const Snapshot snap = db.LatestSnapshot();
  const size_t num_ids = db.catalog().NumIds();
  for (TableId id = 0; id < num_ids; ++id) {
    if (!db.catalog().IsLive(id)) continue;
    const Table* table = db.GetTable(id);
    if (table == nullptr) {
      return Status::Internal("live table id " + std::to_string(id) +
                              " has no storage");
    }
    TRAC_RETURN_IF_ERROR(CheckShelfLogMonotonic(*table));
    TRAC_RETURN_IF_ERROR(CheckSnapshotImmutable(*table, snap));
  }
  return Status::OK();
}

void DCheckDatabaseInvariants(const Database& db) {
#if defined(TRAC_DEBUG_INVARIANTS)
  const Status status = CheckDatabaseInvariants(db);
  TRAC_DCHECK(status.ok(), status.ToString().c_str());
#else
  (void)db;
#endif
}

}  // namespace trac

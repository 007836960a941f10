#ifndef TRAC_STORAGE_TABLE_H_
#define TRAC_STORAGE_TABLE_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/index.h"
#include "storage/snapshot.h"
#include "types/value.h"

namespace trac {

/// One version of one logical row. A version is visible to a snapshot s
/// iff begin <= s.version and (end == kOpen or end > s.version).
///
/// Concurrency: `begin` and `values` are immutable once the version is
/// published (they are written before the version becomes reachable, see
/// Table below). `end` is the only field mutated after publication —
/// updates/deletes close a version long after readers may hold a
/// reference to it — so it is atomic. A racing reader sees either
/// kOpenVersion or the closing commit version c; both classify the same
/// way for every snapshot older than c, and snapshots at or after c
/// observe the close through the Database version-counter release/acquire
/// edge (see the Database contract).
struct RowVersion {
  static constexpr uint64_t kOpenVersion = 0;

  uint64_t begin = 0;
  std::atomic<uint64_t> end{kOpenVersion};
  Row values;
};

/// One `column == value` conjunct of a row predicate, named so the
/// matching rows can be found through an ordered index on `column`
/// instead of a scan (see Table::Matches). Equality is structural
/// (Value::operator==, under which NULL equals NULL).
struct EqualityKey {
  size_t column;
  Value value;
};

/// An in-memory, multi-versioned heap table.
///
/// Storage is an append-only version log laid out in geometrically
/// growing shelves (512, 1024, 2048, ... versions). Shelves are never
/// moved or freed while the table lives, so a published RowVersion has a
/// stable address forever — readers can hold references across writer
/// appends, and no append ever relocates existing versions (the property
/// the previous std::deque gave us, now with race-free growth metadata).
///
/// Reader/writer contract (enforced together with Database):
///  - Exactly one writer at a time (Database serializes all mutations
///    behind its write mutex).
///  - The writer fully constructs a version (begin, end, values) and
///    only then publishes it with a release store of `published_size_`;
///    readers load `published_size_` with acquire before touching any
///    version, so they never observe a partially built row.
///  - Index maintenance happens before publication of the Database
///    version counter; OrderedIndex additionally guards its internal map
///    (see index.h) because index entries become reachable to concurrent
///    readers as soon as they are inserted.
///  - Updates close the old version via the atomic RowVersion::end.
/// Under this contract every Scan over a fixed Snapshot is repeatable:
/// the visible set is fully determined by the snapshot version.
///
/// CreateIndex back-fills a fresh index structure off to the side and
/// only then registers it under `indexes_mu_` (reader/writer lock), so
/// concurrent GetIndex callers see either no index or a fully built one.
/// Versions appended during the back-fill race are the writer's own
/// problem: CreateIndex runs under the Database write mutex, so no
/// versions can be appended concurrently. Runtime appends into existing
/// indexes are safe (OrderedIndex guards its map).
class Table {
 public:
  /// `schema` must outlive the table; the Database passes a pointer into
  /// its catalog, which is the single source of truth for schemas (so
  /// post-creation schema changes like AddCheckConstraint are seen
  /// everywhere).
  Table(TableId id, const TableSchema* schema) : id_(id), schema_(schema) {}
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }
  const TableSchema& schema() const { return *schema_; }

  /// Number of published versions. Acquire-load: every version with
  /// index < num_versions() is fully constructed and safe to read.
  size_t num_versions() const {
    return published_size_.load(std::memory_order_acquire);
  }
  const RowVersion& version(size_t i) const { return *Locate(i); }

  bool Visible(const RowVersion& v, Snapshot snap) const {
    const uint64_t end = v.end.load(std::memory_order_acquire);
    return v.begin <= snap.version &&
           (end == RowVersion::kOpenVersion || end > snap.version);
  }

  /// Appends a new version visible from `begin_version` on. The row must
  /// already be validated/normalized (Database does both). Returns the
  /// version index. Updates all indexes. Writer-only (Database mutex).
  size_t AppendVersion(Row row, uint64_t begin_version);

  /// Ends the visibility of version `vidx` at `end_version`.
  /// Writer-only (Database mutex).
  void CloseVersion(size_t vidx, uint64_t end_version) {
    Locate(vidx)->end.store(end_version, std::memory_order_release);
  }

  /// Calls fn(version_index, row) for every version visible in `snap`.
  template <typename Fn>
  void Scan(Snapshot snap, Fn fn) const {
    const size_t n = num_versions();
    for (size_t i = 0; i < n; ++i) {
      const RowVersion& v = *Locate(i);
      if (Visible(v, snap)) fn(i, v.values);
    }
  }

  /// Like Scan, but fn returns bool; returning false stops the scan
  /// (used for LIMIT/EXISTS evaluation).
  template <typename Fn>
  void ScanWhile(Snapshot snap, Fn fn) const {
    const size_t n = num_versions();
    for (size_t i = 0; i < n; ++i) {
      const RowVersion& v = *Locate(i);
      if (Visible(v, snap) && !fn(i, v.values)) return;
    }
  }

  /// The versions visible at `snap` that `pred` accepts, in ascending
  /// version order. Every row `pred` accepts must satisfy each of
  /// `keys`. Probes the index of the first non-NULL key whose column
  /// has one (NULL keys are never indexed) and checks each hit against
  /// `pred`; with no such key, scans. Both give the same versions in the
  /// same order. This is the match step of Database's writes, at the
  /// snapshot just before the commit.
  std::vector<size_t> Matches(
      Snapshot snap, const std::vector<EqualityKey>& keys,
      const std::function<bool(const Row&)>& pred) const;

  /// Number of visible rows in `snap` (O(versions)).
  size_t CountVisible(Snapshot snap) const;

  /// Creates an ordered index on column `column`, back-filling existing
  /// versions. AlreadyExists if one is already defined on that column.
  /// Writer-only (Database mutex).
  [[nodiscard]] Status CreateIndex(size_t column) TRAC_EXCLUDES(indexes_mu_);

  /// The index on `column`, or nullptr. The returned pointer is stable
  /// for the table's lifetime (indexes are never dropped).
  const OrderedIndex* GetIndex(size_t column) const
      TRAC_EXCLUDES(indexes_mu_);

  /// Columns with an ordered index, ascending; the columns the
  /// planner's statistics walk visits (catalog/stats.h).
  std::vector<size_t> IndexedColumns() const TRAC_EXCLUDES(indexes_mu_);

 private:
  /// Shelf layout: shelf s holds kBaseShelfSize << s versions, so the
  /// log grows without ever reallocating. 40 shelves cover > 5 * 10^14
  /// versions.
  static constexpr size_t kBaseShelfBits = 9;
  static constexpr size_t kBaseShelfSize = size_t{1} << kBaseShelfBits;
  static constexpr size_t kNumShelves = 40;

  /// Maps a version index to its (shelf, offset) slot. Reads the shelf
  /// pointer with a relaxed load: the pointer store is sequenced before
  /// the release store of published_size_ that made index `i` valid, so
  /// the acquire load in num_versions() already ordered it.
  RowVersion* Locate(size_t i) const {
    const size_t q = (i >> kBaseShelfBits) + 1;
    const size_t shelf = std::bit_width(q) - 1;
    const size_t offset = i - (kBaseShelfSize << shelf) + kBaseShelfSize;
    return shelves_[shelf].load(std::memory_order_relaxed) + offset;
  }

  TableId id_;
  const TableSchema* schema_;

  std::array<std::atomic<RowVersion*>, kNumShelves> shelves_{};
  /// Count of fully constructed versions (readers' bound), release-
  /// published by the single writer after each append.
  std::atomic<size_t> published_size_{0};
  /// Writer-private mirror of published_size_ (avoids reloading).
  /// Accessed only under the Database write mutex, which the analysis
  /// cannot see from here; the single-writer contract covers it.
  size_t append_size_ = 0;

  /// Guards the registry of secondary indexes: GetIndex (readers, any
  /// thread) vs CreateIndex registration (writer). The OrderedIndex
  /// objects themselves are internally synchronized and never removed.
  mutable SharedMutex indexes_mu_{lock_rank::kTableIndexes,
                                  "Table::indexes_mu_"};
  std::map<size_t, std::unique_ptr<OrderedIndex>> indexes_
      TRAC_GUARDED_BY(indexes_mu_);
};

}  // namespace trac

#endif  // TRAC_STORAGE_TABLE_H_

#ifndef TRAC_STORAGE_INDEX_H_
#define TRAC_STORAGE_INDEX_H_

#include <cstddef>
#include <map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "types/value.h"

namespace trac {

/// An ordered secondary index over one column of a table, mapping column
/// values to row-version indexes. It plays the role of the B-tree indexes
/// the paper's evaluation created on the data source columns of the
/// Heartbeat, Activity and Routing tables.
///
/// The index is append-only: entries point at immutable row versions, and
/// MVCC visibility is checked by the caller against each version, so no
/// entry is ever removed. NULL keys are not indexed (SQL comparisons with
/// NULL never evaluate to true, so an index scan can never need them).
///
/// Concurrency: unlike the version log (whose publication point is the
/// Database version counter), a freshly inserted index entry is reachable
/// to concurrent readers immediately, so the underlying map is guarded by
/// a reader/writer lock — one shared acquisition per scan, one exclusive
/// acquisition per insert (writers are already serialized by Database).
/// An entry can therefore be observed before its commit version is
/// published; the caller's MVCC visibility check then rejects it, which
/// is the same verdict a pre-insert reader would reach.
///
/// ScanEqual captures the matching entries under the shared lock and
/// invokes its callback only after releasing it. Entries are never
/// removed, so a captured version index stays valid forever; holding no
/// lock during the callback lets it freely scan tables, other indexes,
/// or re-enter this one (the executor's nested-loop joins do exactly
/// that), with no lock-order constraints between indexes.
/// ScanInKeyOrder is the one exception: it walks the map in place and
/// runs its callback under the shared lock, so the whole index is read
/// once, in order, with no copy. Its callback must take no lock and must
/// not re-enter this index; the registry walk (core/relevance.cc) only
/// reads immutable row versions. An Insert into the index therefore
/// waits until no walk holds the shared lock, and a walk holds it for
/// one pass over the index: with one reporting thread, a registry writer
/// waits for at most one walk. Walks that keep overlapping on several
/// threads can hold a writer off longer, because std::shared_mutex
/// promises writers no preference. `mu_` is the innermost storage rank
/// (lock_rank::kOrderedIndex), so no storage lock is ever taken under
/// it.
class OrderedIndex {
 public:
  explicit OrderedIndex(size_t column) : column_(column) {}

  size_t column() const { return column_; }
  size_t num_entries() const {
    ReaderMutexLock lock(&mu_);
    return map_.size();
  }

  void Insert(const Value& key, size_t version_index) {
    if (key.is_null()) return;
    WriterMutexLock lock(&mu_);
    map_.emplace(key, version_index);
  }

  /// Calls fn(version_index) for every entry with key == `key`, in
  /// ascending version index: a multimap keeps equal keys in insertion
  /// order, and versions are inserted in the order they are appended
  /// (Table::AppendVersion and the CreateIndex back-fill both go in
  /// version order). The write path relies on this to rewrite matches
  /// in the same order as a scan (Table::Matches).
  template <typename Fn>
  void ScanEqual(const Value& key, Fn fn) const {
    std::vector<size_t> matches;
    {
      ReaderMutexLock lock(&mu_);
      auto [lo, hi] = map_.equal_range(key);
      for (auto it = lo; it != hi; ++it) matches.push_back(it->second);
    }
    for (size_t vidx : matches) fn(vidx);
  }

  /// Calls fn(version_index) for every entry, in ascending key order and,
  /// within a key, in ascending version index (see ScanEqual). The
  /// registry walk (core/relevance.cc) relies on both orders. Runs `fn`
  /// under the shared lock (see the class comment): `fn` takes no lock.
  template <typename Fn>
  void ScanInKeyOrder(Fn fn) const {
    ReaderMutexLock lock(&mu_);
    for (const auto& entry : map_) fn(entry.second);
  }

  /// Number of entries equal to `key` (visibility not considered); the
  /// planner's estimate of an equality probe's rows, which picks the
  /// probed column and orders joins.
  size_t CountEqual(const Value& key) const {
    ReaderMutexLock lock(&mu_);
    auto [lo, hi] = map_.equal_range(key);
    return static_cast<size_t>(std::distance(lo, hi));
  }

  /// Number of distinct keys (visibility not considered). One ordered
  /// walk; only the planner's statistics walk calls it, for the walk's
  /// side effect of keeping the index cache-warm (catalog/stats.h).
  size_t NumDistinctKeys() const {
    ReaderMutexLock lock(&mu_);
    size_t distinct = 0;
    for (auto it = map_.begin(); it != map_.end();
         it = map_.upper_bound(it->first)) {
      ++distinct;
    }
    return distinct;
  }

 private:
  size_t column_;
  mutable SharedMutex mu_{lock_rank::kOrderedIndex, "OrderedIndex::mu_"};
  std::multimap<Value, size_t> map_ TRAC_GUARDED_BY(mu_);
};

}  // namespace trac

#endif  // TRAC_STORAGE_INDEX_H_

#ifndef TRAC_CATALOG_STATS_H_
#define TRAC_CATALOG_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace trac {

/// Per-column statistics for one table, collected from its ordered
/// indexes (storage/index.h) by the statistics walk and cached in the
/// Catalog until the table is written or dropped. Only a user query's
/// planning runs the walk (CollectTableStats in exec/planner.h); a
/// recency part or guard plan never does. Nothing reads the result: the
/// walk runs only for its side effect, keeping the user tables' indexes
/// cache-warm for ingest (DESIGN.md §4g).
struct ColumnStats {
  size_t column = 0;  ///< Schema column index.
  /// Number of distinct non-NULL keys in the column's ordered index at
  /// collection time.
  uint64_t ndv = 0;
};

struct TableStats {
  /// Published row-version count at collection time. Also the cache
  /// validity token: a cached entry whose row_count no longer matches
  /// the table is stale and gets recollected.
  uint64_t row_count = 0;
  std::vector<ColumnStats> columns;
};

}  // namespace trac

#endif  // TRAC_CATALOG_STATS_H_

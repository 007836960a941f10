#ifndef TRAC_CATALOG_STATS_H_
#define TRAC_CATALOG_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace trac {

/// Per-column statistics for one table, collected from its ordered
/// indexes (storage/index.h) by the planner and cached in the Catalog.
/// Nothing reads them: the planner collects them only for the walk's
/// side effect on the indexes (CollectTableStats in exec/planner.cc).
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

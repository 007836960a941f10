#ifndef TRAC_CATALOG_STATS_H_
#define TRAC_CATALOG_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace trac {

/// Per-column statistics for one table, collected from the row store and
/// its ordered indexes (storage/index.h) and cached in the Catalog. The
/// optimizer's cost model (opt/cost.h) consumes them for equality /
/// range selectivity and join-output estimates; they are advisory only —
/// no correctness property depends on their accuracy, because no
/// rewrite they motivate changes the lowered plan IR.
struct ColumnStats {
  size_t column = 0;  ///< Schema column index.
  /// Number of distinct non-NULL keys in the column's ordered index at
  /// collection time. 0 = unknown (only indexed columns are profiled).
  uint64_t ndv = 0;
};

struct TableStats {
  /// Published row-version count at collection time. Also the cache
  /// validity token: a cached entry whose row_count no longer matches
  /// the table is stale and gets recollected.
  uint64_t row_count = 0;
  std::vector<ColumnStats> columns;

  /// NDV for `column`; 0 when the column was not profiled.
  uint64_t NdvFor(size_t column) const;
};

/// Fraction of rows an equality predicate on `column` keeps: 1/NDV when
/// the column is profiled, else the planner's classic 10% guess.
double EqualitySelectivity(const TableStats& stats, size_t column);

/// Fraction of rows a range predicate keeps: the standard 1/3 guess
/// (System R); stats cannot do better without histograms.
double RangeSelectivity();

}  // namespace trac

#endif  // TRAC_CATALOG_STATS_H_

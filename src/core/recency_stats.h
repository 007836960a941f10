#ifndef TRAC_CORE_RECENCY_STATS_H_
#define TRAC_CORE_RECENCY_STATS_H_

#include <optional>
#include <vector>

#include "core/relevance.h"

namespace trac {

struct RecencyStatsOptions {
  /// |z| above this marks a source "exceptionally out of date"
  /// (Section 4.3 uses 3, per Chebyshev's theorem / the empirical rule).
  double zscore_threshold = 3.0;
  /// Extra percentiles of the *normal* sources' recency to compute
  /// (values in (0, 1], e.g. {0.5, 0.9}); Section 4.3 notes that "other
  /// statistics could be computed as well". Nearest-rank definition.
  std::vector<double> percentiles;
};

/// Descriptive recency/consistency statistics over the relevant sources
/// of a query (Section 4.3):
///  - sources are split into "normal" and "exceptional" by z-score over
///    the full relevant set;
///  - min / max / range are computed over the normal sources. The range
///    is the paper's *bound of inconsistency*; the minimum is a
///    consistent-snapshot point (every event before it has reported in).
struct RecencyStats {
  std::vector<SourceRecency> normal;       ///< Sorted by source id.
  std::vector<SourceRecency> exceptional;  ///< Sorted by source id.

  std::optional<SourceRecency> least_recent;  ///< Over normal sources.
  std::optional<SourceRecency> most_recent;   ///< Over normal sources.
  int64_t inconsistency_bound_micros = 0;     ///< max - min over normal.

  /// Moments of the *full* relevant set (the z-score base).
  double mean_micros = 0;
  double stddev_micros = 0;

  /// Requested percentiles over the normal sources, parallel to
  /// RecencyStatsOptions::percentiles; empty if none requested or no
  /// normal sources exist.
  std::vector<std::pair<double, Timestamp>> percentile_recencies;
};

/// Computes the statistics; `relevant` need not be sorted (an unsorted
/// input is sorted in a copy). The normal and exceptional lists copy
/// their sources out of `relevant`.
RecencyStats ComputeRecencyStats(
    const std::vector<SourceRecency>& relevant,
    const RecencyStatsOptions& options = RecencyStatsOptions());

/// ComputeRecencyStats over a list already sorted by source, such as
/// RecencyExecution::sources (the report path): skips the sortedness
/// pass. Under TRAC_DEBUG_INVARIANTS a TRAC_DCHECK checks the order.
RecencyStats ComputeSortedRecencyStats(
    const std::vector<SourceRecency>& sorted,
    const RecencyStatsOptions& options = RecencyStatsOptions());

}  // namespace trac

#endif  // TRAC_CORE_RECENCY_STATS_H_

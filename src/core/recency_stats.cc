#include "core/recency_stats.h"

#include <algorithm>
#include <cmath>

#include "common/dcheck.h"

namespace trac {

namespace {

bool BySource(const SourceRecency& a, const SourceRecency& b) {
  return a.source < b.source;
}

}  // namespace

RecencyStats ComputeRecencyStats(const std::vector<SourceRecency>& input,
                                 const RecencyStatsOptions& options) {
  if (std::is_sorted(input.begin(), input.end(), BySource)) {
    return ComputeSortedRecencyStats(input, options);
  }
  std::vector<SourceRecency> sorted = input;
  std::sort(sorted.begin(), sorted.end(), BySource);
  return ComputeSortedRecencyStats(sorted, options);
}

RecencyStats ComputeSortedRecencyStats(
    const std::vector<SourceRecency>& relevant,
    const RecencyStatsOptions& options) {
  TRAC_DCHECK(std::is_sorted(relevant.begin(), relevant.end(), BySource),
              "ComputeSortedRecencyStats got a list out of source order");
  RecencyStats stats;
  if (relevant.empty()) return stats;

  const double n = static_cast<double>(relevant.size());
  double mean = 0;
  for (const SourceRecency& s : relevant) {
    mean += static_cast<double>(s.recency.micros()) / n;
  }
  double var = 0;
  for (const SourceRecency& s : relevant) {
    const double d = static_cast<double>(s.recency.micros()) - mean;
    var += d * d / n;  // Population variance, matching Section 4.3.
  }
  stats.mean_micros = mean;
  stats.stddev_micros = std::sqrt(var);

  // One pass splits the sources and finds the normal ones' extremes; the
  // first of several equal extremes in source order wins.
  const SourceRecency* least = nullptr;
  const SourceRecency* most = nullptr;
  stats.normal.reserve(relevant.size());
  for (const SourceRecency& s : relevant) {
    bool exceptional = false;
    if (stats.stddev_micros > 0) {
      const double z =
          (static_cast<double>(s.recency.micros()) - mean) /
          stats.stddev_micros;
      exceptional = std::fabs(z) > options.zscore_threshold;
    }
    if (exceptional) {
      stats.exceptional.push_back(s);
      continue;
    }
    stats.normal.push_back(s);
    if (least == nullptr || s.recency < least->recency) least = &s;
    if (most == nullptr || s.recency > most->recency) most = &s;
  }
  if (least != nullptr) {
    stats.least_recent = *least;
    stats.most_recent = *most;
    stats.inconsistency_bound_micros = most->recency - least->recency;
  }

  if (!options.percentiles.empty() && !stats.normal.empty()) {
    std::vector<Timestamp> sorted;
    sorted.reserve(stats.normal.size());
    for (const SourceRecency& s : stats.normal) sorted.push_back(s.recency);
    std::sort(sorted.begin(), sorted.end());
    for (double p : options.percentiles) {
      if (p <= 0.0 || p > 1.0) continue;
      // Nearest-rank: ceil(p * n), 1-based.
      size_t rank = static_cast<size_t>(
          std::ceil(p * static_cast<double>(sorted.size())));
      if (rank == 0) rank = 1;
      stats.percentile_recencies.emplace_back(p, sorted[rank - 1]);
    }
  }
  return stats;
}

}  // namespace trac

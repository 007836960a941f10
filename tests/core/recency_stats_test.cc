#include "core/recency_stats.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/random.h"

namespace trac {
namespace {

using testing_util::Ts;

SourceRecency SR(const std::string& s, Timestamp t) {
  return SourceRecency{s, t};
}

TEST(RecencyStatsTest, EmptyInput) {
  RecencyStats stats = ComputeRecencyStats({});
  EXPECT_TRUE(stats.normal.empty());
  EXPECT_TRUE(stats.exceptional.empty());
  EXPECT_FALSE(stats.least_recent.has_value());
  EXPECT_FALSE(stats.most_recent.has_value());
  EXPECT_EQ(stats.inconsistency_bound_micros, 0);
}

TEST(RecencyStatsTest, SingleSource) {
  RecencyStats stats =
      ComputeRecencyStats({SR("m1", Ts("2006-03-15 14:20:05"))});
  ASSERT_EQ(stats.normal.size(), 1u);
  EXPECT_TRUE(stats.exceptional.empty());
  EXPECT_EQ(stats.least_recent->source, "m1");
  EXPECT_EQ(stats.most_recent->source, "m1");
  EXPECT_EQ(stats.inconsistency_bound_micros, 0);
  EXPECT_EQ(stats.stddev_micros, 0.0);
}

TEST(RecencyStatsTest, IdenticalTimestampsNoOutliers) {
  std::vector<SourceRecency> sources;
  for (int i = 0; i < 10; ++i) {
    sources.push_back(SR("m" + std::to_string(i), Ts("2006-03-15 14:20:05")));
  }
  RecencyStats stats = ComputeRecencyStats(std::move(sources));
  EXPECT_EQ(stats.normal.size(), 10u);
  EXPECT_TRUE(stats.exceptional.empty());
  EXPECT_EQ(stats.inconsistency_bound_micros, 0);
}

TEST(RecencyStatsTest, PaperTranscriptSplit) {
  // 10 sources within 20 minutes, one a month stale: z(m2) > 3.
  std::vector<SourceRecency> sources;
  Timestamp base = Ts("2006-03-15 14:20:05");
  for (int i = 0; i < 10; ++i) {
    sources.push_back(
        SR("m" + std::to_string(i + 3),
           base + i * 2 * Timestamp::kMicrosPerMinute));
  }
  sources.push_back(SR("m2", base - 30 * Timestamp::kMicrosPerDay));
  RecencyStats stats = ComputeRecencyStats(std::move(sources));
  ASSERT_EQ(stats.exceptional.size(), 1u);
  EXPECT_EQ(stats.exceptional[0].source, "m2");
  EXPECT_EQ(stats.normal.size(), 10u);
  // Normal stats exclude the outlier.
  EXPECT_EQ(stats.least_recent->recency, base);
  EXPECT_EQ(stats.most_recent->recency,
            base + 18 * Timestamp::kMicrosPerMinute);
  EXPECT_EQ(stats.inconsistency_bound_micros,
            18 * Timestamp::kMicrosPerMinute);
}

TEST(RecencyStatsTest, ThresholdIsConfigurable) {
  std::vector<SourceRecency> sources;
  Timestamp base = Ts("2006-03-15 14:20:05");
  for (int i = 0; i < 20; ++i) {
    sources.push_back(SR("a" + std::to_string(i), base));
  }
  sources.push_back(SR("late", base - Timestamp::kMicrosPerHour));
  RecencyStatsOptions strict;
  strict.zscore_threshold = 1.0;
  RecencyStats stats = ComputeRecencyStats(sources, strict);
  ASSERT_EQ(stats.exceptional.size(), 1u);
  EXPECT_EQ(stats.exceptional[0].source, "late");

  RecencyStatsOptions loose;
  loose.zscore_threshold = 100.0;
  RecencyStats none = ComputeRecencyStats(sources, loose);
  EXPECT_TRUE(none.exceptional.empty());
}

TEST(RecencyStatsTest, ZScoreMatchesDefinition) {
  // Hand-computed: values 0, 10, 20 -> mean 10, population stddev
  // sqrt(200/3) ~ 8.165.
  std::vector<SourceRecency> sources = {
      SR("a", Timestamp(0)), SR("b", Timestamp(10)), SR("c", Timestamp(20))};
  RecencyStats stats = ComputeRecencyStats(std::move(sources));
  EXPECT_DOUBLE_EQ(stats.mean_micros, 10.0);
  EXPECT_NEAR(stats.stddev_micros, std::sqrt(200.0 / 3.0), 1e-9);
  EXPECT_TRUE(stats.exceptional.empty());  // Max |z| ~ 1.22.
}

TEST(RecencyStatsTest, ChebyshevBoundHolds) {
  // Property (the paper's justification): at most 1/9 of any data set
  // can have |z| > 3.
  std::vector<SourceRecency> sources;
  Timestamp base = Ts("2006-03-15 14:20:05");
  Random rng(5);
  for (int i = 0; i < 900; ++i) {
    sources.push_back(
        SR("s" + std::to_string(i),
           base - static_cast<int64_t>(rng.Uniform(
                      30 * Timestamp::kMicrosPerDay))));
  }
  RecencyStats stats = ComputeRecencyStats(std::move(sources));
  EXPECT_LE(stats.exceptional.size(), 100u);  // 900/9.
}

TEST(RecencyStatsTest, OutputsSortedBySource) {
  std::vector<SourceRecency> sources = {
      SR("zz", Timestamp(5)), SR("aa", Timestamp(7)), SR("mm", Timestamp(6))};
  RecencyStats stats = ComputeRecencyStats(std::move(sources));
  ASSERT_EQ(stats.normal.size(), 3u);
  EXPECT_EQ(stats.normal[0].source, "aa");
  EXPECT_EQ(stats.normal[1].source, "mm");
  EXPECT_EQ(stats.normal[2].source, "zz");
}

TEST(RecencyStatsTest, InputOrderDoesNotMatter) {
  // Sorted input (what the relevance merge emits) skips the sort;
  // reversed and shuffled input take it. All three must agree exactly,
  // down to the floating-point moments.
  std::vector<SourceRecency> sorted;
  Timestamp base = Ts("2006-03-15 14:20:05");
  Random rng(11);
  for (int i = 0; i < 200; ++i) {
    std::string id = std::to_string(i);
    sorted.push_back(SR("s" + std::string(3 - id.size(), '0') + id,
                        base - static_cast<int64_t>(rng.Uniform(
                                   Timestamp::kMicrosPerHour))));
  }
  sorted[17].recency = base - 30 * Timestamp::kMicrosPerDay;
  sorted[150].recency = base - 40 * Timestamp::kMicrosPerDay;
  std::vector<SourceRecency> reversed(sorted.rbegin(), sorted.rend());
  std::vector<SourceRecency> shuffled = sorted;
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.Uniform(i + 1)]);
  }
  RecencyStatsOptions options;
  options.percentiles = {0.5, 0.9};

  const RecencyStats want = ComputeRecencyStats(sorted, options);
  ASSERT_EQ(want.exceptional.size(), 2u);
  ASSERT_EQ(want.normal.size(), 198u);
  auto by_source = [](const SourceRecency& a, const SourceRecency& b) {
    return a.source < b.source;
  };
  EXPECT_TRUE(
      std::is_sorted(want.normal.begin(), want.normal.end(), by_source));
  EXPECT_TRUE(std::is_sorted(want.exceptional.begin(),
                             want.exceptional.end(), by_source));
  for (const auto* input : {&reversed, &shuffled}) {
    const RecencyStats got = ComputeRecencyStats(*input, options);
    EXPECT_EQ(got.normal, want.normal);
    EXPECT_EQ(got.exceptional, want.exceptional);
    EXPECT_EQ(got.least_recent, want.least_recent);
    EXPECT_EQ(got.most_recent, want.most_recent);
    EXPECT_EQ(got.inconsistency_bound_micros,
              want.inconsistency_bound_micros);
    EXPECT_EQ(got.mean_micros, want.mean_micros);
    EXPECT_EQ(got.stddev_micros, want.stddev_micros);
    EXPECT_EQ(got.percentile_recencies, want.percentile_recencies);
  }
}

}  // namespace
}  // namespace trac

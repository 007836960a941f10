// Set-merge semantics of ExecuteRecencyQueriesDetailed. The merge turns
// the tasks' (source, recency) rows into one sorted, duplicate-free
// source list; these tests pin it to a std::map fold over the same rows
// in task order (parts in plan order, each part's rows in version
// order): the first row of a source in task order wins, NULL sources
// are skipped, and the order is std::string's byte order, including on
// sources that share an 8-byte prefix, are shorter than 8 bytes, or
// hold '\0' and bytes >= 0x80. Every case runs at parallelism 1 and 4,
// on a registry with its source_id index (a pure Heartbeat scan walks
// the index) and on one without (the scan is planned like any part).

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/heartbeat.h"
#include "core/relevance.h"
#include "exec/executor.h"
#include "expr/binder.h"

namespace trac {
namespace {

using testing_util::Ts;

class RelevanceMergeTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (Indexed()) {
      auto hb = HeartbeatTable::Create(&db_);
      ASSERT_TRUE(hb.ok()) << hb.status().ToString();
      return;
    }
    TableSchema schema(
        "heartbeat",
        {ColumnDef(std::string(HeartbeatTable::kSourceColumn),
                   TypeId::kString),
         ColumnDef(std::string(HeartbeatTable::kRecencyColumn),
                   TypeId::kTimestamp)});
    const Status s = db_.CreateTable(std::move(schema)).status();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  /// Whether the registry has its source_id index.
  static bool Indexed() { return GetParam(); }

  /// A raw Heartbeat row: no upsert, so a source may repeat.
  void Insert(std::optional<std::string> source,
              std::optional<Timestamp> recency) {
    Row row = {source ? Value::Str(*source) : Value::Null(),
               recency ? Value::Ts(*recency) : Value::Null()};
    const Status s = db_.Insert("heartbeat", std::move(row));
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  /// The Naive plan's part: a pure Heartbeat scan.
  RecencyQueryPlan::Part ScanPart() {
    auto naive = GenerateNaivePlan(db_);
    EXPECT_TRUE(naive.ok()) << naive.status().ToString();
    return std::move(naive->parts[0]);
  }

  /// A planned part over the Heartbeat table.
  RecencyQueryPlan::Part FilteredPart(const std::string& where) {
    RecencyQueryPlan::Part part;
    auto bound = BindSql(
        db_, "SELECT DISTINCT source_id, recency_timestamp FROM heartbeat "
             "WHERE " + where);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    part.query = std::move(*bound);
    return part;
  }

  /// std::map fold over the rows of every part of `plan`, in part order:
  /// a part without a WHERE clause (a pure Heartbeat scan) is a table
  /// scan at `snap`, any other part its query result.
  std::vector<SourceRecency> ReferenceFold(const RecencyQueryPlan& plan,
                                           Snapshot snap) {
    std::map<std::string, Timestamp> merged;
    auto add = [&merged](const Row& row, size_t src, size_t rec) {
      if (row[src].is_null()) return;
      merged.emplace(row[src].str_val(),
                     row[rec].is_null() ? Timestamp() : row[rec].ts_val());
    };
    for (size_t i = 0; i < plan.parts.size(); ++i) {
      const BoundQuery& q = plan.parts[i].query;
      if (q.where == nullptr) {
        db_.GetTable(q.relations[0].table_id)
            ->Scan(snap, [&](size_t, const Row& row) {
              add(row, q.outputs[0].ref.col, q.outputs[1].ref.col);
            });
        continue;
      }
      auto rs = ExecuteQuery(db_, q, snap);
      EXPECT_TRUE(rs.ok()) << rs.status().ToString();
      for (const Row& row : rs->rows) add(row, 0, 1);
    }
    std::vector<SourceRecency> out;
    for (const auto& [source, ts] : merged) out.push_back({source, ts});
    return out;
  }

  /// Runs `plan` at `snap` at parallelism 1 and 4 and checks both
  /// against the reference fold; returns the serial result.
  RecencyExecution ExpectMatchesReference(const RecencyQueryPlan& plan,
                                          Snapshot snap) {
    const std::vector<SourceRecency> expected = ReferenceFold(plan, snap);
    auto serial = ExecuteRecencyQueriesDetailed(db_, plan, snap);
    EXPECT_TRUE(serial.ok()) << serial.status().ToString();
    RelevanceOptions options;
    options.parallelism = 4;
    auto parallel = ExecuteRecencyQueriesDetailed(db_, plan, snap, options);
    EXPECT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(serial->sources, expected);
    EXPECT_EQ(parallel->sources, serial->sources);
    EXPECT_EQ(parallel->premerge_rows, serial->premerge_rows);
    // One task per part at any parallelism.
    EXPECT_EQ(serial->task_micros.size(), plan.parts.size());
    EXPECT_EQ(parallel->task_micros.size(), plan.parts.size());
    EXPECT_TRUE(std::is_sorted(
        serial->sources.begin(), serial->sources.end(),
        [](const SourceRecency& a, const SourceRecency& b) {
          return a.source < b.source;
        }));
    return std::move(*serial);
  }

  RecencyExecution ExpectMatchesReference(const RecencyQueryPlan& plan) {
    return ExpectMatchesReference(plan, db_.LatestSnapshot());
  }

  /// Rows the Naive part feeds the merge for `sources` distinct sources
  /// over `rows` visible rows: a walk keeps one row per source, a
  /// planned scan every distinct (source, recency) row.
  static uint64_t ScanRows(uint64_t sources, uint64_t rows) {
    return Indexed() ? sources : rows;
  }

  Database db_;
};

INSTANTIATE_TEST_SUITE_P(Registry, RelevanceMergeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Indexed" : "Unindexed";
                         });

TEST_P(RelevanceMergeTest, FirstRowInTaskOrderWinsAcrossParts) {
  // Two full generations of 600 sources: each source's second row lies
  // 600 versions after its first.
  const Timestamp first = Ts("2006-03-15 14:00:00");
  const Timestamp second = Ts("2006-03-16 14:00:00");
  auto name = [](int i) {
    std::string s = std::to_string(i);
    return "src" + std::string(4 - s.size(), '0') + s;
  };
  for (const Timestamp base : {first, second}) {
    for (int i = 0; i < 600; ++i) {
      Insert(name(i), base + i * Timestamp::kMicrosPerSecond);
    }
  }
  RecencyQueryPlan plan;
  plan.parts.push_back(FilteredPart("source_id >= 'src0300'"));
  plan.parts.push_back(ScanPart());
  plan.parts.push_back(FilteredPart("source_id < 'src0100'"));

  RecencyExecution exec = ExpectMatchesReference(plan);
  ASSERT_EQ(exec.sources.size(), 600u);
  EXPECT_EQ(exec.premerge_rows, ScanRows(600, 1200) + 2u * (300 + 100));
  // Only the scan carries src0150: its first version wins.
  EXPECT_EQ(exec.sources[150].source, "src0150");
  EXPECT_EQ(exec.sources[150].recency,
            first + 150 * Timestamp::kMicrosPerSecond);
}

TEST_P(RelevanceMergeTest, NullSourcesAreSkipped) {
  const Timestamp t = Ts("2006-03-15 14:20:05");
  Insert(std::nullopt, t);
  Insert("m1", t);
  Insert(std::nullopt, std::nullopt);
  Insert("m2", std::nullopt);
  Insert("m1", t + Timestamp::kMicrosPerMinute);
  RecencyQueryPlan plan;
  plan.parts.push_back(ScanPart());
  plan.parts.push_back(FilteredPart("recency_timestamp IS NULL"));

  RecencyExecution exec = ExpectMatchesReference(plan);
  ASSERT_EQ(exec.sources.size(), 2u);
  EXPECT_EQ(exec.sources[0], (SourceRecency{"m1", t}));
  EXPECT_EQ(exec.sources[1], (SourceRecency{"m2", Timestamp()}));
  // Scan: m1, m2 (walked) or m1, m2, m1 (planned); filtered part: m2
  // (its NULL-source row skipped).
  EXPECT_EQ(exec.premerge_rows, ScanRows(2, 3) + 1);
}

// A registry with history: dead versions left by upserts, a second
// visible row for one source from a SQL INSERT, and NULL-source and
// NULL-recency rows. The Naive part alone, and beside a planned part,
// matches the reference fold at every snapshot of that history.
TEST_P(RelevanceMergeTest, ScanMatchesReferenceAtEverySnapshot) {
  auto hb = HeartbeatTable::Open(&db_);
  ASSERT_TRUE(hb.ok()) << hb.status().ToString();
  const Timestamp t = Ts("2006-03-15 14:20:05");
  std::vector<Snapshot> snapshots = {db_.LatestSnapshot()};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) {
      const std::string source = "m" + std::to_string((i * 7) % 40);
      const Status s = hb->SetRecency(
          source, t + (round * 100 + i) * Timestamp::kMicrosPerSecond);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    snapshots.push_back(db_.LatestSnapshot());
  }
  Insert("m5", t - Timestamp::kMicrosPerHour);  // A second m5 row.
  snapshots.push_back(db_.LatestSnapshot());
  Insert(std::nullopt, t);
  Insert("m40", std::nullopt);
  snapshots.push_back(db_.LatestSnapshot());
  const Status s = hb->SetRecency("m5", t + Timestamp::kMicrosPerHour);
  ASSERT_TRUE(s.ok()) << s.ToString();  // Rewrites both m5 rows.
  snapshots.push_back(db_.LatestSnapshot());

  RecencyQueryPlan naive;
  naive.parts.push_back(ScanPart());
  RecencyQueryPlan mixed;
  mixed.parts.push_back(FilteredPart("source_id < 'm2'"));
  mixed.parts.push_back(ScanPart());
  for (const Snapshot snap : snapshots) {
    SCOPED_TRACE("snapshot " + std::to_string(snap.version));
    ExpectMatchesReference(naive, snap);
    ExpectMatchesReference(mixed, snap);
  }

  // At the fifth snapshot m5's first version (the upserted row) still
  // wins over the later SQL INSERT.
  auto recency_of = [](const RecencyExecution& exec,
                       const std::string& source) {
    for (const SourceRecency& s : exec.sources) {
      if (s.source == source) return std::optional<Timestamp>(s.recency);
    }
    return std::optional<Timestamp>();
  };
  RecencyExecution exec = ExpectMatchesReference(naive, snapshots[4]);
  EXPECT_EQ(exec.sources.size(), 40u);
  EXPECT_EQ(recency_of(exec, "m5"), t + 235 * Timestamp::kMicrosPerSecond);
  // The last snapshots add m40 with a NULL recency, read as the epoch.
  exec = ExpectMatchesReference(naive, snapshots.back());
  EXPECT_EQ(exec.sources.size(), 41u);
  EXPECT_EQ(recency_of(exec, "m40"), Timestamp());
}

TEST_P(RelevanceMergeTest, OrderIsStdStringByteOrder) {
  const std::vector<std::string> sources = {
      "machine_0002", "machine_0001", "machine_", "machine", "machine_00",
      "", "a", "ab", std::string("ab\0", 3), std::string("ab\0c", 4),
      std::string("\0", 1), "abcdefgh", std::string("abcdefgh\0", 9),
      "abcdefghi", "abcdefgg", "abcdefgh\x80", "\x80", "\xff", "\x7f",
      "\xc3\xa9t\xc3\xa9", "zzzzzzzz\xff"};
  const Timestamp base = Ts("2006-03-15 14:20:05");
  // Each source twice, the later row with a later timestamp.
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < sources.size(); ++i) {
      Insert(sources[i], base + (round * 100 + static_cast<int64_t>(i)) *
                                    Timestamp::kMicrosPerSecond);
    }
  }
  RecencyQueryPlan plan;
  plan.parts.push_back(ScanPart());
  plan.parts.push_back(FilteredPart("source_id >= 'a'"));

  RecencyExecution exec = ExpectMatchesReference(plan);
  std::vector<std::string> expected = sources;
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(exec.sources.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(exec.sources[i].source, expected[i]) << i;
    const size_t inserted =
        std::find(sources.begin(), sources.end(), expected[i]) -
        sources.begin();
    EXPECT_EQ(exec.sources[i].recency,
              base + static_cast<int64_t>(inserted) *
                         Timestamp::kMicrosPerSecond)
        << i;
  }
}

TEST_P(RelevanceMergeTest, EmptyResults) {
  RecencyQueryPlan plan;
  RecencyExecution none = ExpectMatchesReference(plan);
  EXPECT_TRUE(none.sources.empty());

  plan.parts.push_back(ScanPart());
  RecencyExecution empty_table = ExpectMatchesReference(plan);
  EXPECT_TRUE(empty_table.sources.empty());
  EXPECT_EQ(empty_table.premerge_rows, 0u);

  Insert("m1", Ts("2006-03-15 14:20:05"));
  plan.parts[0] = FilteredPart("source_id = 'none'");
  RecencyExecution filtered = ExpectMatchesReference(plan);
  EXPECT_TRUE(filtered.sources.empty());
  EXPECT_EQ(filtered.premerge_rows, 0u);
}

}  // namespace
}  // namespace trac

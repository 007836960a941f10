// Snapshot-isolation stress: writer threads append through the Database
// while reader threads take snapshots and scan / run recency reports.
// The invariants checked are exactly the consequences the Database
// concurrency contract promises (storage/database.h):
//
//  - no torn reads: every observed row satisfies its integrity column
//    (check == seq * 31 + writer), so a reader can never see a
//    half-constructed Row;
//  - per-writer prefix: the seqs a snapshot shows for one writer are
//    dense 0..n-1 — commit order is counter order, so a writer's k-th
//    insert is visible only together with its first k-1;
//  - frozen snapshots: re-scanning a snapshot after more history has
//    accumulated yields the identical fingerprint;
//  - atomic registration: threads racing to register the same fresh
//    source leave exactly one registry row, at every snapshot.
//
// Run this under -fsanitize=thread (cmake --preset tsan) to turn the
// memory-ordering argument into a checked property.

#include <atomic>
#include <barrier>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/heartbeat.h"
#include "core/recency_reporter.h"
#include "core/session.h"

namespace trac {
namespace {

using testing_util::Ts;

constexpr int kWriters = 4;
constexpr int kRowsPerWriter = 120;
constexpr int kReaders = 3;

std::multiset<std::string> ScanFingerprint(const Database& db, TableId id,
                                           Snapshot snap) {
  std::multiset<std::string> out;
  db.GetTable(id)->Scan(snap, [&](size_t, const Row& row) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.insert(key);
  });
  return out;
}

TEST(SnapshotIsolationStressTest, PrefixVisibilityAndNoTornReads) {
  Database db;
  TableSchema schema("t", {ColumnDef("writer", TypeId::kInt64),
                           ColumnDef("seq", TypeId::kInt64),
                           ColumnDef("check_sum", TypeId::kInt64)});
  TRAC_ASSERT_OK_AND_ASSIGN(TableId id, db.CreateTable(std::move(schema)));

  std::atomic<int> writers_done{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int seq = 0; seq < kRowsPerWriter; ++seq) {
        Row row = {Value::Int(w), Value::Int(seq),
                   Value::Int(seq * 31 + w)};
        Status s = db.Insert("t", std::move(row));
        if (!s.ok()) {
          failed.store(true);
          ADD_FAILURE() << "insert failed: " << s.ToString();
          return;
        }
      }
      writers_done.fetch_add(1);
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      // Keep validating snapshots until every writer finished, then do
      // one final pass over the complete state.
      bool final_pass_done = false;
      while (!final_pass_done && !failed.load()) {
        final_pass_done = writers_done.load() == kWriters;
        Snapshot snap = db.LatestSnapshot();

        // One scan collects everything; validate afterwards so the scan
        // callback stays trivial.
        std::vector<std::vector<int64_t>> seqs(kWriters);
        bool torn = false;
        db.GetTable(id)->Scan(snap, [&](size_t, const Row& row) {
          const int64_t w = row[0].int_val();
          const int64_t seq = row[1].int_val();
          const int64_t check = row[2].int_val();
          if (w < 0 || w >= kWriters || check != seq * 31 + w) {
            torn = true;
            return;
          }
          seqs[static_cast<size_t>(w)].push_back(seq);
        });
        EXPECT_FALSE(torn) << "torn or corrupt row observed";

        for (int w = 0; w < kWriters; ++w) {
          // Version order within one table is append order, and one
          // writer's appends are monotone, so its seqs arrive sorted and
          // must form the dense prefix 0..n-1.
          const auto& s = seqs[w];
          for (size_t i = 0; i < s.size(); ++i) {
            if (s[i] != static_cast<int64_t>(i)) {
              ADD_FAILURE() << "writer " << w << " gap: position " << i
                            << " holds seq " << s[i];
              failed.store(true);
              return;
            }
          }
        }

        // Frozen snapshot: an immediate re-scan (arbitrarily later in
        // commit history) sees the identical multiset.
        EXPECT_EQ(ScanFingerprint(db, id, snap),
                  ScanFingerprint(db, id, snap));
      }
    });
  }

  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();

  // Complete final state.
  Snapshot snap = db.LatestSnapshot();
  size_t total = 0;
  db.GetTable(id)->Scan(snap, [&](size_t, const Row&) { ++total; });
  EXPECT_EQ(total, static_cast<size_t>(kWriters) * kRowsPerWriter);
}

TEST(SnapshotIsolationStressTest, RecencyReportsUnderHeartbeatChurn) {
  // Writers keep advancing heartbeats and appending activity rows while
  // readers run full recency reports (each from its own Session, with
  // temp-table materialization on). Every report must be internally
  // consistent: it reflects ONE snapshot, so its source lists are sorted,
  // disjoint and complete, and the inconsistency bound matches its own
  // extremes.
  Database db;
  TableSchema schema("activity",
                     {ColumnDef("mach_id", TypeId::kString),
                      ColumnDef("value", TypeId::kString),
                      ColumnDef("event_time", TypeId::kTimestamp)});
  TRAC_ASSERT_OK(schema.SetDataSourceColumn("mach_id"));
  TRAC_ASSERT_OK(db.CreateTable(std::move(schema)).status());
  TRAC_ASSERT_OK(db.CreateIndex("activity", "mach_id"));
  TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable heartbeat,
                            HeartbeatTable::Create(&db));

  const Timestamp base = Ts("2006-03-15 14:20:05");
  constexpr int kSources = 16;
  for (int i = 0; i < kSources; ++i) {
    const std::string m = "m" + std::to_string(i);
    TRAC_ASSERT_OK(heartbeat.ReportHeartbeat(m, base));
    TRAC_ASSERT_OK(db.Insert(
        "activity",
        {Value::Str(m), Value::Str(i % 2 == 0 ? "idle" : "busy"),
         Value::Ts(base)}));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      // Bounded so the table cannot grow without limit on a slow
      // machine; readers finishing first also stops the churn.
      for (int round = 1; round <= 60 && !stop.load(); ++round) {
        for (int i = w; i < kSources; i += 2) {
          const std::string m = "m" + std::to_string(i);
          Status s = heartbeat.ReportHeartbeat(
              m, base + round * Timestamp::kMicrosPerMinute);
          if (!s.ok()) {
            ADD_FAILURE() << s.ToString();
            return;
          }
          s = db.Insert("activity",
                        {Value::Str(m), Value::Str("idle"),
                         Value::Ts(base + round * Timestamp::kMicrosPerMinute)});
          if (!s.ok()) {
            ADD_FAILURE() << s.ToString();
            return;
          }
        }
      }
    });
  }

  std::vector<std::thread> readers;
  std::atomic<int> reports_done{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Session session(&db);
      RecencyReporter reporter(&db, &session);
      RecencyReportOptions options;
      options.relevance.parallelism = 2;
      for (int i = 0; i < 8; ++i) {
        auto report = reporter.Run(
            "SELECT a.mach_id FROM activity a WHERE a.value = 'idle'",
            options);
        if (!report.ok()) {
          ADD_FAILURE() << report.status().ToString();
          return;
        }
        // Internal consistency of a single-snapshot report.
        EXPECT_FALSE(report->relevance.sources.empty());
        EXPECT_EQ(report->stats.normal.size() +
                      report->stats.exceptional.size(),
                  report->relevance.sources.size());
        for (size_t k = 1; k < report->relevance.sources.size(); ++k) {
          EXPECT_LT(report->relevance.sources[k - 1].source,
                    report->relevance.sources[k].source);
        }
        if (report->stats.least_recent.has_value()) {
          EXPECT_EQ(report->stats.inconsistency_bound_micros,
                    report->stats.most_recent->recency -
                        report->stats.least_recent->recency);
        }
        EXPECT_FALSE(report->normal_temp_table.empty());
        EXPECT_FALSE(report->exceptional_temp_table.empty());
        reports_done.fetch_add(1);
      }
    });
  }

  for (auto& t : readers) t.join();
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_EQ(reports_done.load(), kReaders * 8);
}

TEST(SnapshotIsolationStressTest, RacingFirstHeartbeatsRegisterOnce) {
  // kRacers threads register the same fresh sources in lockstep: a
  // barrier releases them together on each source, half through
  // ReportHeartbeat and half through SetRecency. A registration that
  // matches and inserts in separate commits lets two racers both find
  // the source absent and both insert it; the established sources make
  // a scanning match slow enough that racers queue behind it. At every
  // snapshot readers take, each source must have exactly one visible
  // row, and NumSources and GetAll must count each once.
  constexpr int kRacers = 4;
  constexpr int kEstablished = 4000;
  constexpr int kFreshSources = 400;
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(HeartbeatTable heartbeat,
                            HeartbeatTable::Create(&db));
  const Table* table = db.GetTable(heartbeat.table_id());
  const Timestamp base = Ts("2006-03-15 14:20:05");
  std::vector<Row> established;
  for (int i = 0; i < kEstablished; ++i) {
    established.push_back(
        {Value::Str("m" + std::to_string(i)), Value::Ts(base)});
  }
  TRAC_ASSERT_OK(db.InsertMany(heartbeat.table_id(), std::move(established)));

  std::barrier sync(kRacers);
  std::atomic<int> racers_done{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> racers;
  for (int w = 0; w < kRacers; ++w) {
    racers.emplace_back([&, w] {
      for (int i = 0; i < kFreshSources; ++i) {
        const std::string source = "fresh" + std::to_string(i);
        const Timestamp recency = base + w * Timestamp::kMicrosPerSecond;
        sync.arrive_and_wait();
        const Status s = w % 2 == 0 ? heartbeat.ReportHeartbeat(source, recency)
                                    : heartbeat.SetRecency(source, recency);
        if (!s.ok() && !failed.exchange(true)) {
          ADD_FAILURE() << s.ToString();
        }
      }
      racers_done.fetch_add(1);
    });
  }

  auto check = [&](Snapshot snap) {
    std::map<std::string, int> rows;
    table->Scan(snap, [&](size_t, const Row& row) {
      ++rows[row[0].str_val()];
    });
    for (const auto& [source, count] : rows) {
      if (count != 1) {
        ADD_FAILURE() << source << " has " << count << " rows at snapshot "
                      << snap.version;
        return false;
      }
    }
    if (heartbeat.NumSources(snap) != rows.size() ||
        heartbeat.GetAll(snap).size() != rows.size()) {
      ADD_FAILURE() << "source count disagrees at snapshot " << snap.version;
      return false;
    }
    return true;
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      bool final_pass_done = false;
      while (!final_pass_done && !failed.load()) {
        final_pass_done = racers_done.load() == kRacers;
        if (!check(db.LatestSnapshot())) failed.store(true);
      }
    });
  }

  for (auto& t : racers) t.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(heartbeat.NumSources(db.LatestSnapshot()),
            static_cast<size_t>(kEstablished + kFreshSources));
}

}  // namespace
}  // namespace trac

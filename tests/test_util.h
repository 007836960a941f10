#ifndef TRAC_TESTS_TEST_UTIL_H_
#define TRAC_TESTS_TEST_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/heartbeat.h"
#include "core/relevance.h"
#include "exec/executor.h"
#include "expr/binder.h"
#include "storage/database.h"

namespace trac {
namespace testing_util {

/// gtest glue: ASSERT that a Status/Result is OK, printing the message.
#define TRAC_ASSERT_OK(expr)                                       \
  do {                                                             \
    const ::trac::Status _s = (expr);                              \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                         \
  } while (false)

#define TRAC_EXPECT_OK(expr)                                       \
  do {                                                             \
    const ::trac::Status _s = (expr);                              \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                         \
  } while (false)

/// Unwraps a Result<T>, failing the test on error.
#define TRAC_ASSERT_OK_AND_ASSIGN(lhs, expr)             \
  TRAC_ASSERT_OK_AND_ASSIGN_IMPL_(                       \
      TRAC_TEST_CONCAT_(_result_, __LINE__), lhs, expr)
#define TRAC_ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)  \
  auto tmp = (expr);                                     \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();      \
  lhs = std::move(tmp).value()
#define TRAC_TEST_CONCAT_(a, b) TRAC_TEST_CONCAT_IMPL_(a, b)
#define TRAC_TEST_CONCAT_IMPL_(a, b) a##b

/// A scan-based reference for Database's keyed writes (UpdateWhere,
/// DeleteWhere, Upsert): a plain model of one table's version log whose
/// every write finds its matches by scanning all versions visible just
/// before the commit, whatever the keys or indexes. Each write takes
/// the commit version the Database used, so a differential test can
/// compare the two logs version by version. Rows must already be in
/// normalized form (no int literal bound for a double column).
class ScanReferenceLog {
 public:
  struct Version {
    uint64_t begin = 0;
    uint64_t end = RowVersion::kOpenVersion;
    Row values;
  };
  using Pred = std::function<bool(const Row&)>;
  using Mutate = std::function<bool(Row*)>;

  /// Versions visible at `snap` that `pred` accepts, in version order.
  std::vector<size_t> Matches(Snapshot snap, const Pred& pred) const {
    std::vector<size_t> out;
    for (size_t i = 0; i < log_.size(); ++i) {
      const Version& v = log_[i];
      const bool visible =
          v.begin <= snap.version &&
          (v.end == RowVersion::kOpenVersion || v.end > snap.version);
      if (visible && pred(v.values)) out.push_back(i);
    }
    return out;
  }

  void Insert(Row row, uint64_t commit) {
    log_.push_back({commit, RowVersion::kOpenVersion, std::move(row)});
  }

  /// Rewrites every match whose copy `mutate` changes; returns the count.
  int Update(const Pred& pred, const Mutate& mutate, uint64_t commit) {
    return Rewrite(Matches(Snapshot{commit - 1}, pred), mutate, commit);
  }

  int Delete(const Pred& pred, uint64_t commit) {
    const std::vector<size_t> matches = Matches(Snapshot{commit - 1}, pred);
    for (size_t i : matches) Close(i, commit);
    return static_cast<int>(matches.size());
  }

  UpsertResult Upsert(const Pred& pred, const Mutate& mutate, Row row,
                      uint64_t commit) {
    const std::vector<size_t> matches = Matches(Snapshot{commit - 1}, pred);
    UpsertResult result;
    if (matches.empty()) {
      Insert(std::move(row), commit);
      result.inserted = true;
    } else {
      result.updated = Rewrite(matches, mutate, commit);
    }
    return result;
  }

  const std::vector<Version>& versions() const { return log_; }

 private:
  int Rewrite(const std::vector<size_t>& matches, const Mutate& mutate,
              uint64_t commit) {
    int rewritten = 0;
    for (size_t i : matches) {
      Row copy = log_[i].values;
      if (!mutate(&copy)) continue;
      Close(i, commit);
      Insert(std::move(copy), commit);
      ++rewritten;
    }
    return rewritten;
  }

  void Close(size_t i, uint64_t commit) { log_[i].end = commit; }

  std::vector<Version> log_;
};

/// Expects `table`'s version log, version for version, to equal `ref`'s.
inline void ExpectLogMatches(const Table& table, const ScanReferenceLog& ref) {
  ASSERT_EQ(table.num_versions(), ref.versions().size());
  for (size_t i = 0; i < ref.versions().size(); ++i) {
    const RowVersion& got = table.version(i);
    const ScanReferenceLog::Version& want = ref.versions()[i];
    EXPECT_EQ(got.begin, want.begin) << "version " << i;
    EXPECT_EQ(got.end.load(), want.end) << "version " << i;
    EXPECT_EQ(got.values, want.values) << "version " << i;
  }
}

inline Timestamp Ts(const std::string& text) {
  auto r = Timestamp::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : Timestamp();
}

/// Builds the paper's running example database (Tables 1 and 2 plus the
/// Heartbeat of the Section 5.1 transcript):
///
///   activity(mach_id, value, event_time)   ds column: mach_id
///       m1 idle  2006-03-11 20:37:46
///       m2 busy  2006-02-10 18:22:01
///       m3 idle  2006-03-12 10:23:05
///   routing(mach_id, neighbor, event_time) ds column: mach_id
///       m1 m3    2006-03-12 23:20:06
///       m2 m3    2006-02-10 03:34:21
///   heartbeat: m1..m11; m2 is ~1 month stale (the transcript's
///       exceptional source), the rest spread over 20 minutes.
///
/// When `finite_domains` is set, mach_id/neighbor range over m1..m11,
/// value over {idle, busy}, and event_time over the five timestamps
/// above — small enough for exact brute-force ground truth.
class PaperExampleDb {
 public:
  explicit PaperExampleDb(bool finite_domains = true) {
    std::vector<Value> machines;
    for (int i = 1; i <= 11; ++i) {
      sources_.push_back("m" + std::to_string(i));
      machines.push_back(Value::Str(sources_.back()));
    }
    std::vector<Value> values = {Value::Str("idle"), Value::Str("busy")};
    std::vector<Value> times = {
        Value::Ts(Ts("2006-03-11 20:37:46")),
        Value::Ts(Ts("2006-02-10 18:22:01")),
        Value::Ts(Ts("2006-03-12 10:23:05")),
        Value::Ts(Ts("2006-03-12 23:20:06")),
        Value::Ts(Ts("2006-02-10 03:34:21")),
    };
    auto dom = [&](std::vector<Value> v, TypeId t) {
      return finite_domains ? Domain::Finite(t, std::move(v))
                            : Domain::Infinite(t);
    };

    {
      TableSchema schema(
          "activity",
          {ColumnDef("mach_id", TypeId::kString,
                     dom(machines, TypeId::kString)),
           ColumnDef("value", TypeId::kString, dom(values, TypeId::kString)),
           ColumnDef("event_time", TypeId::kTimestamp,
                     dom(times, TypeId::kTimestamp))});
      EXPECT_TRUE(schema.SetDataSourceColumn("mach_id").ok());
      EXPECT_TRUE(db.CreateTable(std::move(schema)).ok());
      EXPECT_TRUE(db.Insert("activity", {Value::Str("m1"), Value::Str("idle"),
                                         Value::Ts(Ts("2006-03-11 20:37:46"))})
                      .ok());
      EXPECT_TRUE(db.Insert("activity", {Value::Str("m2"), Value::Str("busy"),
                                         Value::Ts(Ts("2006-02-10 18:22:01"))})
                      .ok());
      EXPECT_TRUE(db.Insert("activity", {Value::Str("m3"), Value::Str("idle"),
                                         Value::Ts(Ts("2006-03-12 10:23:05"))})
                      .ok());
      EXPECT_TRUE(db.CreateIndex("activity", "mach_id").ok());
    }
    {
      TableSchema schema(
          "routing",
          {ColumnDef("mach_id", TypeId::kString,
                     dom(machines, TypeId::kString)),
           ColumnDef("neighbor", TypeId::kString,
                     dom(machines, TypeId::kString)),
           ColumnDef("event_time", TypeId::kTimestamp,
                     dom(times, TypeId::kTimestamp))});
      EXPECT_TRUE(schema.SetDataSourceColumn("mach_id").ok());
      EXPECT_TRUE(db.CreateTable(std::move(schema)).ok());
      EXPECT_TRUE(db.Insert("routing", {Value::Str("m1"), Value::Str("m3"),
                                        Value::Ts(Ts("2006-03-12 23:20:06"))})
                      .ok());
      EXPECT_TRUE(db.Insert("routing", {Value::Str("m2"), Value::Str("m3"),
                                        Value::Ts(Ts("2006-02-10 03:34:21"))})
                      .ok());
      EXPECT_TRUE(db.CreateIndex("routing", "mach_id").ok());
    }
    {
      auto hb = HeartbeatTable::Create(&db);
      EXPECT_TRUE(hb.ok());
      heartbeat = std::make_unique<HeartbeatTable>(*hb);
      // The Section 5.1 transcript: m2 a month stale, others spread over
      // 20 minutes starting at 14:20:05.
      EXPECT_TRUE(
          heartbeat->SetRecency("m1", Ts("2006-03-15 14:20:05")).ok());
      EXPECT_TRUE(
          heartbeat->SetRecency("m2", Ts("2006-02-12 17:23:00")).ok());
      EXPECT_TRUE(
          heartbeat->SetRecency("m3", Ts("2006-03-15 14:40:05")).ok());
      for (int i = 4; i <= 11; ++i) {
        EXPECT_TRUE(heartbeat
                        ->SetRecency("m" + std::to_string(i),
                                     Ts("2006-03-15 14:20:05") +
                                         (i - 3) *
                                             Timestamp::kMicrosPerMinute)
                        .ok());
      }
    }
  }

  /// Sorted relevant-source ids from a RelevanceResult-like list.
  static std::vector<std::string> Ids(
      const std::vector<SourceRecency>& sources) {
    std::vector<std::string> ids;
    for (const auto& s : sources) ids.push_back(s.source);
    return ids;
  }

  Database db;
  std::unique_ptr<HeartbeatTable> heartbeat;
  std::vector<std::string> sources_;
};

}  // namespace testing_util
}  // namespace trac

#endif  // TRAC_TESTS_TEST_UTIL_H_

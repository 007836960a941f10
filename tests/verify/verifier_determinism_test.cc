// Satellite regression: verifier finding output is canonical — deduped
// by (code, node), stable-sorted by (node, code) — so renderings,
// --json, and goldens are byte-stable, and the finding list for a plan
// is identical whether the session was planned at parallelism 1 or 4.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/heartbeat.h"
#include "core/relevance.h"
#include "exec/planner.h"
#include "exec/statement.h"
#include "expr/binder.h"
#include "ir/plan_ir.h"
#include "storage/database.h"
#include "verify/verifier.h"

namespace trac {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

PlanIr ParseOrDie(const std::string& text) {
  auto ir = ParsePlanIr(text);
  EXPECT_TRUE(ir.ok()) << ir.status();
  return std::move(*ir);
}

std::vector<std::string> Codes(const VerifyReport& report) {
  std::vector<std::string> out;
  for (const VerifyDiagnostic& d : report.diagnostics) {
    out.emplace_back(VerifyCodeId(d.code));
  }
  return out;
}

TEST(VerifierDeterminismTest, DuplicateFindingsCollapseToOne) {
  // Two dead strands into one merge: V006 anchors at the merge once per
  // (code, node), not once per offending input.
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 sel=zero cols=a.mach_id:d,a.value:r\n"
      "node 2 filter in=0 sel=zero cols=a.mach_id:d,a.value:r\n"
      "node 3 scan table=routing snap=5 rows=64 "
      "cols=r.mach_id:d,r.neighbor:r\n"
      "node 4 merge in=1,2,3 set sorted gen cols=mach_id:d,value:r\n"
      "node 5 report in=4 cols=mach_id:d\n");
  const VerifyReport report = VerifyIr(ir);
  ASSERT_EQ(report.diagnostics.size(), 1u) << report.Format(ir);
  EXPECT_EQ(report.diagnostics[0].code, VerifyCode::kDeadMergeInput);
  EXPECT_EQ(report.diagnostics[0].node, 4u);
}

TEST(VerifierDeterminismTest, FindingsSortByNodeThenCode) {
  // Seed two independent violations anchored at different nodes: the
  // redundant filter (node 2) and the too-tight NOTICE bound (node 3).
  // The rendered order follows node ids regardless of pass order.
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=128 age=0..127000000 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 1 filter in=0 pred=00000000deadbeef "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 2 filter in=1 pred=00000000deadbeef "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 3 report in=2 bound=1000000 cols=h.source_id:d\n");
  const VerifyReport report = VerifyIr(ir);
  const std::vector<std::string> want = {"TRAC-V007", "TRAC-V005"};
  ASSERT_EQ(Codes(report), want) << report.Format(ir);
  EXPECT_LT(report.diagnostics[0].node, report.diagnostics[1].node);
  // Repeated runs render byte-identically.
  EXPECT_EQ(VerifyIr(ir).Format(ir), report.Format(ir));
}

/// Loads examples/plans/schema.sql (tables plus the 128-source
/// Heartbeat registry) into `db`, statement by statement.
void LoadPlansSchema(Database* db) {
  const fs::path schema = fs::path(TRAC_EXAMPLES_DIR) / "plans" / "schema.sql";
  std::istringstream lines(ReadFileOrDie(schema));
  std::string stmt;
  std::string line;
  while (std::getline(lines, line)) {
    const size_t b = line.find_first_not_of(" \t\r");
    if (b != std::string::npos && line.compare(b, 2, "--") == 0) continue;
    stmt += line;
    stmt += '\n';
    if (line.find(';') != std::string::npos) {
      auto result = ExecuteStatement(db, stmt);
      ASSERT_TRUE(result.ok()) << result.status() << "\n" << stmt;
      stmt.clear();
    }
  }
}

/// Heartbeat writes after the schema load that move both ends of the
/// registry's age range: the oldest source advances past the newest,
/// and a new source registers further ahead still.
void AdvanceHeartbeats(Database* db) {
  auto heartbeat = HeartbeatTable::Open(db);
  ASSERT_TRUE(heartbeat.ok()) << heartbeat.status();
  auto later = Timestamp::Parse("2006-03-15 15:00:00");
  ASSERT_TRUE(later.ok()) << later.status();
  ASSERT_TRUE(heartbeat->ReportHeartbeat("m000", *later).ok());
  ASSERT_TRUE(
      heartbeat->SetRecency("m900", *later + Timestamp::kMicrosPerMinute)
          .ok());
}

/// A commit that leaves the registry alone, like a report's temp-table
/// write: a new sys_temp_ table with one row.
void WriteTempTable(Database* db) {
  for (const char* stmt :
       {"CREATE TABLE sys_temp_t1 (source_id STRING, seen TIMESTAMP);",
        "INSERT INTO sys_temp_t1 VALUES ('m000', '2006-03-15 14:20:05');"}) {
    auto result = ExecuteStatement(db, stmt);
    ASSERT_TRUE(result.ok()) << result.status() << "\n" << stmt;
  }
}

/// Lowers the full q1-style report session over `db` at `snapshot` and
/// `parallelism` through the reporter's PlanReportSession (every plan
/// pinned to the same snapshot).
PlanIr LowerSession(const Database& db, Snapshot snapshot,
                    size_t parallelism) {
  auto query = BindSql(db, "SELECT mach_id FROM activity");
  EXPECT_TRUE(query.ok()) << query.status();
  auto plan = GenerateRecencyQueries(db, *query);
  EXPECT_TRUE(plan.ok()) << plan.status();
  auto session = PlanReportSession(db, *query, *plan, snapshot, parallelism,
                                   HeartbeatTable::kDefaultName,
                                   /*session_id=*/1);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session->ir);
}

std::string LowerSessionDump(const Database& db, Snapshot snapshot) {
  return LowerSession(db, snapshot, 1).Dump();
}

/// Every `<key><value>` token in an IR dump, in order.
std::vector<std::string> Annotations(const std::string& dump,
                                     const std::string& key) {
  std::vector<std::string> out;
  for (size_t at = dump.find(" " + key); at != std::string::npos;
       at = dump.find(" " + key, at + 1)) {
    const size_t end = dump.find_first_of(" \n", at + 1);
    out.push_back(dump.substr(at + 1, end - at - 1));
  }
  return out;
}

class DeterminismCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_NO_FATAL_FAILURE(LoadPlansSchema(&db_)); }

  /// Lowers the full q1-style report session at `parallelism` and
  /// returns the verifier findings after seeding the same violation at
  /// the report boundary: a NOTICE bound of 0 that the registry's
  /// 127 s age spread can never satisfy.
  std::vector<std::string> SeededFindings(size_t parallelism) {
    PlanIr ir = LowerSession(db_, db_.LatestSnapshot(), parallelism);
    for (IrNode& n : ir.nodes) {
      if (n.kind == IrNodeKind::kReport) {
        n.has_bound = true;
        n.notice_bound_micros = 0;
      }
    }
    std::vector<std::string> codes;
    for (const VerifyDiagnostic& d : VerifyIr(ir).diagnostics) {
      codes.emplace_back(VerifyCodeId(d.code));
    }
    return codes;
  }

  Database db_;
};

TEST_F(DeterminismCorpusTest, SameFindingListAtParallelism1And4) {
  const std::vector<std::string> serial = SeededFindings(1);
  const std::vector<std::string> parallel = SeededFindings(4);
  ASSERT_FALSE(serial.empty()) << "seeded violation did not fire";
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, std::vector<std::string>{"TRAC-V005"});
}

// The registry's age range is memoized on the Heartbeat table, keyed by
// the registry state a snapshot sees. Whether a lowering hits that memo,
// misses it, or runs on a database that never computed it must not
// change one byte of the IR, `age=` and `bound=` included.
TEST_F(DeterminismCorpusTest, SessionLoweringIsByteIdenticalAcrossTheAgeMemo) {
  const Snapshot old_snapshot = db_.LatestSnapshot();
  const std::string first = LowerSessionDump(db_, old_snapshot);
  const std::string again = LowerSessionDump(db_, old_snapshot);
  ASSERT_FALSE(Annotations(first, "age=").empty()) << first;
  ASSERT_EQ(Annotations(first, "bound=").size(), 1u) << first;
  EXPECT_EQ(first, again);
  {
    Database fresh;
    ASSERT_NO_FATAL_FAILURE(LoadPlansSchema(&fresh));
    ASSERT_EQ(fresh.LatestSnapshot().version, old_snapshot.version);
    EXPECT_EQ(first, LowerSessionDump(fresh, fresh.LatestSnapshot()));
  }

  // A temp-table commit leaves the registry as it was: the newer
  // snapshot reuses the memo and must match a database that scans.
  ASSERT_NO_FATAL_FAILURE(WriteTempTable(&db_));
  const Snapshot temp_snapshot = db_.LatestSnapshot();
  ASSERT_GT(temp_snapshot.version, old_snapshot.version);
  const std::string after_temp = LowerSessionDump(db_, temp_snapshot);
  EXPECT_EQ(Annotations(after_temp, "age="), Annotations(first, "age="));
  EXPECT_EQ(Annotations(after_temp, "bound="), Annotations(first, "bound="));
  {
    Database fresh;
    ASSERT_NO_FATAL_FAILURE(LoadPlansSchema(&fresh));
    ASSERT_NO_FATAL_FAILURE(WriteTempTable(&fresh));
    EXPECT_EQ(after_temp, LowerSessionDump(fresh, fresh.LatestSnapshot()));
  }

  // Later heartbeat writes: the latest snapshot replaces the memo, then
  // the older snapshot misses it and must rescan its own frozen view.
  ASSERT_NO_FATAL_FAILURE(AdvanceHeartbeats(&db_));
  const Snapshot new_snapshot = db_.LatestSnapshot();
  const std::string latest = LowerSessionDump(db_, new_snapshot);
  const std::string older = LowerSessionDump(db_, old_snapshot);
  EXPECT_NE(Annotations(latest, "age="), Annotations(older, "age="));
  EXPECT_NE(Annotations(latest, "bound="), Annotations(older, "bound="));
  // `rows=` counts every version logged so far, so only the snapshot's
  // own annotations can be compared after later writes.
  const std::string temp_again = LowerSessionDump(db_, temp_snapshot);
  EXPECT_EQ(Annotations(temp_again, "age="), Annotations(after_temp, "age="));
  EXPECT_EQ(Annotations(temp_again, "bound="),
            Annotations(after_temp, "bound="));
  // The same history on a fresh database, each snapshot lowered first.
  for (const bool old_first : {true, false}) {
    SCOPED_TRACE(old_first ? "older snapshot first" : "latest first");
    Database fresh;
    ASSERT_NO_FATAL_FAILURE(LoadPlansSchema(&fresh));
    const Snapshot fresh_old = fresh.LatestSnapshot();
    ASSERT_NO_FATAL_FAILURE(WriteTempTable(&fresh));
    ASSERT_NO_FATAL_FAILURE(AdvanceHeartbeats(&fresh));
    const Snapshot fresh_new = fresh.LatestSnapshot();
    ASSERT_EQ(fresh_new.version, new_snapshot.version);
    if (old_first) {
      EXPECT_EQ(older, LowerSessionDump(fresh, fresh_old));
      EXPECT_EQ(latest, LowerSessionDump(fresh, fresh_new));
    } else {
      EXPECT_EQ(latest, LowerSessionDump(fresh, fresh_new));
      EXPECT_EQ(older, LowerSessionDump(fresh, fresh_old));
    }
  }
}

}  // namespace
}  // namespace trac

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
  // redundant filter (node 2) and the dead merge input (merge, node 4).
  // The rendered order follows node ids, not codes, regardless of pass
  // order.
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 pred=00000000deadbeef cols=a.mach_id:d,a.value:r\n"
      "node 2 filter in=1 pred=00000000deadbeef cols=a.mach_id:d,a.value:r\n"
      "node 3 filter in=0 sel=zero cols=a.mach_id:d,a.value:r\n"
      "node 4 merge in=2,3 set sorted gen cols=mach_id:d,value:r\n"
      "node 5 report in=4 cols=mach_id:d\n");
  const VerifyReport report = VerifyIr(ir);
  const std::vector<std::string> want = {"TRAC-V007", "TRAC-V006"};
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

/// Lowers the full q4-style report session over `db` at `snapshot` and
/// `parallelism` through the reporter's PlanReportSession and
/// LowerReportSessionPlans (every plan pinned to the same snapshot).
/// One recency part is a pure Heartbeat scan, which shards at
/// parallelism > 1, and the others are planned filters, so the node ids
/// differ between parallelism 1 and 4.
PlanIr LowerSession(const Database& db, Snapshot snapshot,
                    size_t parallelism) {
  auto query = BindSql(db,
                       "SELECT mach_id FROM activity "
                       "WHERE value = 'idle' OR mach_id = 'm3'");
  EXPECT_TRUE(query.ok()) << query.status();
  auto plan = GenerateRecencyQueries(db, *query);
  EXPECT_TRUE(plan.ok()) << plan.status();
  auto session = PlanReportSession(db, *query, *plan, snapshot, parallelism);
  EXPECT_TRUE(session.ok()) << session.status();
  SessionLayout layout;
  return LowerReportSessionPlans(db, *query, *plan, *session, snapshot,
                                 HeartbeatTable::kDefaultName,
                                 /*session_id=*/1, &layout);
}

class DeterminismCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_NO_FATAL_FAILURE(LoadPlansSchema(&db_)); }

  /// Lowers the full q4-style report session at `parallelism` and
  /// returns the verifier findings after seeding the same violation in
  /// a recency part: its first generated filter is marked statically
  /// refuted (`sel=zero`), so the strand it gates feeds the session
  /// merge dead.
  std::vector<std::string> SeededFindings(size_t parallelism) {
    PlanIr ir = LowerSession(db_, db_.LatestSnapshot(), parallelism);
    bool seeded = false;
    for (IrNode& n : ir.nodes) {
      if (!seeded && n.kind == IrNodeKind::kFilter && n.generated) {
        n.sel_zero = true;
        seeded = true;
      }
    }
    EXPECT_TRUE(seeded) << "no generated filter to seed\n" << ir.Dump();
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
  EXPECT_EQ(serial, std::vector<std::string>{"TRAC-V006"});
}

}  // namespace
}  // namespace trac

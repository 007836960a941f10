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

class DeterminismCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const fs::path schema =
        fs::path(TRAC_EXAMPLES_DIR) / "plans" / "schema.sql";
    std::istringstream lines(ReadFileOrDie(schema));
    std::string stmt;
    std::string line;
    while (std::getline(lines, line)) {
      const size_t b = line.find_first_not_of(" \t\r");
      if (b != std::string::npos && line.compare(b, 2, "--") == 0) continue;
      stmt += line;
      stmt += '\n';
      if (line.find(';') != std::string::npos) {
        auto result = ExecuteStatement(&db_, stmt);
        ASSERT_TRUE(result.ok()) << result.status() << "\n" << stmt;
        stmt.clear();
      }
    }
  }

  /// Lowers the full q1-style report session at `parallelism` and
  /// returns the verifier findings after seeding the same violation at
  /// the report boundary: a NOTICE bound of 0 that the registry's
  /// 127 s age spread can never satisfy.
  std::vector<std::string> SeededFindings(size_t parallelism) {
    auto query = BindSql(db_, "SELECT mach_id FROM activity");
    EXPECT_TRUE(query.ok()) << query.status();
    auto plan = GenerateRecencyQueries(db_, *query);
    EXPECT_TRUE(plan.ok()) << plan.status();
    const Snapshot snapshot = db_.LatestSnapshot();
    auto user_plan = PlanQuery(db_, *query, snapshot);
    EXPECT_TRUE(user_plan.ok()) << user_plan.status();

    auto planned = PlanRecencyParts(db_, *plan, snapshot, parallelism);
    EXPECT_TRUE(planned.ok()) << planned.status();
    ReportSessionInput input;
    input.user_query = &*query;
    input.user_plan = &*user_plan;
    input.snapshot = snapshot;
    input.session = 1;
    input.temp_writes = {"sys_temp_a1"};
    input.parts = SessionParts(*plan, *planned);
    LowerOptions lower;
    lower.heartbeat_table = std::string(HeartbeatTable::kDefaultName);
    PlanIr ir = LowerReportSession(db_, input, lower);
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

}  // namespace
}  // namespace trac

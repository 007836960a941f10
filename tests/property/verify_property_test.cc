// Property: every plan the planner produces for the examples/queries/
// corpus — the user plan, every generated recency part with its guards,
// and the shard fan-out of a parallel executor — lowers to a plan IR
// that the static verifier accepts with zero findings, under both
// serial planning and parallelism > 1. The corpus files are the same
// ones tools/trac_verify lints in CI; this test proves the in-process
// wiring (PlanQuery -> VerifyPlan, RecencyReporter -> VerifyFinishSession)
// sees the same clean plans.

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

/// Strips full-line `-- comments` and splits on ';' outside strings.
std::vector<std::string> SqlStatements(const std::string& text) {
  std::istringstream lines(text);
  std::string stripped;
  std::string line;
  while (std::getline(lines, line)) {
    const size_t b = line.find_first_not_of(" \t\r");
    if (b != std::string::npos && line.compare(b, 2, "--") == 0) continue;
    stripped += line;
    stripped += '\n';
  }
  std::vector<std::string> stmts;
  std::string current;
  bool in_string = false;
  for (char c : stripped) {
    if (c == '\'') in_string = !in_string;
    if (c == ';' && !in_string) {
      stmts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  stmts.push_back(current);
  std::vector<std::string> nonempty;
  for (std::string& s : stmts) {
    if (s.find_first_not_of(" \t\r\n") != std::string::npos) {
      nonempty.push_back(std::move(s));
    }
  }
  return nonempty;
}

class VerifyPropertyTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    const fs::path schema =
        fs::path(TRAC_EXAMPLES_DIR) / "plans" / "schema.sql";
    for (const std::string& stmt : SqlStatements(ReadFileOrDie(schema))) {
      auto result = ExecuteStatement(&db_, stmt);
      ASSERT_TRUE(result.ok()) << result.status() << "\n" << stmt;
    }
  }

  std::vector<fs::path> CorpusQueries() {
    std::vector<fs::path> out;
    const fs::path dir = fs::path(TRAC_EXAMPLES_DIR) / "queries";
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      if (p.extension() == ".sql" && p.filename().string()[0] == 'q') {
        out.push_back(p);
      }
    }
    std::sort(out.begin(), out.end());
    EXPECT_GE(out.size(), 5u) << "corpus went missing?";
    return out;
  }

  Database db_;
};

TEST_P(VerifyPropertyTest, EveryPlannedCorpusQueryVerifiesClean) {
  const size_t parallelism = GetParam();
  for (const fs::path& qpath : CorpusQueries()) {
    SCOPED_TRACE(qpath.filename().string());
    const std::vector<std::string> stmts =
        SqlStatements(ReadFileOrDie(qpath));
    ASSERT_EQ(stmts.size(), 1u);
    auto query = BindSql(db_, stmts[0]);
    ASSERT_TRUE(query.ok()) << query.status();

    auto plan = GenerateRecencyQueries(db_, *query);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const Snapshot snapshot = db_.LatestSnapshot();
    PlanningHints hints;
    hints.guarantee = &plan->analysis;
    // PlanQuery itself runs VerifyPlan on every plan it returns, so a
    // planner-introduced violation would already surface here as a
    // non-OK status.
    auto user_plan = PlanQuery(db_, *query, snapshot, hints);
    ASSERT_TRUE(user_plan.ok()) << user_plan.status();

    // Assemble the full report-session IR, mirroring what
    // RecencyReporter::Finish verifies online.
    auto planned = PlanRecencyParts(db_, *plan, snapshot, parallelism);
    ASSERT_TRUE(planned.ok()) << planned.status();
    ReportSessionInput input;
    input.user_query = &*query;
    input.user_plan = &*user_plan;
    input.snapshot = snapshot;
    input.session = 1;
    input.temp_writes = {"sys_temp_a1", "sys_temp_e1"};
    input.parts = SessionParts(*plan, *planned);
    LowerOptions lower;
    lower.heartbeat_table = std::string(HeartbeatTable::kDefaultName);
    const PlanIr ir = LowerReportSession(db_, input, lower);
    const VerifyReport report = VerifyIr(ir);
    EXPECT_TRUE(report.ok()) << report.Format(ir) << "\n" << ir.Dump();
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, VerifyPropertyTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace trac

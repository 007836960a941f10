// Property: the abstract interpreter yields one fact set per node on
// every plan we can produce — every checked-in .ir file under
// examples/plans (including the seeded-bad corpora) and every
// report-session IR the planner builds for examples/queries at
// parallelism 1 and 4. On the clean corpus the semantic rules stay
// silent (no TRAC-V006/V007).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "absint/absint.h"
#include "analysis/guarantee.h"
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

bool IsSemanticRule(VerifyCode code) {
  return code == VerifyCode::kDeadMergeInput ||
         code == VerifyCode::kRedundantFilter;
}

// Every checked-in IR — the seeded-bad corpora, forward edges
// included — must analyze to one fact set per node, the same on every
// run.
TEST(AbsintCorpusTest, EveryCheckedInPlanIrAnalyzes) {
  const fs::path root = fs::path(TRAC_EXAMPLES_DIR) / "plans";
  size_t seen = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() != ".ir") continue;
    SCOPED_TRACE(p.string());
    auto ir = ParsePlanIr(ReadFileOrDie(p));
    ASSERT_TRUE(ir.ok()) << ir.status();
    const absint::AbsintResult result = absint::AnalyzeIr(*ir);
    EXPECT_EQ(result.facts.size(), ir->nodes.size());
    EXPECT_EQ(result.Dump(*ir), absint::AnalyzeIr(*ir).Dump(*ir));
    ++seen;
  }
  EXPECT_GE(seen, 11u) << "the seeded-bad corpora went missing?";
}

class AbsintPropertyTest : public ::testing::TestWithParam<size_t> {
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

TEST_P(AbsintPropertyTest, CleanlinessOnCorpus) {
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
    auto session =
        PlanReportSession(db_, *query, *plan, snapshot, parallelism);
    ASSERT_TRUE(session.ok()) << session.status();
    SessionLayout layout;
    const PlanIr ir = LowerReportSessionPlans(
        db_, *query, *plan, *session, snapshot, HeartbeatTable::kDefaultName,
        /*session_id=*/1, &layout);

    // 1. The engine covers the full session graph.
    const absint::AbsintResult result = absint::AnalyzeIr(ir);
    ASSERT_EQ(result.facts.size(), ir.nodes.size()) << ir.Dump();

    // 2. No clean plan trips a semantic rule.
    const VerifyReport report = VerifyIr(ir);
    for (const VerifyDiagnostic& d : report.diagnostics) {
      EXPECT_FALSE(IsSemanticRule(d.code)) << d.Format() << "\n" << ir.Dump();
    }
    EXPECT_TRUE(report.ok()) << report.Format(ir);

    // 3. The corpus queries all earn EXACT_MINIMUM, and the session
    // ends in its report node.
    EXPECT_EQ(plan->analysis.verdict, RecencyGuarantee::kExactMinimum);
    EXPECT_EQ(ir.nodes.back().kind, IrNodeKind::kReport) << ir.Dump();
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, AbsintPropertyTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace trac

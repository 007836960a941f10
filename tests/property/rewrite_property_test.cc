// Property: over the examples/queries/ corpus, the optimizer is
// invisible except in cost. For every query, at parallelism 1 and 4:
//   - the optimized plan is provably equivalent to the unoptimized one
//     (CheckIrEquivalence over their lowered IRs is clean);
//   - no corpus rewrite is ever rejected (the rules only propose
//     candidates the checker accepts — a rejection here means rule and
//     checker disagree about safety);
//   - the optimized plan still passes the full V000..V007 pipeline;
//   - the rendered report — user rows plus the NOTICE block — is
//     byte-identical with the optimizer on and off.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/recency_reporter.h"
#include "exec/planner.h"
#include "exec/statement.h"
#include "expr/binder.h"
#include "ir/lower.h"
#include "opt/rewrite.h"
#include "storage/database.h"
#include "verify/equiv.h"
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

class RewritePropertyTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    const fs::path schema =
        fs::path(TRAC_EXAMPLES_DIR) / "plans" / "schema.sql";
    for (const std::string& stmt : SqlStatements(ReadFileOrDie(schema))) {
      auto result = ExecuteStatement(&db_, stmt);
      ASSERT_TRUE(result.ok()) << result.status() << "\n" << stmt;
    }
    // Rows in the user tables so the reports have something to say.
    const char* kData[] = {
        "INSERT INTO activity VALUES "
        "('m001', 'idle', '2006-03-15 13:59:00'), "
        "('m002', 'busy', '2006-03-15 13:58:00'), "
        "('m007', 'idle', '2006-03-15 13:57:30')",
        "INSERT INTO routing VALUES "
        "('m001', 'm7', '2006-03-15 13:55:00'), "
        "('m002', 'm7', '2006-03-15 13:54:00'), "
        "('m003', 'm9', '2006-03-15 13:53:00')",
    };
    for (const char* stmt : kData) {
      auto result = ExecuteStatement(&db_, stmt);
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }

  void TearDown() override { opt::SetOptimizerEnabled(true); }

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

TEST_P(RewritePropertyTest, OptimizedPlanIsProvablyEquivalent) {
  for (const fs::path& qpath : CorpusQueries()) {
    SCOPED_TRACE(qpath.filename().string());
    const std::vector<std::string> stmts = SqlStatements(ReadFileOrDie(qpath));
    ASSERT_EQ(stmts.size(), 1u);
    auto query = BindSql(db_, stmts[0]);
    ASSERT_TRUE(query.ok()) << query.status();
    const Snapshot snapshot = db_.LatestSnapshot();

    opt::SetOptimizerEnabled(false);
    auto baseline = PlanQuery(db_, *query, snapshot);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    EXPECT_TRUE(baseline->rewrites.empty());

    opt::SetOptimizerEnabled(true);
    auto optimized = PlanQuery(db_, *query, snapshot);
    ASSERT_TRUE(optimized.ok()) << optimized.status();

    // Rule and checker must agree on the corpus: a rewrite may be
    // applied or verified-but-not-cheaper, never rejected.
    for (const PlanRewrite& r : optimized->rewrites) {
      EXPECT_EQ(r.verdict.rfind("rejected", 0), std::string::npos)
          << r.rule << " (" << r.detail << "): " << r.verdict;
    }

    const PlanIr before = LowerQueryPlan(db_, *query, *baseline, snapshot);
    const PlanIr after = LowerQueryPlan(db_, *query, *optimized, snapshot);
    const VerifyReport equiv = CheckIrEquivalence(before, after);
    EXPECT_TRUE(equiv.ok()) << equiv.Format(after) << "\n" << after.Dump();

    // The optimized plan is still a valid plan on its own terms.
    const VerifyReport report = VerifyIr(after);
    EXPECT_TRUE(report.ok()) << report.Format(after) << "\n" << after.Dump();
  }
}

TEST_P(RewritePropertyTest, ReportBytesIdenticalOptimizerOnAndOff) {
  const size_t parallelism = GetParam();
  for (const fs::path& qpath : CorpusQueries()) {
    SCOPED_TRACE(qpath.filename().string());
    const std::vector<std::string> stmts = SqlStatements(ReadFileOrDie(qpath));
    ASSERT_EQ(stmts.size(), 1u);

    RecencyReportOptions options;
    options.create_temp_tables = false;
    options.relevance.parallelism = parallelism;

    auto render = [&](bool enabled) {
      opt::SetOptimizerEnabled(enabled);
      RecencyReporter reporter(&db_, /*session=*/nullptr);
      auto report = reporter.Run(stmts[0], options);
      EXPECT_TRUE(report.ok()) << report.status();
      if (!report.ok()) return std::string();
      return report->result.ToString() + "\n" + report->FormatNotices();
    };
    const std::string with_opt = render(true);
    const std::string without_opt = render(false);
    EXPECT_EQ(with_opt, without_opt);
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, RewritePropertyTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace trac

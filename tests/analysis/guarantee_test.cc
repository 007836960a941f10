// Unit tests for the static recency-guarantee analyzer: verdicts,
// source-anchored diagnostics, DNF blow-up degradation, and the
// plan/executor wiring of the verdict.

#include "analysis/guarantee.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/recency_reporter.h"
#include "core/relevance.h"
#include "exec/executor.h"
#include "expr/binder.h"

namespace trac {
namespace {

using testing_util::PaperExampleDb;

GuaranteeReport Analyze(const Database& db, const std::string& sql) {
  auto bound = BindSql(db, sql);
  EXPECT_TRUE(bound.ok()) << bound.status();
  auto report = AnalyzeRecencyGuarantee(db, *bound);
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? *report : GuaranteeReport{};
}

bool HasCode(const GuaranteeReport& report, AnalysisCode code) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [code](const AnalysisDiagnostic& d) {
                       return d.code == code;
                     });
}

TEST(GuaranteeTest, SourcePredicateIsExactMinimum) {
  PaperExampleDb fixture;
  GuaranteeReport report =
      Analyze(fixture.db, "SELECT value FROM activity WHERE mach_id = 'm1'");
  EXPECT_EQ(report.verdict, RecencyGuarantee::kExactMinimum);
  EXPECT_EQ(report.citation, "Theorem 3");
  EXPECT_EQ(report.live_conjuncts, 1u);
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(GuaranteeTest, SourceJoinIsExactMinimumUnderTheorem4) {
  PaperExampleDb fixture;
  GuaranteeReport report = Analyze(
      fixture.db,
      "SELECT r.mach_id FROM routing r, activity a "
      "WHERE r.mach_id = a.mach_id AND a.value = 'idle'");
  EXPECT_EQ(report.verdict, RecencyGuarantee::kExactMinimum);
  EXPECT_EQ(report.citation, "Theorem 4");
}

TEST(GuaranteeTest, MixedPredicateDowngradesWithAnchoredDiagnostic) {
  PaperExampleDb fixture;
  GuaranteeReport report = Analyze(
      fixture.db, "SELECT mach_id FROM routing WHERE mach_id = neighbor");
  EXPECT_EQ(report.verdict, RecencyGuarantee::kUpperBound);
  EXPECT_EQ(report.citation, "Corollary 3");
  ASSERT_TRUE(HasCode(report, AnalysisCode::kMixedPredicate));
  const AnalysisDiagnostic* diag = nullptr;
  for (const AnalysisDiagnostic& d : report.diagnostics) {
    if (d.code == AnalysisCode::kMixedPredicate) diag = &d;
  }
  EXPECT_EQ(diag->conjunct, 1u);
  EXPECT_EQ(diag->relation, "routing");
  EXPECT_NE(diag->term_sql.find("neighbor"), std::string::npos);
  EXPECT_NE(diag->Format().find("TRAC-W001"), std::string::npos);
}

TEST(GuaranteeTest, RegularColumnJoinDowngrades) {
  PaperExampleDb fixture;
  GuaranteeReport report = Analyze(
      fixture.db,
      "SELECT r.mach_id FROM routing r, activity a "
      "WHERE r.event_time = a.event_time");
  EXPECT_EQ(report.verdict, RecencyGuarantee::kUpperBound);
  EXPECT_EQ(report.citation, "Corollary 5");
  EXPECT_TRUE(HasCode(report, AnalysisCode::kRegularColumnJoin));
}

TEST(GuaranteeTest, DisjointDomainJoinIsProvablyEmpty) {
  PaperExampleDb fixture;
  // neighbor ranges over m1..m11, value over {idle, busy}: the declared
  // domains are disjoint, so the regular-column join can never hold.
  GuaranteeReport report = Analyze(
      fixture.db,
      "SELECT r.mach_id FROM routing r, activity a "
      "WHERE r.neighbor = a.value");
  EXPECT_EQ(report.verdict, RecencyGuarantee::kEmptySet);
  EXPECT_TRUE(HasCode(report, AnalysisCode::kUnsatisfiableQuery));
}

TEST(GuaranteeTest, OnlySomeConjunctsDegradedStillUpperBound) {
  PaperExampleDb fixture;
  // Conjunct {mach_id='m1'} is exact; conjunct {mach_id=neighbor} is
  // mixed. One bad conjunct decides the whole query's verdict.
  GuaranteeReport report = Analyze(
      fixture.db,
      "SELECT mach_id FROM routing "
      "WHERE mach_id = 'm1' OR mach_id = neighbor");
  EXPECT_EQ(report.verdict, RecencyGuarantee::kUpperBound);
  EXPECT_EQ(report.dnf_conjuncts, 2u);
}

TEST(GuaranteeTest, UnsatisfiableConjunctDroppedKeepsExactness) {
  PaperExampleDb fixture;
  GuaranteeReport report = Analyze(
      fixture.db,
      "SELECT mach_id FROM activity "
      "WHERE mach_id = 'm1' OR (value = 'idle' AND value = 'busy')");
  EXPECT_EQ(report.verdict, RecencyGuarantee::kExactMinimum);
  EXPECT_EQ(report.dnf_conjuncts, 2u);
  EXPECT_EQ(report.live_conjuncts, 1u);
  EXPECT_TRUE(HasCode(report, AnalysisCode::kUnsatisfiableConjunct));
}

TEST(GuaranteeTest, FullyUnsatisfiableQueryIsEmptySet) {
  PaperExampleDb fixture;
  GuaranteeReport report = Analyze(
      fixture.db,
      "SELECT mach_id FROM activity WHERE value = 'idle' AND value = 'busy'");
  EXPECT_EQ(report.verdict, RecencyGuarantee::kEmptySet);
  EXPECT_EQ(report.live_conjuncts, 0u);
  EXPECT_TRUE(HasCode(report, AnalysisCode::kUnsatisfiableQuery));
}

TEST(GuaranteeTest, UnmonitoredQueryIsEmptySet) {
  PaperExampleDb fixture;
  // The heartbeat table itself carries no DATA SOURCE column.
  GuaranteeReport report =
      Analyze(fixture.db, "SELECT source_id FROM heartbeat");
  EXPECT_EQ(report.verdict, RecencyGuarantee::kEmptySet);
  EXPECT_TRUE(HasCode(report, AnalysisCode::kNoMonitoredRelation));
  EXPECT_TRUE(HasCode(report, AnalysisCode::kUnmonitoredRelation));
}

std::string BlowUpSql() {
  // 13 binary disjunctions: 2^13 = 8192 > 4096 worst-case conjuncts.
  std::string where;
  for (int i = 0; i < 13; ++i) {
    if (i > 0) where += " AND ";
    where += "(mach_id = 'm1' OR value = 'idle')";
  }
  return "SELECT mach_id FROM activity WHERE " + where;
}

TEST(GuaranteeTest, DnfBlowUpDegradesToUpperBound) {
  PaperExampleDb fixture;
  GuaranteeReport report = Analyze(fixture.db, BlowUpSql());
  EXPECT_EQ(report.verdict, RecencyGuarantee::kUpperBound);
  EXPECT_TRUE(report.dnf_overflow);
  EXPECT_GT(report.estimated_dnf_conjuncts, 4096u);
  EXPECT_TRUE(HasCode(report, AnalysisCode::kDnfBlowUp));
}

// Regression: the blow-up must degrade through the relevance path too —
// a complete all-sources plan carrying the analyzer's report, never an
// error.
TEST(GuaranteeTest, DnfBlowUpDegradesThroughRelevancePlan) {
  PaperExampleDb fixture;
  auto bound = BindSql(fixture.db, BlowUpSql());
  ASSERT_TRUE(bound.ok()) << bound.status();
  auto plan = GenerateRecencyQueries(fixture.db, *bound);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->fallback_all);
  EXPECT_FALSE(plan->minimal);
  EXPECT_EQ(plan->analysis.verdict, RecencyGuarantee::kUpperBound);
  EXPECT_TRUE(plan->analysis.dnf_overflow);
  EXPECT_TRUE(HasCode(plan->analysis, AnalysisCode::kDnfBlowUp));
}

TEST(GuaranteeTest, PlanVerdictMatchesPlanMinimality) {
  PaperExampleDb fixture;
  for (const char* sql : {
           "SELECT value FROM activity WHERE mach_id = 'm1'",
           "SELECT mach_id FROM routing WHERE mach_id = neighbor",
           "SELECT r.mach_id FROM routing r, activity a "
           "WHERE r.mach_id = a.mach_id",
           "SELECT mach_id FROM activity WHERE value = 'idle' AND "
           "value = 'busy'",
       }) {
    SCOPED_TRACE(sql);
    auto bound = BindSql(fixture.db, sql);
    ASSERT_TRUE(bound.ok()) << bound.status();
    auto plan = GenerateRecencyQueries(fixture.db, *bound);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(plan->minimal,
              plan->analysis.verdict != RecencyGuarantee::kUpperBound);
  }
}

TEST(GuaranteeTest, ProvablyEmptyQueryShortCircuitsExecution) {
  PaperExampleDb fixture;
  auto bound = BindSql(
      fixture.db,
      "SELECT mach_id FROM activity WHERE value = 'idle' AND value = 'busy'");
  ASSERT_TRUE(bound.ok()) << bound.status();
  auto report = AnalyzeRecencyGuarantee(fixture.db, *bound);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->verdict, RecencyGuarantee::kEmptySet);

  Snapshot snap = fixture.db.LatestSnapshot();
  PlanningHints hints;
  hints.guarantee = &*report;
  auto with_hints = ExecuteQuery(fixture.db, *bound, snap, hints);
  ASSERT_TRUE(with_hints.ok()) << with_hints.status();
  auto without_hints = ExecuteQuery(fixture.db, *bound, snap);
  ASSERT_TRUE(without_hints.ok()) << without_hints.status();
  EXPECT_EQ(with_hints->num_rows(), 0u);
  EXPECT_EQ(with_hints->rows, without_hints->rows);
  EXPECT_EQ(with_hints->column_names, without_hints->column_names);
}

TEST(GuaranteeTest, ProvablyEmptyCountStarStillReturnsZeroRow) {
  PaperExampleDb fixture;
  auto bound = BindSql(
      fixture.db,
      "SELECT COUNT(*) FROM activity WHERE value = 'idle' AND "
      "value = 'busy'");
  ASSERT_TRUE(bound.ok()) << bound.status();
  auto report = AnalyzeRecencyGuarantee(fixture.db, *bound);
  ASSERT_TRUE(report.ok()) << report.status();
  PlanningHints hints;
  hints.guarantee = &*report;
  auto rs = ExecuteQuery(fixture.db, *bound, fixture.db.LatestSnapshot(),
                         hints);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->count(), 0);
}

TEST(GuaranteeTest, ReportNoticePrintsGuaranteeNextToBound) {
  PaperExampleDb fixture;
  Session session(&fixture.db);
  RecencyReporter reporter(&fixture.db, &session);
  auto report = reporter.Run("SELECT value FROM activity WHERE mach_id = 'm1'");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->relevance.analysis.verdict,
            RecencyGuarantee::kExactMinimum);
  const std::string notices = report->FormatNotices();
  EXPECT_NE(notices.find("Bound of inconsistency"), std::string::npos);
  EXPECT_NE(
      notices.find("Recency guarantee: EXACT_MINIMUM (Theorem 3)"),
      std::string::npos);
}

TEST(GuaranteeTest, FormatIsStableLintStyleBlock) {
  PaperExampleDb fixture;
  GuaranteeReport report = Analyze(
      fixture.db, "SELECT mach_id FROM routing WHERE mach_id = neighbor");
  const std::string text = report.Format();
  EXPECT_NE(text.find("verdict: UPPER_BOUND"), std::string::npos);
  EXPECT_NE(text.find("citation: Corollary 3"), std::string::npos);
  EXPECT_NE(text.find("dnf: estimated"), std::string::npos);
  EXPECT_NE(text.find("[TRAC-W001]"), std::string::npos);
}

TEST(GuaranteeTest, CodeIdsAndCitationsAreStable) {
  EXPECT_EQ(AnalysisCodeId(AnalysisCode::kMixedPredicate), "TRAC-W001");
  EXPECT_EQ(AnalysisCodeId(AnalysisCode::kRegularColumnJoin), "TRAC-W002");
  EXPECT_EQ(AnalysisCodeId(AnalysisCode::kUnprovenSatisfiability),
            "TRAC-W003");
  EXPECT_EQ(AnalysisCodeId(AnalysisCode::kDnfBlowUp), "TRAC-W004");
  EXPECT_EQ(AnalysisCodeId(AnalysisCode::kNaiveAllSources), "TRAC-W005");
  EXPECT_EQ(AnalysisCodeId(AnalysisCode::kUnsatisfiableConjunct),
            "TRAC-I001");
  EXPECT_EQ(AnalysisCodeId(AnalysisCode::kRelationSelectionUnsat),
            "TRAC-I002");
  EXPECT_EQ(AnalysisCodeId(AnalysisCode::kUnmonitoredRelation), "TRAC-I003");
  EXPECT_EQ(AnalysisCodeId(AnalysisCode::kUnsatisfiableQuery), "TRAC-E001");
  EXPECT_EQ(AnalysisCodeId(AnalysisCode::kNoMonitoredRelation), "TRAC-E002");
  EXPECT_EQ(AnalysisCodeCitation(AnalysisCode::kMixedPredicate, false),
            "Corollary 3");
  EXPECT_EQ(AnalysisCodeCitation(AnalysisCode::kMixedPredicate, true),
            "Corollary 5");
  EXPECT_EQ(AnalysisCodeCitation(AnalysisCode::kUnsatisfiableConjunct, true),
            "Corollary 6");
}

}  // namespace
}  // namespace trac

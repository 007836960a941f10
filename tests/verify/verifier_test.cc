#include "verify/verifier.h"

#include <gtest/gtest.h>

namespace trac {
namespace {

/// Parses `text`, runs the verifier, and returns the report.
VerifyReport Verify(const std::string& text) {
  auto parsed = ParsePlanIr(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return VerifyIr(*parsed);
}

bool HasCode(const VerifyReport& report, VerifyCode code) {
  for (const VerifyDiagnostic& d : report.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

TEST(VerifierTest, CleanSessionShapePasses) {
  const VerifyReport report = Verify(
      "ir clean\n"
      "node 0 scan table=activity snap=5 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 cols=a.mach_id:d,a.value:r\n"
      "node 2 scan table=heartbeat snap=5 gen "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 3 scan table=heartbeat snap=5 gen "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 4 merge in=2,3 set sorted gen cols=source_id:d\n"
      "node 5 tempwrite in=4 table=sys_temp_a1 session=7 gen "
      "cols=source_id:d\n"
      "node 6 report in=1,5 gen\n");
  EXPECT_TRUE(report.ok()) << report.Format(PlanIr{});
}

// --- TRAC-V000: malformed graph --------------------------------------------

TEST(VerifierTest, ForwardEdgeIsMalformed) {
  const VerifyReport report = Verify(
      "ir fwd\n"
      "node 0 scan table=t snap=1 cols=x:d\n"
      "node 1 filter in=2 cols=x:d\n"
      "node 2 report in=1 cols=x:d\n");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, VerifyCode::kMalformedGraph));
  EXPECT_EQ(VerifyCodeId(report.diagnostics[0].code), "TRAC-V000");
}

TEST(VerifierTest, SelfEdgeIsMalformed) {
  const VerifyReport report = Verify(
      "ir self\n"
      "node 0 scan table=t snap=1 cols=x:d\n"
      "node 1 filter in=1 cols=x:d\n");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, VerifyCode::kMalformedGraph));
}

TEST(VerifierTest, NonDenseIdsAreMalformedAndShortCircuit) {
  // The text parser already rejects sparse ids, so build this by hand.
  PlanIr ir;
  ir.label = "sparse";
  IrNode scan;
  scan.id = 3;  // Should be 0.
  scan.kind = IrNodeKind::kScan;
  scan.table = "t";
  ir.nodes.push_back(scan);
  const VerifyReport report = VerifyIr(ir);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, VerifyCode::kMalformedGraph);
}

// --- TRAC-V001: single snapshot --------------------------------------------

TEST(VerifierTest, SnapshotMismatchRejected) {
  const VerifyReport report = Verify(
      "ir snap\n"
      "node 0 scan table=a snap=7 cols=x:d\n"
      "node 1 scan table=b snap=8 cols=y:d\n"
      "node 2 report in=0,1 cols=x:d\n");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, VerifyCode::kSnapshotMismatch));
  EXPECT_EQ(VerifyCodeId(VerifyCode::kSnapshotMismatch), "TRAC-V001");
}

TEST(VerifierTest, EverySnapshotMismatchIsReported) {
  const VerifyReport report = Verify(
      "ir snap3\n"
      "node 0 scan table=a snap=7 cols=x:d\n"
      "node 1 scan table=b snap=8 cols=y:d\n"
      "node 2 scan table=c snap=9 cols=z:d\n"
      "node 3 report in=0,1,2 cols=x:d\n");
  size_t mismatches = 0;
  for (const VerifyDiagnostic& d : report.diagnostics) {
    mismatches += d.code == VerifyCode::kSnapshotMismatch;
  }
  EXPECT_EQ(mismatches, 2u);  // Nodes 1 and 2 against node 0's epoch.
}

// --- TRAC-V002: temp-table discipline --------------------------------------

TEST(VerifierTest, TempUseBeforeDefRejected) {
  const VerifyReport report = Verify(
      "ir usedef\n"
      "node 0 scan table=sys_temp_a9 snap=1 cols=source_id:d\n"
      "node 1 report in=0 cols=source_id:d\n");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, VerifyCode::kTempUseBeforeDef));
  EXPECT_EQ(VerifyCodeId(VerifyCode::kTempUseBeforeDef), "TRAC-V002");
}

TEST(VerifierTest, PreexistingTempScanIsAllowed) {
  const VerifyReport report = Verify(
      "ir pre\n"
      "node 0 scan table=sys_temp_a9 snap=1 pre cols=source_id:d\n"
      "node 1 report in=0 cols=source_id:d\n");
  EXPECT_TRUE(report.ok());
}

TEST(VerifierTest, DefThenUseIsAllowed) {
  const VerifyReport report = Verify(
      "ir defuse\n"
      "node 0 scan table=heartbeat snap=1 cols=source_id:d\n"
      "node 1 tempwrite in=0 table=sys_temp_a9 session=2 cols=source_id:d\n"
      "node 2 scan table=sys_temp_a9 snap=1 session=2 cols=source_id:d\n"
      "node 3 report in=2 cols=source_id:d\n");
  EXPECT_TRUE(report.ok()) << report.Format(PlanIr{});
}

TEST(VerifierTest, SessionlessTempWriteRejected) {
  const VerifyReport report = Verify(
      "ir unowned\n"
      "node 0 scan table=heartbeat snap=1 cols=source_id:d\n"
      "node 1 tempwrite in=0 table=sys_temp_a9 cols=source_id:d\n");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, VerifyCode::kTempSessionEscape));
}

TEST(VerifierTest, CrossSessionTempsRejected) {
  const VerifyReport report = Verify(
      "ir cross\n"
      "node 0 scan table=heartbeat snap=1 cols=source_id:d\n"
      "node 1 tempwrite in=0 table=sys_temp_a1 session=5 cols=source_id:d\n"
      "node 2 tempwrite in=0 table=sys_temp_a2 session=9 cols=source_id:d\n");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, VerifyCode::kTempSessionEscape));
}

// --- TRAC-V004: provenance hygiene -----------------------------------------

TEST(VerifierTest, SumOverDataSourceColumnRejected) {
  const VerifyReport report = Verify(
      "ir sumds\n"
      "node 0 scan table=activity snap=1 cols=a.mach_id:d,a.value:r\n"
      "node 1 agg in=0 fns=sum:d cols=total:r\n"
      "node 2 report in=1 cols=total:r\n");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, VerifyCode::kProvenanceLeak));
  EXPECT_EQ(VerifyCodeId(VerifyCode::kProvenanceLeak), "TRAC-V004");
}

TEST(VerifierTest, CountOverDataSourceColumnIsFine) {
  // count/min/max preserve or ignore identity; only sum/avg treat the
  // column as a quantity.
  const VerifyReport report = Verify(
      "ir countds\n"
      "node 0 scan table=activity snap=1 cols=a.mach_id:d,a.value:r\n"
      "node 1 agg in=0 fns=count:d,min:d,max:d cols=n:r\n"
      "node 2 report in=1 cols=n:r\n");
  EXPECT_TRUE(report.ok()) << report.Format(PlanIr{});
}

TEST(VerifierTest, TempWriteWithoutSourceColumnRejected) {
  const VerifyReport report = Verify(
      "ir nods\n"
      "node 0 scan table=activity snap=1 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 cols=a.value:r\n"
      "node 2 tempwrite in=1 table=sys_temp_a1 session=2 cols=a.value:r\n");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, VerifyCode::kProvenanceLeak));
}

TEST(VerifierTest, GeneratedMergeInputWithoutSourceColumnRejected) {
  const VerifyReport report = Verify(
      "ir mergeleak\n"
      "node 0 scan table=heartbeat snap=1 "
      "cols=source_id:d,recency_timestamp:r\n"
      "node 1 scan table=activity snap=1 cols=a.value:r\n"
      "node 2 merge in=0,1 set gen cols=source_id:d\n"
      "node 3 report in=2 cols=source_id:d\n");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, VerifyCode::kProvenanceLeak));
}

TEST(VerifierTest, UserMergeWithoutSourceColumnIsFine) {
  // Only *generated* merges carry the relevance-delivery obligation; a
  // user query unioning regular columns is legal.
  const VerifyReport report = Verify(
      "ir usermerge\n"
      "node 0 scan table=a snap=1 cols=x:r\n"
      "node 1 scan table=b snap=1 cols=y:r\n"
      "node 2 merge in=0,1 set cols=x:r\n"
      "node 3 report in=2 cols=x:r\n");
  EXPECT_TRUE(report.ok()) << report.Format(PlanIr{});
}

// --- Reporting surfaces ----------------------------------------------------

TEST(VerifierTest, DiagnosticFormatCarriesCodeNodeAndKind) {
  const VerifyReport report = Verify(
      "ir fmt\n"
      "node 0 scan table=a snap=7 cols=x:d\n"
      "node 1 scan table=b snap=8 cols=y:d\n");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const std::string line = report.diagnostics[0].Format();
  EXPECT_NE(line.find("[TRAC-V001]"), std::string::npos) << line;
  EXPECT_NE(line.find("node 1"), std::string::npos) << line;
  EXPECT_NE(line.find("(scan)"), std::string::npos) << line;
}

TEST(VerifierTest, VerifyIrStatusFoldsFindings) {
  auto parsed = ParsePlanIr(
      "ir status\n"
      "node 0 scan table=a snap=7 cols=x:d\n"
      "node 1 scan table=b snap=8 cols=y:d\n");
  ASSERT_TRUE(parsed.ok());
  const Status s = VerifyIrStatus(*parsed);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("TRAC-V001"), std::string::npos) << s.ToString();

  auto clean = ParsePlanIr(
      "ir ok\n"
      "node 0 scan table=a snap=7 cols=x:d\n"
      "node 1 report in=0 cols=x:d\n");
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(VerifyIrStatus(*clean).ok());
}

}  // namespace
}  // namespace trac

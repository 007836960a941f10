// Unit tests for the abstract interpreter (src/absint): the lattice
// domains, the one-pass engine's transfer functions, and the semantic
// verifier rules TRAC-V006/V007 it feeds.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "absint/absint.h"
#include "absint/domains.h"
#include "ir/plan_ir.h"
#include "verify/verifier.h"

namespace trac {
namespace {

using absint::AbsintResult;
using absint::AnalyzeIr;
using absint::CardInterval;
using absint::SourceSet;

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

// ---------------------------------------------------------------------
// Lattice domains.

TEST(SourceSetTest, JoinIsSortedSetUnion) {
  SourceSet a;
  a.Insert("routing");
  a.Insert("activity");
  a.Insert("activity");  // duplicate insert is a no-op
  SourceSet b;
  b.Insert("heartbeat");
  a.JoinWith(b);
  EXPECT_EQ(a.ToString(), "{activity,heartbeat,routing}");
}

TEST(CardIntervalTest, ArithmeticSaturatesAndUnknownAbsorbs) {
  const CardInterval a = CardInterval::UpTo(10);
  const CardInterval b = CardInterval::Exact(3);
  const CardInterval sum = CardInterval::Sum(a, b);
  EXPECT_EQ(sum.lo, 3u);
  EXPECT_EQ(sum.hi, 13u);
  const CardInterval prod = CardInterval::Product(a, b);
  EXPECT_EQ(prod.lo, 0u);
  EXPECT_EQ(prod.hi, 30u);
  // Saturation, not wraparound.
  const CardInterval big = CardInterval::Exact(~0ull);
  EXPECT_EQ(CardInterval::Sum(big, b).hi, ~0ull);
  EXPECT_EQ(CardInterval::Product(big, b).hi, ~0ull);
  // Unknown is absorbing.
  EXPECT_TRUE(CardInterval::Sum(a, CardInterval::Unknown()).unbounded);
  EXPECT_TRUE(CardInterval::Product(a, CardInterval::Unknown()).unbounded);
  EXPECT_EQ(CardInterval::Unknown().ToString(), "[0..inf]");
  EXPECT_TRUE(CardInterval::Exact(0).DefinitelyEmpty());
  EXPECT_FALSE(CardInterval::Unknown().DefinitelyEmpty());
}

// ---------------------------------------------------------------------
// Transfer functions and the one-pass engine.

TEST(AbsintEngineTest, ScanFactsComeFromAnnotations) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=128 "
      "cols=h.source_id:d,h.recency_timestamp:r\n");
  const AbsintResult r = AnalyzeIr(ir);
  ASSERT_EQ(r.facts.size(), 1u);
  EXPECT_EQ(r.facts[0].card.ToString(), "[0..128]");
  ASSERT_EQ(r.facts[0].column_sources.size(), 2u);
  EXPECT_EQ(r.facts[0].column_sources[0].ToString(), "{heartbeat}");
  EXPECT_TRUE(r.facts[0].column_sources[1].empty());
  EXPECT_EQ(r.facts[0].sources.ToString(), "{heartbeat}");
}

TEST(AbsintEngineTest, UnannotatedScanIsUnknownCardinality) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=activity snap=5 cols=a.mach_id:d,a.value:r\n");
  const AbsintResult r = AnalyzeIr(ir);
  EXPECT_TRUE(r.facts[0].card.unbounded);
}

TEST(AbsintEngineTest, DeadnessPropagatesThroughFilterAndJoin) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 sel=zero cols=a.mach_id:d,a.value:r\n"
      "node 2 scan table=routing snap=5 rows=64 "
      "cols=r.mach_id:d,r.neighbor:r\n"
      "node 3 join in=1,2 key=d-d "
      "cols=a.mach_id:d,a.value:r,r.mach_id:d,r.neighbor:r\n");
  const AbsintResult r = AnalyzeIr(ir);
  EXPECT_FALSE(r.facts[0].dead);
  EXPECT_TRUE(r.facts[1].dead);
  EXPECT_TRUE(r.facts[1].card.DefinitelyEmpty());
  EXPECT_TRUE(r.facts[3].dead) << "join over a dead input is dead";
  EXPECT_TRUE(r.facts[3].card.DefinitelyEmpty());
  // Provenance concatenates positionally through the join.
  EXPECT_EQ(r.facts[3].sources.ToString(), "{activity,routing}");
}

TEST(AbsintEngineTest, AggregateOverDeadInputStillEmitsARow) {
  // COUNT(*) over a provably-empty input still produces one output row,
  // so an aggregate must never inherit deadness (a V006 on its consumer
  // would be unsound).
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 sel=zero cols=a.mach_id:d,a.value:r\n"
      "node 2 agg in=1 fns=count:r cols=a.mach_id:d,n:r\n");
  const AbsintResult r = AnalyzeIr(ir);
  EXPECT_FALSE(r.facts[2].dead);
  EXPECT_EQ(r.facts[2].card.ToString(), "[1..1]");
}

TEST(AbsintEngineTest, MergeSumsCardinality) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=100 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 1 scan table=heartbeat snap=5 rows=28 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 2 merge in=0,1 sorted gen "
      "cols=h.source_id:d,h.recency_timestamp:r\n");
  const AbsintResult r = AnalyzeIr(ir);
  EXPECT_EQ(r.facts[2].card.ToString(), "[0..128]");
  EXPECT_EQ(r.facts[2].sources.ToString(), "{heartbeat}");
}

TEST(AbsintEngineTest, DumpIsDeterministic) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=128 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 1 report in=0 cols=h.source_id:d\n");
  const AbsintResult a = AnalyzeIr(ir);
  const AbsintResult b = AnalyzeIr(ir);
  EXPECT_EQ(a.Dump(ir), b.Dump(ir));
  EXPECT_EQ(a.Dump(ir),
            "absint 't': 2 nodes\n"
            "  node 0 scan: card=[0..128] src={heartbeat}\n"
            "  node 1 report: card=[0..128] src={heartbeat}\n");
}

TEST(AbsintEngineTest, ForwardEdgesReadBottomAndNeverFail) {
  // Malformed on purpose: node 0 reads node 1 (a forward edge) and
  // node 2 reads itself. A standalone call (no TRAC-V000 gate first)
  // must still return one fact set per node, reading those inputs at
  // bottom: no provenance and no rows.
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 filter in=1 cols=a.mach_id:d,a.value:r\n"
      "node 1 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 2 merge in=1,2 set sorted gen cols=mach_id:d,value:r\n");
  const AbsintResult r = AnalyzeIr(ir);
  ASSERT_EQ(r.facts.size(), 3u);
  EXPECT_EQ(r.facts[0].sources.ToString(), "{}");
  EXPECT_EQ(r.facts[0].card.ToString(), "[0..0]");
  EXPECT_FALSE(r.facts[0].dead);
  EXPECT_EQ(r.facts[1].sources.ToString(), "{activity}");
  EXPECT_EQ(r.facts[2].sources.ToString(), "{activity}");
  EXPECT_EQ(r.facts[2].card.ToString(), "[0..64]");
  EXPECT_EQ(Codes(VerifyIr(ir)),
            (std::vector<std::string>{"TRAC-V000", "TRAC-V000"}));
}

// ---------------------------------------------------------------------
// Verifier rules V006/V007.

TEST(AbsintVerifyTest, V006FiresOnDeadMergeInputOnlyNotEmptyTables) {
  const PlanIr dead = ParseOrDie(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 sel=zero cols=a.mach_id:d,a.value:r\n"
      "node 2 scan table=routing snap=5 rows=64 "
      "cols=r.mach_id:d,r.neighbor:r\n"
      "node 3 merge in=1,2 set sorted gen cols=mach_id:d,value:r\n"
      "node 4 report in=3 cols=mach_id:d\n");
  EXPECT_EQ(Codes(VerifyIr(dead)), std::vector<std::string>{"TRAC-V006"});
  // An empty table (rows=0) is data, not a plan bug: no finding.
  const PlanIr empty = ParseOrDie(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=0 cols=a.mach_id:d,a.value:r\n"
      "node 1 scan table=routing snap=5 rows=64 "
      "cols=r.mach_id:d,r.neighbor:r\n"
      "node 2 merge in=0,1 set sorted gen cols=mach_id:d,value:r\n"
      "node 3 report in=2 cols=mach_id:d\n");
  EXPECT_TRUE(VerifyIr(empty).ok()) << VerifyIr(empty).Format(empty);
}

TEST(AbsintVerifyTest, V007FiresOnReappliedFingerprintSameProvenance) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 pred=00000000deadbeef cols=a.mach_id:d,a.value:r\n"
      "node 2 filter in=1 pred=00000000deadbeef cols=a.mach_id:d,a.value:r\n"
      "node 3 report in=2 cols=a.mach_id:d\n");
  const VerifyReport report = VerifyIr(ir);
  ASSERT_EQ(Codes(report), std::vector<std::string>{"TRAC-V007"});
  EXPECT_EQ(report.diagnostics[0].node, 2u) << "anchors at the reapplication";
  // Distinct fingerprints stay clean.
  const PlanIr ok = ParseOrDie(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 pred=00000000deadbeef cols=a.mach_id:d,a.value:r\n"
      "node 2 filter in=1 pred=00000000cafef00d cols=a.mach_id:d,a.value:r\n"
      "node 3 report in=2 cols=a.mach_id:d\n");
  EXPECT_TRUE(VerifyIr(ok).ok()) << VerifyIr(ok).Format(ok);
}

TEST(AbsintVerifyTest, StructuralOnlyModeSkipsSemanticRules) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 pred=00000000deadbeef cols=a.mach_id:d,a.value:r\n"
      "node 2 filter in=1 pred=00000000deadbeef cols=a.mach_id:d,a.value:r\n"
      "node 3 report in=2 cols=a.mach_id:d\n");
  VerifyOptions structural;
  structural.absint = false;
  EXPECT_TRUE(VerifyIr(ir, structural).ok());
  EXPECT_FALSE(VerifyIr(ir).ok());
}

}  // namespace
}  // namespace trac

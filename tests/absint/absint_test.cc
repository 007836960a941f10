// Unit tests for the abstract interpreter (src/absint): the lattice
// domains, the worklist fixpoint engine's transfer functions, the
// semantic verifier rules TRAC-V005..V008 it feeds.

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
using absint::StalenessInterval;

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
  EXPECT_TRUE(b.SubsetOf(a));
  EXPECT_FALSE(a.SubsetOf(b));
  EXPECT_TRUE(SourceSet{}.SubsetOf(b));
}

TEST(StalenessIntervalTest, JoinIsHullAndBottomIsIdentity) {
  StalenessInterval x = StalenessInterval::Of(100, 200);
  x.JoinWith(StalenessInterval{});  // bottom: no effect
  EXPECT_EQ(x.ToString(), "[100..200]");
  x.JoinWith(StalenessInterval::Of(50, 150));
  EXPECT_EQ(x.lo, 50);
  EXPECT_EQ(x.hi, 200);
  EXPECT_EQ(x.Width(), 150);
  EXPECT_EQ(StalenessInterval{}.Width(), 0);
  EXPECT_EQ(StalenessInterval{}.ToString(), "bot");
}

TEST(CardIntervalTest, ArithmeticSaturatesAndWidenDropsUpperBound) {
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
  CardInterval w = CardInterval::UpTo(7);
  w.Widen();
  EXPECT_TRUE(w.unbounded);
  EXPECT_EQ(w.ToString(), "[0..inf]");
  EXPECT_TRUE(CardInterval::Exact(0).DefinitelyEmpty());
  EXPECT_FALSE(CardInterval::Unknown().DefinitelyEmpty());
}

// ---------------------------------------------------------------------
// Transfer functions and the fixpoint engine.

TEST(AbsintEngineTest, ScanFactsComeFromAnnotations) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=128 age=100..227 "
      "cols=h.source_id:d,h.recency_timestamp:r\n");
  const AbsintResult r = AnalyzeIr(ir);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.facts.size(), 1u);
  EXPECT_EQ(r.facts[0].card.ToString(), "[0..128]");
  EXPECT_EQ(r.facts[0].staleness.ToString(), "[100..227]");
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
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(r.facts[0].card.unbounded);
  EXPECT_TRUE(r.facts[0].staleness.bottom);
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
  ASSERT_TRUE(r.converged);
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
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.facts[2].dead);
  EXPECT_EQ(r.facts[2].card.ToString(), "[1..1]");
}

TEST(AbsintEngineTest, MergeSumsCardinalityAndHullsStaleness) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=100 age=10..20 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 1 scan table=heartbeat snap=5 rows=28 age=15..40 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 2 merge in=0,1 sorted gen "
      "cols=h.source_id:d,h.recency_timestamp:r\n");
  const AbsintResult r = AnalyzeIr(ir);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.facts[2].card.ToString(), "[0..128]");
  EXPECT_EQ(r.facts[2].staleness.ToString(), "[10..40]");
  EXPECT_EQ(r.facts[2].sources.ToString(), "{heartbeat}");
}

TEST(AbsintEngineTest, DumpIsDeterministic) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=128 age=100..227 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 1 report in=0 bound=127 cols=h.source_id:d\n");
  const AbsintResult a = AnalyzeIr(ir);
  const AbsintResult b = AnalyzeIr(ir);
  ASSERT_TRUE(a.converged);
  EXPECT_EQ(a.Dump(ir), b.Dump(ir));
  EXPECT_NE(a.Dump(ir).find("fixpoint in"), std::string::npos);
}

// ---------------------------------------------------------------------
// Verifier rules V005..V008.

TEST(AbsintVerifyTest, V005FiresWhenStalenessHullExceedsNoticeBound) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=128 age=1000000..128000000 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 1 report in=0 bound=1000000 cols=h.source_id:d\n");
  EXPECT_EQ(Codes(VerifyIr(ir)), std::vector<std::string>{"TRAC-V005"});
  // The exact hull width is fine: the lowering derives both sides from
  // the same registry ages.
  const PlanIr ok = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=128 age=1000000..128000000 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 1 report in=0 bound=127000000 cols=h.source_id:d\n");
  EXPECT_TRUE(VerifyIr(ok).ok()) << VerifyIr(ok).Format(ok);
}

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

TEST(AbsintVerifyTest, V008AnchorsAtTheWideningJoin) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=128 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 1 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 2 join in=0,1 key=d-d "
      "cols=h.source_id:d,h.recency_timestamp:r,a.mach_id:d,a.value:r\n"
      "node 3 merge in=2 set sorted gen "
      "cols=source_id:d,recency_timestamp:r\n"
      "node 4 tempwrite in=3 table=sys_temp_a session=7 src=heartbeat "
      "cols=source_id:d,recency_timestamp:r\n"
      "node 5 report in=4 cols=source_id:d\n");
  const VerifyReport report = VerifyIr(ir);
  ASSERT_EQ(Codes(report), std::vector<std::string>{"TRAC-V008"});
  EXPECT_EQ(report.diagnostics[0].node, 2u);
  EXPECT_EQ(report.diagnostics[0].kind, IrNodeKind::kJoin);
  // Declaring both sources makes the same plan clean.
  const PlanIr ok = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=128 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 1 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 2 join in=0,1 key=d-d "
      "cols=h.source_id:d,h.recency_timestamp:r,a.mach_id:d,a.value:r\n"
      "node 3 merge in=2 set sorted gen "
      "cols=source_id:d,recency_timestamp:r\n"
      "node 4 tempwrite in=3 table=sys_temp_a session=7 src=activity,heartbeat "
      "cols=source_id:d,recency_timestamp:r\n"
      "node 5 report in=4 cols=source_id:d\n");
  EXPECT_TRUE(VerifyIr(ok).ok()) << VerifyIr(ok).Format(ok);
}

TEST(AbsintVerifyTest, StructuralOnlyModeSkipsSemanticRules) {
  const PlanIr ir = ParseOrDie(
      "ir t\n"
      "node 0 scan table=heartbeat snap=5 rows=128 age=0..128000000 "
      "cols=h.source_id:d,h.recency_timestamp:r\n"
      "node 1 report in=0 bound=0 cols=h.source_id:d\n");
  VerifyOptions structural;
  structural.absint = false;
  EXPECT_TRUE(VerifyIr(ir, structural).ok());
  EXPECT_FALSE(VerifyIr(ir).ok());
}

}  // namespace
}  // namespace trac

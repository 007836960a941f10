// Unit tests for the plan-IR equivalence checker (verify/equiv.h): the
// proof engine behind the optimizer's translation validation. Each test
// hand-writes a (before, after) witness in the Dump() text format and
// checks which of the TRAC-V009..V011 obligations it discharges.

#include "verify/equiv.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/plan_ir.h"
#include "verify/verifier.h"

namespace trac {
namespace {

PlanIr Parse(const std::string& text) {
  auto ir = ParsePlanIr(text);
  EXPECT_TRUE(ir.ok()) << ir.status();
  return std::move(*ir);
}

/// Collects the diagnostic code ids of a report, in emission order.
std::vector<std::string> Codes(const VerifyReport& report) {
  std::vector<std::string> out;
  for (const VerifyDiagnostic& d : report.diagnostics) {
    out.push_back(std::string(VerifyCodeId(d.code)));
  }
  return out;
}

const char kLinear[] =
    "ir linear\n"
    "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
    "node 1 filter in=0 pred=00000000cafe0001 cols=a.mach_id:d,a.value:r\n"
    "node 2 report in=1 cols=a.mach_id:d,a.value:r\n";

TEST(EquivTest, IdenticalPlansAreEquivalent) {
  const PlanIr ir = Parse(kLinear);
  EXPECT_TRUE(CheckIrEquivalence(ir, ir).ok());
}

TEST(EquivTest, LabelDifferenceIsIrrelevant) {
  PlanIr before = Parse(kLinear);
  PlanIr after = Parse(kLinear);
  after.label = "renamed";
  EXPECT_TRUE(CheckIrEquivalence(before, after).ok());
}

TEST(EquivTest, FilterPlacementIsIrrelevant) {
  // Same predicate residue, applied below the join instead of above it:
  // V009 judges the fingerprint SET, not the placement.
  const PlanIr before = Parse(
      "ir above\n"
      "node 0 scan table=activity snap=5 cols=a.mach_id:d\n"
      "node 1 scan table=routing snap=5 cols=r.mach_id:d\n"
      "node 2 join in=0,1 key=d-d cols=a.mach_id:d\n"
      "node 3 filter in=2 pred=00000000cafe0001 cols=a.mach_id:d\n"
      "node 4 report in=3 cols=a.mach_id:d\n");
  const PlanIr after = Parse(
      "ir below\n"
      "node 0 scan table=activity snap=5 cols=a.mach_id:d\n"
      "node 1 filter in=0 pred=00000000cafe0001 cols=a.mach_id:d\n"
      "node 2 scan table=routing snap=5 cols=r.mach_id:d\n"
      "node 3 join in=1,2 key=d-d cols=a.mach_id:d\n"
      "node 4 report in=3 cols=a.mach_id:d\n");
  EXPECT_TRUE(CheckIrEquivalence(before, after).ok());
  EXPECT_TRUE(CheckIrEquivalence(after, before).ok());
}

TEST(EquivTest, DuplicateConjunctCollapsesClean) {
  // p AND p == p: dropping the second application of an identical
  // fingerprint preserves the residue set.
  const PlanIr before = Parse(
      "ir twice\n"
      "node 0 scan table=activity snap=5 cols=a.value:r\n"
      "node 1 filter in=0 pred=00000000deadbeef cols=a.value:r\n"
      "node 2 filter in=1 pred=00000000deadbeef cols=a.value:r\n"
      "node 3 report in=2 cols=a.value:r\n");
  const PlanIr after = Parse(
      "ir once\n"
      "node 0 scan table=activity snap=5 cols=a.value:r\n"
      "node 1 filter in=0 pred=00000000deadbeef cols=a.value:r\n"
      "node 2 report in=1 cols=a.value:r\n");
  EXPECT_TRUE(CheckIrEquivalence(before, after).ok());
}

TEST(EquivTest, DroppedPredicateIsV009) {
  const PlanIr before = Parse(kLinear);
  const PlanIr after = Parse(
      "ir dropped\n"
      "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 report in=0 cols=a.mach_id:d,a.value:r\n");
  const VerifyReport report = CheckIrEquivalence(before, after);
  EXPECT_EQ(Codes(report), std::vector<std::string>{"TRAC-V009"});
}

TEST(EquivTest, InventedPredicateIsV009) {
  // The reverse direction: the rewrite applies a fingerprint the
  // original never did (it would silently drop rows).
  const PlanIr before = Parse(
      "ir plain\n"
      "node 0 scan table=activity snap=5 cols=a.value:r\n"
      "node 1 report in=0 cols=a.value:r\n");
  const PlanIr after = Parse(
      "ir extra\n"
      "node 0 scan table=activity snap=5 cols=a.value:r\n"
      "node 1 filter in=0 pred=00000000aaaa0001 cols=a.value:r\n"
      "node 2 report in=1 cols=a.value:r\n");
  const VerifyReport report = CheckIrEquivalence(before, after);
  EXPECT_EQ(Codes(report), std::vector<std::string>{"TRAC-V009"});
}

TEST(EquivTest, ProvenanceClassChangeIsV010) {
  PlanIr before = Parse(kLinear);
  const PlanIr after = Parse(
      "ir demoted\n"
      "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 pred=00000000cafe0001 cols=a.mach_id:d,a.value:r\n"
      "node 2 report in=1 cols=a.mach_id:r,a.value:r\n");
  const VerifyReport report = CheckIrEquivalence(before, after);
  EXPECT_EQ(Codes(report), std::vector<std::string>{"TRAC-V010"});
}

TEST(EquivTest, MissingOutputColumnIsV010) {
  const PlanIr before = Parse(kLinear);
  const PlanIr after = Parse(
      "ir narrower\n"
      "node 0 scan table=activity snap=5 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 pred=00000000cafe0001 cols=a.mach_id:d,a.value:r\n"
      "node 2 report in=1 cols=a.value:r\n");
  const VerifyReport report = CheckIrEquivalence(before, after);
  EXPECT_EQ(Codes(report), std::vector<std::string>{"TRAC-V010"});
}

TEST(EquivTest, SnapshotEpochChangeIsV011) {
  const PlanIr before = Parse(kLinear);
  const PlanIr after = Parse(
      "ir moved\n"
      "node 0 scan table=activity snap=6 rows=64 cols=a.mach_id:d,a.value:r\n"
      "node 1 filter in=0 pred=00000000cafe0001 cols=a.mach_id:d,a.value:r\n"
      "node 2 report in=1 cols=a.mach_id:d,a.value:r\n");
  const VerifyReport report = CheckIrEquivalence(before, after);
  EXPECT_EQ(Codes(report), std::vector<std::string>{"TRAC-V011"});
}

TEST(EquivTest, MergeDeterminismChangeIsV011) {
  const char* kSharded =
      "ir sharded\n"
      "node 0 scan table=heartbeat snap=5 shard=0/2 cols=h.source_id:d\n"
      "node 1 scan table=heartbeat snap=5 shard=1/2 cols=h.source_id:d\n"
      "node 2 merge in=0,1 set sorted cols=source_id:d\n"
      "node 3 report in=2 cols=source_id:d\n";
  const PlanIr before = Parse(kSharded);
  const PlanIr after = Parse(
      "ir unsorted\n"
      "node 0 scan table=heartbeat snap=5 shard=0/2 cols=h.source_id:d\n"
      "node 1 scan table=heartbeat snap=5 shard=1/2 cols=h.source_id:d\n"
      "node 2 merge in=0,1 set cols=source_id:d\n"
      "node 3 report in=2 cols=source_id:d\n");
  const VerifyReport report = CheckIrEquivalence(before, after);
  EXPECT_EQ(Codes(report), std::vector<std::string>{"TRAC-V011"});
}

TEST(EquivTest, MalformedWitnessIsV000) {
  const PlanIr before = Parse(kLinear);
  PlanIr cyclic = Parse(kLinear);
  cyclic.nodes[0].inputs.push_back(2);  // Forward edge: not a DAG order.
  EXPECT_EQ(Codes(CheckIrEquivalence(before, cyclic)),
            std::vector<std::string>{"TRAC-V000"});
  EXPECT_EQ(Codes(CheckIrEquivalence(cyclic, before)),
            std::vector<std::string>{"TRAC-V000"});
}

TEST(EquivTest, NormalizeIsIdempotent) {
  const PlanIr ir = Parse(kLinear);
  const PlanIr once = NormalizeIr(ir);
  const PlanIr twice = NormalizeIr(once);
  EXPECT_EQ(once.Dump(), twice.Dump());
}

TEST(EquivTest, NormalizeCanonicalizesIndependentNodeOrder) {
  // The two scans are independent; normalization must pick one order
  // regardless of how the input interleaves them.
  const PlanIr a = Parse(
      "ir a\n"
      "node 0 scan table=activity snap=5 cols=a.mach_id:d\n"
      "node 1 scan table=routing snap=5 cols=r.mach_id:d\n"
      "node 2 join in=0,1 key=d-d cols=a.mach_id:d\n"
      "node 3 report in=2 cols=a.mach_id:d\n");
  const PlanIr b = Parse(
      "ir a\n"
      "node 0 scan table=routing snap=5 cols=r.mach_id:d\n"
      "node 1 scan table=activity snap=5 cols=a.mach_id:d\n"
      "node 2 join in=1,0 key=d-d cols=a.mach_id:d\n"
      "node 3 report in=2 cols=a.mach_id:d\n");
  EXPECT_EQ(NormalizeIr(a).Dump(), NormalizeIr(b).Dump());
}

TEST(EquivTest, NormalizeTracksOriginalIds) {
  const PlanIr ir = Parse(kLinear);
  std::vector<size_t> original;
  const PlanIr norm = NormalizeIr(ir, &original);
  ASSERT_EQ(original.size(), norm.nodes.size());
  for (size_t k = 0; k < norm.nodes.size(); ++k) {
    EXPECT_EQ(ir.nodes[original[k]].kind, norm.nodes[k].kind);
  }
}

}  // namespace
}  // namespace trac

#include "ir/plan_ir.h"

#include <string>

#include <gtest/gtest.h>

namespace trac {
namespace {

/// The canonical Dump() text of a small but fully featured plan: every
/// node kind, shard fan-out, a relevance-marked join key, aggregate
/// functions, session ownership, and the generated flag.
const char kFullDump[] =
    "ir full_example\n"
    "node 0 scan table=activity snap=12 cols=a.mach_id:d,a.value:r\n"
    "node 1 filter in=0 cols=a.mach_id:d,a.value:r\n"
    "node 2 scan table=heartbeat snap=12 shard=0/2 gen "
    "cols=h.source_id:d,h.recency_timestamp:r\n"
    "node 3 scan table=heartbeat snap=12 shard=1/2 gen "
    "cols=h.source_id:d,h.recency_timestamp:r\n"
    "node 4 merge in=2,3 set sorted gen "
    "cols=source_id:d,recency_timestamp:r\n"
    "node 5 join in=1,4 key=d-d*,r-r cols=a.mach_id:d,source_id:d\n"
    "node 6 agg in=5 fns=count:r,max:r cols=n:r\n"
    "node 7 tempwrite in=4 table=sys_temp_a1 session=3 gen "
    "cols=source_id:d\n"
    "node 8 scan table=sys_temp_a1 snap=12 cols=source_id:d\n"
    "node 9 report in=6,7,8 gen\n";

TEST(PlanIrTest, DumpParseRoundTripIsByteExact) {
  auto parsed = ParsePlanIr(kFullDump);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->label, "full_example");
  ASSERT_EQ(parsed->nodes.size(), 10u);
  // Byte-exact round trip: Dump(Parse(text)) == text.
  EXPECT_EQ(parsed->Dump(), kFullDump);
  // And a second round trip is a fixed point.
  auto again = ParsePlanIr(parsed->Dump());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->Dump(), kFullDump);
}

TEST(PlanIrTest, ParsedFieldsMatch) {
  auto parsed = ParsePlanIr(kFullDump);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const PlanIr& ir = *parsed;

  EXPECT_EQ(ir.nodes[0].kind, IrNodeKind::kScan);
  EXPECT_EQ(ir.nodes[0].table, "activity");
  EXPECT_EQ(ir.nodes[0].snapshot, 12u);
  ASSERT_EQ(ir.nodes[0].columns.size(), 2u);
  EXPECT_EQ(ir.nodes[0].columns[0].name, "a.mach_id");
  EXPECT_EQ(ir.nodes[0].columns[0].provenance, ColumnProvenance::kDataSource);
  EXPECT_EQ(ir.nodes[0].columns[1].provenance, ColumnProvenance::kRegular);

  EXPECT_EQ(ir.nodes[2].shard, 0u);
  EXPECT_EQ(ir.nodes[2].num_shards, 2u);
  EXPECT_TRUE(ir.nodes[2].generated);

  EXPECT_EQ(ir.nodes[4].kind, IrNodeKind::kMerge);
  EXPECT_TRUE(ir.nodes[4].set_merge);
  EXPECT_TRUE(ir.nodes[4].sorted);
  EXPECT_EQ(ir.nodes[4].inputs, (std::vector<size_t>{2, 3}));

  ASSERT_EQ(ir.nodes[5].keys.size(), 2u);
  EXPECT_TRUE(ir.nodes[5].keys[0].relevance);
  EXPECT_EQ(ir.nodes[5].keys[0].probe, ColumnProvenance::kDataSource);
  EXPECT_FALSE(ir.nodes[5].keys[1].relevance);
  EXPECT_EQ(ir.nodes[5].keys[1].build, ColumnProvenance::kRegular);

  ASSERT_EQ(ir.nodes[6].aggs.size(), 2u);
  EXPECT_EQ(ir.nodes[6].aggs[0].fn, "count");

  EXPECT_EQ(ir.nodes[7].session, 3u);
  EXPECT_EQ(ir.nodes[7].table, "sys_temp_a1");
}

TEST(PlanIrTest, CommentsAndBlankLinesAreSkipped) {
  auto parsed = ParsePlanIr(
      "# a seeded-bad corpus file may carry commentary\n"
      "\n"
      "ir commented\n"
      "  # indented comment\n"
      "node 0 scan table=t snap=1 cols=x:r\n"
      "\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->nodes.size(), 1u);
}

TEST(PlanIrTest, ParseErrors) {
  // Missing header.
  EXPECT_FALSE(ParsePlanIr("node 0 scan snap=1\n").ok());
  // Non-dense node ids.
  EXPECT_FALSE(ParsePlanIr("ir x\nnode 1 scan snap=1\n").ok());
  // Unknown node kind.
  EXPECT_FALSE(ParsePlanIr("ir x\nnode 0 shuffle\n").ok());
  // Unknown attribute.
  EXPECT_FALSE(ParsePlanIr("ir x\nnode 0 scan wat=1\n").ok());
  // Bad provenance class.
  EXPECT_FALSE(ParsePlanIr("ir x\nnode 0 scan cols=a:z\n").ok());
  // Malformed join key.
  EXPECT_FALSE(ParsePlanIr("ir x\nnode 0 join key=d\n").ok());
  // Malformed shard spec.
  EXPECT_FALSE(ParsePlanIr("ir x\nnode 0 scan shard=3\n").ok());
}

// Every malformed attribute value reports uniformly as
// "plan IR line N: <attr>: <what>" — the line anchor is what lets a
// user fix a hand-edited witness file without bisecting it.
TEST(PlanIrTest, ParseErrorsAreLineAnchored) {
  struct Case {
    const char* name;
    const char* text;
    const char* want;  ///< Substring of the error message.
  };
  const Case kCases[] = {
      {"rows not a number", "ir x\nnode 0 scan rows=abc\n",
       "line 2: rows: bad number 'abc'"},
      {"rows empty", "ir x\nnode 0 scan rows=\n",
       "line 2: rows: empty number"},
      {"pred not hex", "ir x\nnode 0 filter in=0 pred=xyz\n",
       "line 2: pred: bad hex number 'xyz'"},
      {"pred too wide", "ir x\nnode 0 filter pred=00000000000000000\n",
       "line 2: pred: bad hex number"},
      {"src empty element", "ir x\nnode 0 merge src=\n",
       "line 2: want src=<table>,..."},
      {"src trailing comma", "ir x\nnode 0 merge src=a,\n",
       "line 2: want src=<table>,..."},
      {"snap not a number", "ir x\nnode 0 scan snap=5x\n",
       "line 2: snap: bad number '5x'"},
      {"bound not a number", "ir x\nnode 0 report in=0 bound=1s\n",
       "line 2: bound: bad number '1s'"},
      {"shard not a number", "ir x\nnode 0 scan shard=a/2\n",
       "line 2: shard: bad number 'a'"},
      {"session not a number", "ir x\nnode 0 tempwrite session=one\n",
       "line 2: session: bad number 'one'"},
      {"age bad piece", "ir x\nnode 0 scan age=1..b\n",
       "line 2: age: bad number 'b'"},
      {"in bad piece", "ir x\nnode 0 join in=0,x\n",
       "line 2: in: bad number 'x'"},
      {"cols bad class", "ir x\nnode 0 scan cols=a:z\n",
       "line 2: cols: bad provenance class 'z'"},
      {"key bad class", "ir x\nnode 0 join key=d-q\n",
       "line 2: key: bad provenance class 'q'"},
      {"fns bad class", "ir x\nnode 0 agg fns=count:x\n",
       "line 2: fns: bad provenance class 'x'"},
      {"node id not a number", "ir x\nnode zero scan\n",
       "line 2: node id: bad number 'zero'"},
      {"retired deps attribute", "ir x\nnode 0 scan deps=heartbeat\n",
       "line 2: unknown attribute 'deps'"},
      {"anchor survives comments",
       "# leading commentary\n\nir x\n# more\nnode 0 scan rows=?\n",
       "line 5: rows: bad number '?'"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    auto parsed = ParsePlanIr(c.text);
    ASSERT_FALSE(parsed.ok());
    const std::string msg(parsed.status().message());
    EXPECT_NE(msg.find(c.want), std::string::npos)
        << "got: " << msg << "\nwant substring: " << c.want;
    EXPECT_NE(msg.find("plan IR line "), std::string::npos) << msg;
  }
}

TEST(PlanIrTest, TempTableNameClassifier) {
  EXPECT_TRUE(IsTempTableName("sys_temp_a1"));
  EXPECT_TRUE(IsTempTableName("sys_temp_e42"));
  EXPECT_FALSE(IsTempTableName("sys_temp_"));  // Prefix alone: no id.
  EXPECT_FALSE(IsTempTableName("activity"));
  EXPECT_FALSE(IsTempTableName("heartbeat"));
}

TEST(PlanIrTest, ActualAnnotationsRoundTrip) {
  // A profiled session IR: runtime actuals ride after the static
  // attributes and before cols=, and survive Dump/Parse byte-exactly.
  const char kProfiled[] =
      "ir profiled\n"
      "node 0 scan table=activity snap=7 rows=131 actual_rows=3 "
      "actual_ns=2000000 cols=a.mach_id:d\n"
      "node 1 filter in=0 actual_rows=2 cols=a.mach_id:d\n"
      "node 2 report in=1 actual_rows=2 actual_ns=1000000 cols=a.mach_id:d\n";
  auto parsed = ParsePlanIr(kProfiled);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), kProfiled);

  ASSERT_TRUE(parsed->nodes[0].has_actual_rows);
  EXPECT_EQ(parsed->nodes[0].actual_rows, 3u);
  ASSERT_TRUE(parsed->nodes[0].has_actual_ns);
  EXPECT_EQ(parsed->nodes[0].actual_ns, 2000000);
  // actual_rows without actual_ns is legal (row-only annotations).
  ASSERT_TRUE(parsed->nodes[1].has_actual_rows);
  EXPECT_FALSE(parsed->nodes[1].has_actual_ns);
  // Unannotated estimate state is untouched by the runtime fields.
  EXPECT_TRUE(parsed->nodes[0].has_rows);
  EXPECT_EQ(parsed->nodes[0].rows, 131u);
  EXPECT_FALSE(parsed->nodes[1].has_rows);
}

TEST(PlanIrTest, ActualAnnotationParseErrors) {
  EXPECT_FALSE(
      ParsePlanIr("ir x\nnode 0 scan snap=1 actual_rows=abc\n").ok());
  EXPECT_FALSE(ParsePlanIr("ir x\nnode 0 scan snap=1 actual_ns=\n").ok());
}

TEST(PlanIrTest, AddAssignsDenseIds) {
  PlanIr ir;
  ir.label = "built";
  ir.Add(IrNodeKind::kScan);
  ir.Add(IrNodeKind::kFilter);
  ir.Add(IrNodeKind::kReport);
  ASSERT_EQ(ir.nodes.size(), 3u);
  EXPECT_EQ(ir.nodes[0].id, 0u);
  EXPECT_EQ(ir.nodes[1].id, 1u);
  EXPECT_EQ(ir.nodes[2].id, 2u);
}

}  // namespace
}  // namespace trac

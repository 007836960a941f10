// Unit coverage of the hostile-grid scenario layer: script round-trip
// and validation, the fault-injector primitives, small-grid runs
// cross-checked against brute-force ground truth, and — crucially — the
// mutation tests proving the soundness oracles actually detect broken
// reports (an oracle that never fires is indistinguishable from no
// oracle).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../monitor/oracles.h"
#include "../test_util.h"
#include "absint/absint.h"
#include "core/brute_force.h"
#include "core/recency_reporter.h"
#include "expr/binder.h"
#include "ir/plan_ir.h"
#include "monitor/fault_injector.h"
#include "monitor/scenario.h"

namespace trac {
namespace {

using oracle::OracleOutcome;

RecencyReport MustReport(ScenarioRunner* runner, const std::string& sql,
                         RecencyMethod method = RecencyMethod::kFocused) {
  RecencyReportOptions options;
  options.method = method;
  options.create_temp_tables = false;
  options.profile = true;  // Feeds the profile-soundness oracle.
  RecencyReporter reporter(runner->db(), nullptr);
  auto report = reporter.Run(sql, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(*report);
}

TEST(ScenarioScriptTest, GeneratedScriptsValidateAndRoundTrip) {
  ScenarioGenOptions gen;
  gen.min_sources = 4;
  gen.max_sources = 600;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ScenarioScript script = ScenarioScript::Generate(seed, gen);
    TRAC_ASSERT_OK(script.Validate());
    EXPECT_GE(script.num_sources, 4u);
    EXPECT_LE(script.num_sources, 600u);
    EXPECT_GE(script.steps(), 12u);
    const std::string text = script.ToText();
    auto parsed = ScenarioScript::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    // Canonical form is a fixpoint: replay files are byte-stable.
    EXPECT_EQ(parsed->ToText(), text) << "seed " << seed;
  }
}

TEST(ScenarioScriptTest, GenerationIsDeterministic) {
  ScenarioGenOptions gen;
  const ScenarioScript a = ScenarioScript::Generate(77, gen);
  const ScenarioScript b = ScenarioScript::Generate(77, gen);
  EXPECT_EQ(a.ToText(), b.ToText());
  const ScenarioScript c = ScenarioScript::Generate(78, gen);
  EXPECT_NE(a.ToText(), c.ToText());
}

TEST(ScenarioScriptTest, ParseAcceptsCommentsAndUnits) {
  const char* text =
      "# hostile-grid scenario\n"
      "scenario v1\n"
      "seed 9\n"
      "sources 20\n"
      "racks 4   # striped\n"
      "duration 2m\n"
      "step 5s\n"
      "poll 2500ms\n"
      "ship-delay 250us\n"
      "heartbeat 30s\n"
      "event-rate 0.500000\n"
      "focus 3\n"
      "fault skew offset=-30s drift-ppm=20000 sources=1,5\n"
      "end\n";
  auto script = ScenarioScript::Parse(text);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->duration_micros, 2 * Timestamp::kMicrosPerMinute);
  EXPECT_EQ(script->poll_micros, 2500 * 1000);
  EXPECT_EQ(script->ship_delay_micros, 250);
  ASSERT_EQ(script->faults.size(), 1u);
  EXPECT_EQ(script->faults[0].kind, FaultSpec::Kind::kClockSkew);
  EXPECT_EQ(script->faults[0].offset_micros,
            -30 * Timestamp::kMicrosPerSecond);
  EXPECT_EQ(script->faults[0].drift_ppm, 20000);
  EXPECT_EQ(script->faults[0].sources, (std::vector<size_t>{1, 5}));
  // Round-trip normalizes the units (2500ms stays ms; 2m becomes 120s).
  auto reparsed = ScenarioScript::Parse(script->ToText());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToText(), script->ToText());
}

TEST(ScenarioScriptTest, ParseRejectsMalformedScripts) {
  EXPECT_FALSE(ScenarioScript::Parse("sources 5\nend\n").ok());  // no header
  EXPECT_FALSE(ScenarioScript::Parse("scenario v1\nsources 5\n").ok());
  EXPECT_FALSE(
      ScenarioScript::Parse("scenario v1\nbogus 1\nend\n").ok());
  EXPECT_FALSE(
      ScenarioScript::Parse("scenario v1\nsources 0\nend\n").ok());
  // Structural validation: rack index out of range.
  EXPECT_FALSE(ScenarioScript::Parse(
                   "scenario v1\nsources 10\nracks 2\n"
                   "fault rack-outage start=0s duration=10s racks=7\nend\n")
                   .ok());
  // Flap duty outside (0, 1).
  EXPECT_FALSE(ScenarioScript::Parse(
                   "scenario v1\nsources 10\n"
                   "fault flap start=0s duration=10s period=4s "
                   "duty=1.500000 sources=1\nend\n")
                   .ok());
  // Drift that would run a source clock backwards.
  EXPECT_FALSE(ScenarioScript::Parse(
                   "scenario v1\nsources 10\n"
                   "fault skew offset=0s drift-ppm=-1000000 sources=1\nend\n")
                   .ok());
}

TEST(ScenarioScriptTest, SourceIdsAreFixedWidthAndRacksStripe) {
  ScenarioScript script;
  script.num_sources = 20;
  script.num_racks = 4;
  EXPECT_EQ(script.SourceId(0), "src0000");
  EXPECT_EQ(script.SourceId(19), "src0019");
  EXPECT_EQ(script.RackOf(0), 0u);
  EXPECT_EQ(script.RackOf(5), 1u);
  EXPECT_EQ(script.RackOf(7), 3u);
}

TEST(FaultInjectorTest, SkewMathAndDriftBound) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(GridSimulator grid, GridSimulator::Create(&db));
  grid.clock().AdvanceTo(Timestamp::FromSeconds(1000));
  TRAC_ASSERT_OK(grid.AddSource("s1").status());
  FaultInjector injector(&grid);

  const Timestamp anchor = Timestamp::FromSeconds(1000);
  TRAC_ASSERT_OK(injector.SetClockSkew("s1", -5 * Timestamp::kMicrosPerSecond,
                                       100000, anchor));
  // At anchor: only the offset. 10s later: offset + 10s * 10% drift.
  EXPECT_EQ(injector.SourceTime("s1", anchor),
            anchor - 5 * Timestamp::kMicrosPerSecond);
  EXPECT_EQ(injector.SourceTime("s1", anchor + 10 * Timestamp::kMicrosPerSecond),
            anchor + 6 * Timestamp::kMicrosPerSecond);
  // Unknown sources are identity / NotFound.
  EXPECT_EQ(injector.SourceTime("nope", anchor), anchor);
  EXPECT_FALSE(injector.SetClockSkew("nope", 0, 0, anchor).ok());
  // A drift at or below -100% would run time backwards.
  EXPECT_FALSE(injector.SetClockSkew("s1", 0, -1000000, anchor).ok());
  TRAC_ASSERT_OK(injector.SetClockSkew("s1", 0, -999999, anchor));
}

TEST(FaultInjectorTest, TruncateClampsToUnshippedAndMarksLossy) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(GridSimulator grid, GridSimulator::Create(&db));
  grid.clock().AdvanceTo(Timestamp::FromSeconds(1000));
  SnifferOptions options;
  options.poll_interval_micros = Timestamp::kMicrosPerSecond;
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * source,
                            grid.AddSource("s1", options));
  FaultInjector injector(&grid);

  for (int i = 0; i < 5; ++i) {
    source->EmitHeartbeat(Timestamp::FromSeconds(1001 + i));
  }
  // Ship the first three (poll at t=1003 with no ship delay ships
  // everything stamped <= 1003).
  TRAC_ASSERT_OK(grid.RunUntil(Timestamp::FromSeconds(1003)));
  ASSERT_EQ(grid.sniffer("s1")->records_shipped(), 3u);

  // Asking to drop 10 can only lose the 2 unshipped records.
  TRAC_ASSERT_OK_AND_ASSIGN(size_t lost, injector.TruncateLog("s1", 10));
  EXPECT_EQ(lost, 2u);
  EXPECT_TRUE(injector.IsLossy("s1"));
  EXPECT_EQ(source->log().size(), 3u);

  // Nothing left to lose: not counted, lossy stays.
  TRAC_ASSERT_OK_AND_ASSIGN(lost, injector.TruncateLog("s1", 1));
  EXPECT_EQ(lost, 0u);
  EXPECT_TRUE(injector.IsLossy("s1"));
  EXPECT_FALSE(injector.IsLossy("other"));
}

TEST(FaultInjectorTest, FrontierTracksEarliestUnshippedRecord) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(GridSimulator grid, GridSimulator::Create(&db));
  grid.clock().AdvanceTo(Timestamp::FromSeconds(1000));
  TRAC_ASSERT_OK_AND_ASSIGN(DataSource * source, grid.AddSource("s1"));
  FaultInjector injector(&grid);

  const Timestamp now = Timestamp::FromSeconds(1050);
  // Empty backlog: the frontier is the source-clock now.
  TRAC_ASSERT_OK_AND_ASSIGN(Timestamp frontier,
                            injector.TrueFrontier("s1", now));
  EXPECT_EQ(frontier, now);

  source->EmitHeartbeat(Timestamp::FromSeconds(1010));
  source->EmitHeartbeat(Timestamp::FromSeconds(1020));
  TRAC_ASSERT_OK_AND_ASSIGN(frontier, injector.TrueFrontier("s1", now));
  EXPECT_EQ(frontier, Timestamp::FromSeconds(1010));

  // With skew, the empty-backlog frontier moves to the skewed clock.
  // Ship the backlog first: records stamped 1010/1020 are only
  // ship-eligible once the simulated clock passes them.
  TRAC_ASSERT_OK(injector.SetClockSkew(
      "s1", -7 * Timestamp::kMicrosPerSecond, 0, Timestamp::FromSeconds(1000)));
  grid.clock().AdvanceTo(Timestamp::FromSeconds(1030));
  TRAC_ASSERT_OK(grid.PollAll());
  TRAC_ASSERT_OK_AND_ASSIGN(frontier, injector.TrueFrontier("s1", now));
  EXPECT_EQ(frontier, now - 7 * Timestamp::kMicrosPerSecond);
}

TEST(FaultInjectorTest, ShipDelayComposesAndClamps) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(GridSimulator grid, GridSimulator::Create(&db));
  TRAC_ASSERT_OK(grid.AddSource("s1").status());
  FaultInjector injector(&grid);

  TRAC_ASSERT_OK(injector.AddShipDelay("s1", 5000));
  TRAC_ASSERT_OK(injector.AddShipDelay("s1", 2000));
  EXPECT_EQ(grid.sniffer("s1")->options().ship_delay_micros, 7000);
  TRAC_ASSERT_OK(injector.AddShipDelay("s1", -100000));
  EXPECT_EQ(grid.sniffer("s1")->options().ship_delay_micros, 0);
  EXPECT_FALSE(injector.AddShipDelay("missing", 1).ok());
}

ScenarioScript SmallScript() {
  ScenarioScript script;
  script.seed = 1234;
  script.num_sources = 24;
  script.num_racks = 4;
  script.step_micros = 5 * Timestamp::kMicrosPerSecond;
  script.duration_micros = 20 * script.step_micros;
  script.poll_micros = 5 * Timestamp::kMicrosPerSecond;
  script.ship_delay_micros = 0;
  script.heartbeat_micros = 10 * Timestamp::kMicrosPerSecond;
  script.event_rate = 0.5;
  script.focus = 5;
  return script;
}

TEST(ScenarioRunnerTest, RunsToCompletionAndOraclesHold) {
  ScenarioScript script = SmallScript();
  FaultSpec outage;
  outage.kind = FaultSpec::Kind::kRackOutage;
  outage.start_micros = 20 * Timestamp::kMicrosPerSecond;
  outage.duration_micros = 30 * Timestamp::kMicrosPerSecond;
  outage.racks = {1, 2};
  script.faults.push_back(outage);

  Database db;
  MetricRegistry metrics;
  ScenarioRunnerOptions options;
  options.metrics = &metrics;
  TRAC_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ScenarioRunner> runner,
      ScenarioRunner::Create(&db, script, options));
  ASSERT_EQ(runner->source_ids().size(), 24u);
  ASSERT_EQ(runner->focused_ids().size(), 5u);

  while (!runner->done()) {
    TRAC_ASSERT_OK(runner->Step());
    RecencyReport report = MustReport(runner.get(), runner->FocusedSql());
    const OracleOutcome outcome =
        oracle::CheckReport(*runner, report, runner->focused_ids());
    ASSERT_TRUE(outcome.ok()) << outcome.Summary();
  }
  EXPECT_EQ(runner->steps_done(), script.steps());
  EXPECT_GT(runner->events_emitted(), 0);
  EXPECT_FALSE(runner->Step().ok()) << "stepping past the end must fail";
}

TEST(ScenarioRunnerTest, FocusedQueryMatchesBruteForceGroundTruth) {
  ScenarioScript script = SmallScript();
  Database db;
  MetricRegistry metrics;
  ScenarioRunnerOptions options;
  options.metrics = &metrics;
  TRAC_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ScenarioRunner> runner,
      ScenarioRunner::Create(&db, script, options));
  for (int i = 0; i < 6; ++i) TRAC_ASSERT_OK(runner->Step());

  RecencyReport report = MustReport(runner.get(), runner->FocusedSql());
  EXPECT_EQ(report.relevance.analysis.verdict,
            RecencyGuarantee::kExactMinimum);

  // The paper's evaluation methodology: the exact S(Q) via enumeration
  // over the finite domains (possible because the scenario schema
  // declares them on every column).
  TRAC_ASSERT_OK_AND_ASSIGN(BoundQuery query,
                            BindSql(db, runner->FocusedSql()));
  TRAC_ASSERT_OK_AND_ASSIGN(
      std::vector<std::string> brute,
      BruteForceRelevantSources(db, query, db.LatestSnapshot()));
  EXPECT_EQ(brute, runner->focused_ids());

  std::vector<std::string> reported;
  for (const SourceRecency& sr : report.relevance.sources) {
    reported.push_back(sr.source);
  }
  EXPECT_EQ(reported, brute);
}

TEST(ScenarioRunnerTest, NaiveMethodReportsAllSourcesAsUpperBound) {
  ScenarioScript script = SmallScript();
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(std::unique_ptr<ScenarioRunner> runner,
                            ScenarioRunner::Create(&db, script));
  for (int i = 0; i < 3; ++i) TRAC_ASSERT_OK(runner->Step());

  RecencyReport report =
      MustReport(runner.get(), runner->FocusedSql(), RecencyMethod::kNaive);
  EXPECT_EQ(report.relevance.analysis.verdict, RecencyGuarantee::kUpperBound);
  EXPECT_EQ(report.relevance.sources.size(), script.num_sources);
  const OracleOutcome outcome =
      oracle::CheckReport(*runner, report, runner->focused_ids());
  EXPECT_TRUE(outcome.ok()) << outcome.Summary();
}

TEST(ScenarioRunnerTest, UnsatisfiablePredicateGetsEmptySetVerdict) {
  ScenarioScript script = SmallScript();
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(std::unique_ptr<ScenarioRunner> runner,
                            ScenarioRunner::Create(&db, script));
  TRAC_ASSERT_OK(runner->Step());

  RecencyReport report = MustReport(runner.get(), runner->EmptySql());
  EXPECT_EQ(report.relevance.analysis.verdict, RecencyGuarantee::kEmptySet);
  EXPECT_TRUE(report.relevance.sources.empty());
  const OracleOutcome outcome = oracle::CheckReport(*runner, report, {});
  EXPECT_TRUE(outcome.ok()) << outcome.Summary();
}

TEST(ScenarioRunnerTest, ReplayIsByteIdentical) {
  ScenarioGenOptions gen;
  gen.min_sources = 8;
  gen.max_sources = 64;
  const ScenarioScript script = ScenarioScript::Generate(4242, gen);

  auto run_once = [&](std::string* notices, int64_t* events) {
    Database db;
    MetricRegistry metrics;
    ScenarioRunnerOptions options;
    options.metrics = &metrics;
    TRAC_ASSERT_OK_AND_ASSIGN(std::unique_ptr<ScenarioRunner> runner,
                              ScenarioRunner::Create(&db, script, options));
    while (!runner->done()) TRAC_ASSERT_OK(runner->Step());
    RecencyReport report = MustReport(runner.get(), runner->FocusedSql());
    *notices = report.FormatNotices();
    *events = runner->events_emitted();
  };
  std::string notices_a, notices_b;
  int64_t events_a = 0, events_b = 0;
  run_once(&notices_a, &events_a);
  run_once(&notices_b, &events_b);
  EXPECT_EQ(notices_a, notices_b);
  EXPECT_EQ(events_a, events_b);
  EXPECT_GT(events_a, 0);
}

// --- Mutation tests: the oracles must catch deliberately broken data. ---

class OracleMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    script_ = SmallScript();
    // An outage makes the paused rack's recencies drift apart, giving
    // the bound and z-score checks real spread to work with.
    FaultSpec outage;
    outage.kind = FaultSpec::Kind::kRackOutage;
    outage.start_micros = 10 * Timestamp::kMicrosPerSecond;
    outage.duration_micros = 60 * Timestamp::kMicrosPerSecond;
    outage.racks = {0};
    script_.faults.push_back(outage);
    auto runner = ScenarioRunner::Create(&db_, script_);
    ASSERT_TRUE(runner.ok()) << runner.status().ToString();
    runner_ = std::move(*runner);
    for (int i = 0; i < 10; ++i) TRAC_ASSERT_OK(runner_->Step());
    report_ = MustReport(runner_.get(), runner_->FocusedSql());
    const OracleOutcome clean =
        oracle::CheckReport(*runner_, report_, runner_->focused_ids());
    ASSERT_TRUE(clean.ok()) << "baseline must be clean: " << clean.Summary();
    ASSERT_FALSE(report_.stats.normal.empty());
  }

  ScenarioScript script_;
  Database db_;
  std::unique_ptr<ScenarioRunner> runner_;
  RecencyReport report_;
};

TEST_F(OracleMutationTest, CatchesUnderclaimedBound) {
  RecencyReport broken = report_;
  broken.stats.inconsistency_bound_micros = 0;
  if (report_.stats.inconsistency_bound_micros == 0) {
    broken.stats.inconsistency_bound_micros = -1;
  }
  const OracleOutcome outcome = oracle::CheckBoundDominance(*runner_, broken);
  EXPECT_FALSE(outcome.ok())
      << "a zeroed bound of inconsistency must be flagged";
}

TEST_F(OracleMutationTest, CatchesFabricatedRecency) {
  RecencyReport broken = report_;
  ASSERT_FALSE(broken.relevance.sources.empty());
  // Claim one source is far fresher than the Heartbeat table says (and
  // than its frontier allows).
  broken.relevance.sources[0].recency =
      broken.relevance.sources[0].recency + Timestamp::kMicrosPerDay;
  const OracleOutcome outcome = oracle::CheckBoundDominance(*runner_, broken);
  EXPECT_FALSE(outcome.ok()) << "a forged recency must be flagged";
}

TEST_F(OracleMutationTest, CatchesMisclassifiedSource) {
  RecencyReport broken = report_;
  // Move one normal source into the exceptional bucket without any
  // z-score justification.
  broken.stats.exceptional.push_back(broken.stats.normal.back());
  broken.stats.normal.pop_back();
  const OracleOutcome outcome = oracle::CheckZscoreAgreement(broken.stats);
  EXPECT_FALSE(outcome.ok())
      << "an unjustified normal->exceptional move must be flagged";
}

TEST_F(OracleMutationTest, CatchesOverclaimedGuarantee) {
  RecencyReport broken = report_;
  ASSERT_EQ(broken.relevance.analysis.verdict,
            RecencyGuarantee::kExactMinimum);
  // Drop a truly relevant source from A(Q): EXACT_MINIMUM now lies.
  ASSERT_FALSE(broken.relevance.sources.empty());
  broken.relevance.sources.pop_back();
  const OracleOutcome outcome =
      oracle::CheckGuarantee(broken, runner_->focused_ids());
  EXPECT_FALSE(outcome.ok())
      << "EXACT_MINIMUM with a missing relevant source must be flagged";
}

// The profiled session IR's merge node carries the relevant-source
// count; an actual_rows above the interval the abstract interpreter
// proves for it is a TRAC-P001 soundness violation.
TEST_F(OracleMutationTest, CatchesSourceCountAboveStaticBound) {
  ASSERT_TRUE(oracle::CheckProfileSoundness(report_).ok());
  TRAC_ASSERT_OK_AND_ASSIGN(PlanIr ir, ParsePlanIr(report_.profiled_ir));
  const absint::AbsintResult facts = absint::AnalyzeIr(ir);
  IrNode* merge = nullptr;
  for (IrNode& node : ir.nodes) {
    if (node.kind == IrNodeKind::kMerge) merge = &node;
  }
  ASSERT_NE(merge, nullptr);
  ASSERT_TRUE(merge->has_actual_rows);
  EXPECT_EQ(merge->actual_rows, report_.relevance.sources.size());
  const absint::CardInterval& card = facts.facts[merge->id].card;
  ASSERT_FALSE(card.unbounded);
  merge->actual_rows = card.hi + 1;
  RecencyReport broken = report_;
  broken.profiled_ir = ir.Dump();
  EXPECT_FALSE(oracle::CheckProfileSoundness(broken).ok())
      << "more sources than the static maximum must be flagged";
}

TEST_F(OracleMutationTest, CatchesUnparsableProfiledIr) {
  RecencyReport broken = report_;
  broken.profiled_ir += "node bogus\n";
  ASSERT_FALSE(ParsePlanIr(broken.profiled_ir).ok());
  EXPECT_FALSE(oracle::CheckProfileSoundness(broken).ok())
      << "a profiled IR that does not re-parse must be flagged";
}

}  // namespace
}  // namespace trac

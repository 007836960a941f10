// Replays the scenario scripts committed under examples/scenarios/:
// each file must parse, be in canonical form already (byte-for-byte
// fixpoint — a hand-edit that denormalizes the file fails here, not in
// some downstream tool), run to completion, and hold every soundness
// oracle at every step. The byte-exact NOTICE/report output of these
// same scripts is pinned separately by the trac_scenario --golden CTest
// cases.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../monitor/oracles.h"
#include "../test_util.h"
#include "core/recency_reporter.h"
#include "monitor/scenario.h"

#ifndef TRAC_EXAMPLES_DIR
#define TRAC_EXAMPLES_DIR "examples"
#endif

namespace trac {
namespace {

using oracle::OracleOutcome;

std::string ReadFileOrDie(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ADD_FAILURE() << "cannot open " << path;
    return "";
  }
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  fclose(f);
  return out;
}

class ScenarioGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioGoldenTest, CommittedScriptReplaysCleanly) {
  const std::string path =
      std::string(TRAC_EXAMPLES_DIR) + "/scenarios/" + GetParam();
  const std::string text = ReadFileOrDie(path);
  ASSERT_FALSE(text.empty());

  auto script = ScenarioScript::Parse(text);
  ASSERT_TRUE(script.ok()) << path << ": " << script.status().ToString();
  // Committed scripts are canonical: replay artifacts diff cleanly.
  EXPECT_EQ(script->ToText(), text)
      << path << " is not in canonical form (regenerate with "
      << "trac_scenario --replay " << path << " --dump)";

  Database db;
  MetricRegistry metrics;
  ScenarioRunnerOptions options;
  options.metrics = &metrics;
  TRAC_ASSERT_OK_AND_ASSIGN(std::unique_ptr<ScenarioRunner> runner,
                            ScenarioRunner::Create(&db, *script, options));

  OracleOutcome total;
  while (!runner->done()) {
    TRAC_ASSERT_OK(runner->Step());
    // Check each step: the telemetry oracle keys on fresh poll state.
    total.Merge(oracle::CheckTelemetry(*runner, metrics));
    ASSERT_TRUE(total.ok()) << "at " << runner->now().ToString() << ": "
                            << total.Summary();
  }

  RecencyReportOptions report_options;
  report_options.create_temp_tables = false;
  report_options.profile = true;  // Feeds the profile-soundness oracle.
  RecencyReporter reporter(&db, nullptr);
  for (RecencyMethod method :
       {RecencyMethod::kFocused, RecencyMethod::kNaive}) {
    report_options.method = method;
    auto report = reporter.Run(runner->FocusedSql(), report_options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    total.Merge(oracle::CheckReport(*runner, *report, runner->focused_ids()));
  }
  EXPECT_TRUE(total.ok()) << total.Summary();
  EXPECT_GT(total.checks, 100u) << "golden replay barely checked anything";
}

INSTANTIATE_TEST_SUITE_P(CommittedScenarios, ScenarioGoldenTest,
                         ::testing::Values("correlated-rack-failure.scenario",
                                           "backlog-storm.scenario"));

}  // namespace
}  // namespace trac

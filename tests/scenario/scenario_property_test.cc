// The hostile-grid property suite: hundreds of seeded random scenario
// scripts — correlated rack outages, flapping sniffers, clock skew,
// backlog storms, log truncation, grids up to a thousand sources — each
// replayed deterministically with every soundness oracle checked at
// every report checkpoint. A failing script is shrunk (drop faults,
// halve the grid, halve the duration) to a minimal reproducer and
// dumped as a replayable .scenario file whose path appears in the
// failure message; `trac_scenario --replay <file>` then reproduces the
// run byte-for-byte.
//
// Runtime knobs (all optional):
//   TRAC_SCENARIO_SCRIPTS    number of generated scripts (default 200)
//   TRAC_SCENARIO_SOURCES    grid-size ceiling (default 1000)
//   TRAC_SCENARIO_MIN_SOURCES grid-size floor (default 12)
//   TRAC_SCENARIO_SEED       base seed (default 20060315)
//   TRAC_SCENARIO_REPRO_DIR  where shrunken repros land
//                            (default "scenario-repro")

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../monitor/oracles.h"
#include "../test_util.h"
#include "common/clock.h"
#include "core/recency_reporter.h"
#include "core/session.h"
#include "monitor/scenario.h"
#include "telemetry/telemetry.h"

namespace trac {
namespace {

using oracle::OracleOutcome;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoll(value);
}

std::string EnvStr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return (value == nullptr || *value == '\0') ? fallback : value;
}

struct RunResult {
  bool setup_ok = true;
  std::string setup_error;
  OracleOutcome outcome;

  bool clean() const { return setup_ok && outcome.ok(); }
  std::string Describe() const {
    if (!setup_ok) return "setup/step error: " + setup_error;
    return outcome.Summary();
  }
};

/// Replays one script to completion, running reports at periodic
/// checkpoints and checking every oracle. Deterministic per script.
RunResult RunScenario(const ScenarioScript& script) {
  RunResult result;
  Database db;
  MetricRegistry metrics;
  Tracer tracer;
  ScenarioRunnerOptions options;
  options.metrics = &metrics;
  auto created = ScenarioRunner::Create(&db, script, options);
  if (!created.ok()) {
    result.setup_ok = false;
    result.setup_error = created.status().ToString();
    return result;
  }
  std::unique_ptr<ScenarioRunner> runner = std::move(*created);

  // Checkpoint cadence: every ~5 steps plus the final step, alternating
  // the focused and naive methods, with parallelism toggling so the TSan
  // run exercises the pool path. The clock for spans is the sim clock.
  const size_t total_steps = script.steps();
  size_t checkpoint = 0;
  while (!runner->done()) {
    const Status step = runner->Step();
    if (!step.ok()) {
      result.setup_ok = false;
      result.setup_error = step.ToString();
      return result;
    }
    const bool last = runner->steps_done() == total_steps;
    if (runner->steps_done() % 5 != 0 && !last) continue;
    ++checkpoint;

    result.outcome.Merge(oracle::CheckTelemetry(*runner, metrics));

    Telemetry telemetry{&metrics, &tracer, &MonotonicMicros};
    RecencyReportOptions report_options;
    report_options.method = (checkpoint % 2 == 0) ? RecencyMethod::kNaive
                                                  : RecencyMethod::kFocused;
    report_options.create_temp_tables = false;
    report_options.profile = true;  // Feeds the profile-soundness oracle.
    report_options.telemetry = &telemetry;
    report_options.relevance.parallelism = (checkpoint % 2) + 1;
    RecencyReporter reporter(runner->db(), nullptr);
    auto report = reporter.Run(runner->FocusedSql(), report_options);
    if (!report.ok()) {
      result.setup_ok = false;
      result.setup_error = "report failed: " + report.status().ToString();
      return result;
    }
    result.outcome.Merge(
        oracle::CheckReport(*runner, *report, runner->focused_ids()));
    result.outcome.Merge(oracle::CheckTrace(tracer, *report));
    if (!result.outcome.ok()) return result;  // Shrinker takes over.

    // Every third checkpoint also proves the EMPTY_SET path.
    if (checkpoint % 3 == 0) {
      auto empty = reporter.Run(runner->EmptySql(), report_options);
      if (!empty.ok()) {
        result.setup_ok = false;
        result.setup_error = "empty-set report failed: " +
                             empty.status().ToString();
        return result;
      }
      result.outcome.Merge(oracle::CheckReport(*runner, *empty, {}));
    }
  }

  // One session-backed report at the end covers the temp-table path the
  // checkpoints skip.
  Session session(&db);
  RecencyReportOptions final_options;
  final_options.create_temp_tables = true;
  final_options.profile = true;
  RecencyReporter final_reporter(&db, &session);
  auto final_report = final_reporter.Run(runner->FocusedSql(), final_options);
  if (!final_report.ok()) {
    result.setup_ok = false;
    result.setup_error =
        "temp-table report failed: " + final_report.status().ToString();
    return result;
  }
  result.outcome.Merge(
      oracle::CheckReport(*runner, *final_report, runner->focused_ids()));
  return result;
}

/// Greedy shrink: repeatedly try dropping one fault, then halving the
/// grid and the duration, keeping every mutation that still fails.
/// Bounded, deterministic, and each candidate is a full re-run.
ScenarioScript Shrink(ScenarioScript script) {
  bool changed = true;
  int budget = 60;  // Re-runs, not scripts: shrinking stays bounded.
  while (changed && budget > 0) {
    changed = false;
    for (size_t f = 0; f < script.faults.size() && budget > 0; ++f) {
      ScenarioScript candidate = script;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<ptrdiff_t>(f));
      --budget;
      if (!RunScenario(candidate).clean()) {
        script = std::move(candidate);
        changed = true;
        break;
      }
    }
    if (!changed && script.num_sources > 8 && budget > 0) {
      ScenarioScript candidate = script;
      candidate.num_sources /= 2;
      if (candidate.num_racks > candidate.num_sources) {
        candidate.num_racks = candidate.num_sources;
      }
      if (candidate.focus > candidate.num_sources) {
        candidate.focus = candidate.num_sources;
      }
      // Re-clamp fault targets into the smaller grid.
      for (FaultSpec& fault : candidate.faults) {
        for (size_t& s : fault.sources) s %= candidate.num_sources;
        for (size_t& r : fault.racks) r %= candidate.num_racks;
      }
      --budget;
      if (candidate.Validate().ok() && !RunScenario(candidate).clean()) {
        script = std::move(candidate);
        changed = true;
      }
    }
    if (!changed && script.steps() > 6 && budget > 0) {
      ScenarioScript candidate = script;
      candidate.duration_micros /= 2;
      --budget;
      if (candidate.Validate().ok() && !RunScenario(candidate).clean()) {
        script = std::move(candidate);
        changed = true;
      }
    }
  }
  return script;
}

std::string DumpRepro(const ScenarioScript& script, uint64_t seed) {
  const std::string dir = EnvStr("TRAC_SCENARIO_REPRO_DIR", "scenario-repro");
  ::mkdir(dir.c_str(), 0777);  // Best effort; write failure is reported.
  const std::string path =
      dir + "/failure-seed-" + std::to_string(seed) + ".scenario";
  FILE* f = fopen(path.c_str(), "wb");
  if (f == nullptr) return "(could not write " + path + ")";
  const std::string text = script.ToText();
  fwrite(text.data(), 1, text.size(), f);
  fclose(f);
  return path;
}

TEST(ScenarioPropertyTest, RandomHostileGridsHoldEveryOracle) {
  const int64_t scripts = EnvInt("TRAC_SCENARIO_SCRIPTS", 200);
  ScenarioGenOptions gen;
  gen.min_sources =
      static_cast<size_t>(EnvInt("TRAC_SCENARIO_MIN_SOURCES", 12));
  gen.max_sources = static_cast<size_t>(EnvInt("TRAC_SCENARIO_SOURCES", 1000));
  const uint64_t base_seed =
      static_cast<uint64_t>(EnvInt("TRAC_SCENARIO_SEED", 20060315));

  size_t total_checks = 0;
  size_t total_exempt = 0;
  size_t max_sources_seen = 0;
  for (int64_t k = 0; k < scripts; ++k) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(k);
    const ScenarioScript script = ScenarioScript::Generate(seed, gen);
    ASSERT_TRUE(script.Validate().ok()) << "generator produced junk";
    max_sources_seen =
        std::max(max_sources_seen, static_cast<size_t>(script.num_sources));

    RunResult result = RunScenario(script);
    if (!result.clean()) {
      const ScenarioScript minimal = Shrink(script);
      const RunResult replay = RunScenario(minimal);
      const std::string repro = DumpRepro(minimal, seed);
      FAIL() << "scenario seed " << seed << " (" << script.num_sources
             << " sources, " << script.faults.size() << " faults) violated "
             << "the oracles.\nOriginal: " << result.Describe()
             << "\nShrunken to " << minimal.num_sources << " sources / "
             << minimal.faults.size() << " faults: " << replay.Describe()
             << "\nReplayable repro written to: " << repro
             << "\n  (replay with: trac_scenario --replay " << repro << ")";
    }
    total_checks += result.outcome.checks;
    total_exempt += result.outcome.exemptions;
  }
  // The suite must actually have exercised the hostile regime it
  // advertises; a silent scale-down would pass vacuously.
  EXPECT_GT(total_checks, static_cast<size_t>(scripts) * 20)
      << "oracles barely ran";
  if (gen.max_sources >= 500 && scripts >= 50) {
    EXPECT_GE(max_sources_seen, gen.max_sources / 2)
        << "generator never produced a large grid";
  }
  RecordProperty("oracle_checks", std::to_string(total_checks));
  RecordProperty("oracle_exemptions", std::to_string(total_exempt));
}

// The oracles must be *able* to fail: seed a scenario, then break the
// report in the three characteristic ways and require a violation each
// time. Guards against an oracle regression that silently checks
// nothing (the property above would keep passing forever).
TEST(ScenarioPropertyTest, OraclesCatchSeededMutations) {
  ScenarioGenOptions gen;
  gen.min_sources = 16;
  gen.max_sources = 64;
  const ScenarioScript script = ScenarioScript::Generate(7, gen);

  Database db;
  MetricRegistry metrics;
  ScenarioRunnerOptions options;
  options.metrics = &metrics;
  TRAC_ASSERT_OK_AND_ASSIGN(std::unique_ptr<ScenarioRunner> runner,
                            ScenarioRunner::Create(&db, script, options));
  while (!runner->done()) TRAC_ASSERT_OK(runner->Step());

  RecencyReportOptions report_options;
  report_options.create_temp_tables = false;
  report_options.profile = true;
  RecencyReporter reporter(&db, nullptr);
  auto report = reporter.Run(runner->FocusedSql(), report_options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(
      oracle::CheckReport(*runner, *report, runner->focused_ids()).ok());
  ASSERT_FALSE(report->stats.normal.empty());

  {
    RecencyReport broken = *report;
    broken.stats.inconsistency_bound_micros -= 1;
    EXPECT_FALSE(oracle::CheckBoundDominance(*runner, broken).ok())
        << "off-by-one bound shrink not caught";
  }
  {
    RecencyReport broken = *report;
    broken.relevance.sources[0].recency =
        broken.relevance.sources[0].recency + Timestamp::kMicrosPerHour;
    EXPECT_FALSE(oracle::CheckBoundDominance(*runner, broken).ok())
        << "forged recency not caught";
  }
  {
    RecencyReport broken = *report;
    broken.stats.exceptional.push_back(broken.stats.normal.back());
    broken.stats.normal.pop_back();
    EXPECT_FALSE(oracle::CheckZscoreAgreement(broken.stats).ok())
        << "membership swap not caught";
  }
  {
    RecencyReport broken = *report;
    broken.relevance.sources.pop_back();
    EXPECT_FALSE(
        oracle::CheckGuarantee(broken, runner->focused_ids()).ok())
        << "EXACT_MINIMUM overclaim not caught";
  }
}

}  // namespace
}  // namespace trac

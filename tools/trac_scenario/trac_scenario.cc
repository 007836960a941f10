// trac_scenario: replay and inspect hostile-grid scenario scripts.
// Parses a .scenario file (or generates one from a seed), drives the
// deterministic ScenarioRunner to completion, checks every soundness
// oracle at each checkpoint, and renders the paper's NOTICE blocks for
// a focused, a naive, and an unsatisfiable (EMPTY_SET) report over the
// final grid state. The whole pipeline is driven by the simulated
// clock, so two invocations on the same script are byte-identical —
// which is what makes --golden pinning and --replay of a property-test
// repro file meaningful.
//
// Usage:
//   trac_scenario (--replay FILE | --generate SEED)
//                 [--dump] [--json] [--golden FILE] [--update]
//
//   --replay FILE   load the script from FILE (the property test's
//                   shrunken repro files are in this format)
//   --generate N    synthesize the seed-N script the property suite
//                   would run (same generator, same distribution)
//   --dump          print the script's canonical text and exit; a
//                   re-parse of the output is byte-identical, so
//                   `--replay f --dump > f` canonicalizes a hand edit
//   --json          machine-readable run summary instead of the report
//   --golden FILE   compare the full report against FILE byte for byte
//   --update        rewrite FILE instead of comparing
//
// Exit status: 0 clean run (oracles hold, golden matches), 1 oracle
// violation or golden mismatch, 2 usage, parse, or I/O errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../common/cli_golden.h"
#include "analysis/guarantee.h"
#include "core/recency_reporter.h"
#include "core/session.h"
#include "monitor/scenario.h"
#include "oracles.h"
#include "storage/database.h"
#include "telemetry/metrics.h"

namespace {

using trac::oracle::OracleOutcome;

bool ReadFile(const std::string& path, std::string* out) {
  return trac::cli::ReadFile(std::filesystem::path(path), out);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--replay FILE | --generate SEED) [--dump] "
               "[--json] [--golden FILE] [--update]\n",
               argv0);
  return 2;
}

struct Flags {
  std::string replay;
  bool generate = false;
  uint64_t seed = 0;
  bool dump = false;
  bool json = false;
  std::string golden;
  bool update = false;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// One report over the final grid state; appends the rendered block and
/// merges the oracle outcome.
bool RunReport(trac::ScenarioRunner* runner, const char* title,
               trac::RecencyMethod method, const std::string& sql,
               const std::vector<std::string>& true_sources,
               std::string* out, OracleOutcome* total) {
  trac::RecencyReportOptions options;
  options.method = method;
  options.create_temp_tables = false;
  options.profile = true;  // Feeds the profile-soundness oracle.
  trac::RecencyReporter reporter(runner->db(), nullptr);
  auto report = reporter.Run(sql, options);
  if (!report.ok()) {
    std::fprintf(stderr, "trac_scenario: %s report failed: %s\n", title,
                 report.status().ToString().c_str());
    return false;
  }
  const OracleOutcome outcome =
      trac::oracle::CheckReport(*runner, *report, true_sources);
  *out += "--- " + std::string(title) + " report (";
  *out += trac::GuaranteeToString(report->relevance.analysis.verdict);
  *out += ") ---\n";
  *out += report->FormatNotices();
  *out += "oracle: " + outcome.Summary() + "\n";
  total->Merge(outcome);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      flags.replay = v;
    } else if (arg == "--generate") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      flags.generate = true;
      flags.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--dump") {
      flags.dump = true;
    } else if (arg == "--json") {
      flags.json = true;
    } else if (arg == "--golden") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      flags.golden = v;
    } else if (arg == "--update") {
      flags.update = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (flags.replay.empty() == !flags.generate) return Usage(argv[0]);

  trac::ScenarioScript script;
  if (flags.generate) {
    script = trac::ScenarioScript::Generate(flags.seed,
                                            trac::ScenarioGenOptions{});
  } else {
    std::string text;
    if (!ReadFile(flags.replay, &text)) {
      std::fprintf(stderr, "trac_scenario: cannot read %s\n",
                   flags.replay.c_str());
      return 2;
    }
    auto parsed = trac::ScenarioScript::Parse(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "trac_scenario: %s: %s\n", flags.replay.c_str(),
                   parsed.status().ToString().c_str());
      return 2;
    }
    script = std::move(*parsed);
  }
  if (const trac::Status valid = script.Validate(); !valid.ok()) {
    std::fprintf(stderr, "trac_scenario: invalid script: %s\n",
                 valid.ToString().c_str());
    return 2;
  }

  if (flags.dump) {
    const std::string text = script.ToText();
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }

  trac::Database db;
  trac::MetricRegistry metrics;
  trac::ScenarioRunnerOptions runner_options;
  runner_options.metrics = &metrics;
  auto created = trac::ScenarioRunner::Create(&db, script, runner_options);
  if (!created.ok()) {
    std::fprintf(stderr, "trac_scenario: setup failed: %s\n",
                 created.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<trac::ScenarioRunner> runner = std::move(*created);

  std::string out;
  out += "scenario seed=" + std::to_string(script.seed) +
         " sources=" + std::to_string(script.num_sources) +
         " racks=" + std::to_string(script.num_racks) +
         " steps=" + std::to_string(script.steps()) +
         " faults=" + std::to_string(script.faults.size()) + "\n";

  OracleOutcome total;
  while (!runner->done()) {
    if (const trac::Status step = runner->Step(); !step.ok()) {
      std::fprintf(stderr, "trac_scenario: step failed: %s\n",
                   step.ToString().c_str());
      return 2;
    }
    const bool last = runner->done();
    if (runner->steps_done() % 5 != 0 && !last) continue;
    const OracleOutcome telemetry =
        trac::oracle::CheckTelemetry(*runner, metrics);
    out += "step " + std::to_string(runner->steps_done()) + " t=" +
           runner->now().ToString() +
           " events=" + std::to_string(runner->events_emitted()) +
           " oracle: " + telemetry.Summary() + "\n";
    total.Merge(telemetry);
  }

  const bool reports_ok =
      RunReport(runner.get(), "focused", trac::RecencyMethod::kFocused,
                runner->FocusedSql(), runner->focused_ids(), &out, &total) &&
      RunReport(runner.get(), "naive", trac::RecencyMethod::kNaive,
                runner->FocusedSql(), runner->focused_ids(), &out, &total) &&
      RunReport(runner.get(), "empty-set", trac::RecencyMethod::kFocused,
                runner->EmptySql(), {}, &out, &total);
  if (!reports_ok) return 2;
  out += "TOTAL oracle: " + total.Summary() + "\n";

  if (flags.json) {
    std::string json = "{\n";
    json += "  \"seed\": " + std::to_string(script.seed) + ",\n";
    json += "  \"sources\": " + std::to_string(script.num_sources) + ",\n";
    json += "  \"steps\": " + std::to_string(script.steps()) + ",\n";
    json += "  \"faults\": " + std::to_string(script.faults.size()) + ",\n";
    json += "  \"events\": " + std::to_string(runner->events_emitted()) +
            ",\n";
    json += "  \"oracle_checks\": " + std::to_string(total.checks) + ",\n";
    json +=
        "  \"oracle_exemptions\": " + std::to_string(total.exemptions) + ",\n";
    json += "  \"violations\": [";
    for (size_t i = 0; i < total.violations.size(); ++i) {
      if (i > 0) json += ", ";
      json += "\"" + JsonEscape(total.violations[i]) + "\"";
    }
    json += "],\n";
    json += std::string("  \"ok\": ") + (total.ok() ? "true" : "false") +
            "\n}\n";
    std::fwrite(json.data(), 1, json.size(), stdout);
  } else if (flags.golden.empty()) {
    std::fwrite(out.data(), 1, out.size(), stdout);
  }

  if (!flags.golden.empty()) {
    const int golden_exit = trac::cli::GateGoldenFile(
        "trac_scenario", flags.golden, out, flags.update);
    if (golden_exit != trac::cli::kExitClean) return golden_exit;
  }

  if (!total.ok()) {
    std::fprintf(stderr, "trac_scenario: ORACLE VIOLATIONS:\n");
    for (const std::string& v : total.violations) {
      std::fprintf(stderr, "  %s\n", v.c_str());
    }
    return 1;
  }
  return 0;
}

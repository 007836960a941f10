// trac_profile: EXPLAIN ANALYZE for report sessions. Runs each .sql
// corpus query through the full recency-report pipeline with the
// per-operator profiler on (core/recency_reporter.h with
// options.profile set), prints the session IR with its
// runtime actual_rows=/actual_ns= annotations, a top-operators table,
// and the TRAC-P estimate-drift findings.
//
// Usage:
//   trac_profile --schema <schema.sql> [--golden <dir>] [--update]
//                [--json] [--parallelism N] [--top K]
//                [--expect-findings] <file.sql|file.ir>...
//
// Two input kinds, told apart by extension:
//
//   *.sql  one SELECT statement, executed as a profiled report session
//          against a fresh database built from --schema. The session
//          runs under a fixed-step fake clock and an isolated
//          metrics/tracer/flight-recorder bundle, so the profiled IR
//          (annotations included) is byte-deterministic at
//          --parallelism 1.
//   *.ir   an already-profiled plan IR in the Dump() text format
//          (actual_rows=/actual_ns= annotations baked in). Only the
//          drift analysis runs — this is the seeded-drift corpus
//          format: examples/profiles/bad/*.ir pin one TRAC-P
//          diagnostic each.
//
//   --top K           rows in the top-operators table (default 5)
//   --json            machine-readable output: one object per input
//                     (annotated node count, drift diagnostics, ok)
//   --golden <dir>    compare each input's text block against
//                     <dir>/<stem>.txt and fail (exit 1) on mismatch
//   --update          rewrite the golden files instead of comparing
//   --parallelism N   relevance fan-out strands (default 1; goldens
//                     require 1 — clock-call order must be fixed)
//   --expect-findings invert the drift gate: every input must yield at
//                     least one TRAC-P finding (the seeded-bad corpus
//                     mode; golden mismatches still fail)
//
// Exit status: 0 clean, 1 TRAC-P001 soundness findings or golden
// regressions (TRAC-P002 misestimates are advisories: printed and
// pinned by goldens, never an exit-code failure), 2 usage or I/O
// errors (tools/common/cli_golden.h). Mirrors tools/trac_verify.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "../common/cli_golden.h"
#include "common/str_util.h"
#include "core/recency_reporter.h"
#include "core/session.h"
#include "exec/statement.h"
#include "ir/plan_ir.h"
#include "storage/database.h"
#include "telemetry/profile.h"
#include "telemetry/telemetry.h"

namespace {

namespace fs = std::filesystem;

using trac::cli::ReadFile;
using trac::cli::SplitStatements;
using trac::cli::StripSqlComments;

// Fixed-step clock: every call advances simulated time by 1ms. Reset
// per input file, so each block's actual_ns annotations depend only on
// that query's own clock-call sequence — corpus order and length never
// leak into a golden.
std::atomic<int64_t> g_ticks{0};

int64_t FakeNowMicros() {
  return g_ticks.fetch_add(1, std::memory_order_relaxed) * 1000;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --schema <schema.sql> [--golden <dir>] [--update] "
               "[--json] [--parallelism N] [--top K] [--expect-findings] "
               "<file.sql|file.ir>...\n",
               argv0);
  return trac::cli::kExitUsage;
}

/// The top-operators table: annotated nodes ranked by attributed busy
/// time (ties: rows, then id — stable under the fake clock's 1ms
/// quantum).
std::string FormatTopOperators(const trac::PlanIr& ir, size_t top_k) {
  std::vector<const trac::IrNode*> ranked;
  for (const trac::IrNode& node : ir.nodes) {
    if (node.has_actual_rows || node.has_actual_ns) ranked.push_back(&node);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const trac::IrNode* a, const trac::IrNode* b) {
                     if (a->actual_ns != b->actual_ns)
                       return a->actual_ns > b->actual_ns;
                     if (a->actual_rows != b->actual_rows)
                       return a->actual_rows > b->actual_rows;
                     return a->id < b->id;
                   });
  std::string out = "-- top operators (by actual_ns) --\n";
  out += "  node  kind       actual_ns  actual_rows  est_rows\n";
  char line[128];
  for (size_t i = 0; i < ranked.size() && i < top_k; ++i) {
    const trac::IrNode& node = *ranked[i];
    const std::string est =
        node.has_rows ? std::to_string(node.rows) : std::string("-");
    std::snprintf(line, sizeof(line), "  %4zu  %-9s %10lld  %11llu  %8s\n",
                  node.id,
                  std::string(trac::IrNodeKindToString(node.kind)).c_str(),
                  static_cast<long long>(node.actual_ns),
                  static_cast<unsigned long long>(node.actual_rows),
                  est.c_str());
    out += line;
  }
  return out;
}

std::string FormatDrift(const std::vector<trac::ProfileDiagnostic>& drift) {
  std::string out = "-- drift --\n";
  if (drift.empty()) {
    out += "  none\n";
    return out;
  }
  for (const trac::ProfileDiagnostic& d : drift) {
    out += "  " + d.Format() + "\n";
  }
  return out;
}

std::string JsonForFile(const std::string& name, size_t annotated,
                        const std::vector<trac::ProfileDiagnostic>& drift) {
  std::string out = "  {\"file\": " + trac::JsonEscape(name) +
                    ", \"annotated_nodes\": " + std::to_string(annotated) +
                    ", \"ok\": " + (drift.empty() ? "true" : "false") +
                    ", \"drift\": [";
  for (size_t i = 0; i < drift.size(); ++i) {
    const trac::ProfileDiagnostic& d = drift[i];
    if (i != 0) out += ", ";
    out += "{\"code\": " +
           trac::JsonEscape(trac::ProfileCodeId(d.code)) +
           ", \"node\": " + std::to_string(d.node) + ", \"kind\": " +
           trac::JsonEscape(trac::IrNodeKindToString(d.kind)) +
           ", \"message\": " + trac::JsonEscape(d.message) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string schema_path;
  std::string golden_dir;
  bool update = false;
  bool json = false;
  bool expect_findings = false;
  size_t parallelism = 1;
  size_t top_k = 5;
  std::vector<std::string> input_files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--schema" && i + 1 < argc) {
      schema_path = argv[++i];
    } else if (arg == "--golden" && i + 1 < argc) {
      golden_dir = argv[++i];
    } else if (arg == "--update") {
      update = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--expect-findings") {
      expect_findings = true;
    } else if (arg == "--parallelism" && i + 1 < argc) {
      parallelism = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (parallelism == 0) parallelism = 1;
    } else if (arg == "--top" && i + 1 < argc) {
      top_k = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (top_k == 0) top_k = 1;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      input_files.push_back(arg);
    }
  }
  if (input_files.empty()) return Usage(argv[0]);
  if (update && golden_dir.empty()) {
    std::fprintf(stderr, "trac_profile: --update requires --golden\n");
    return trac::cli::kExitUsage;
  }
  if (!golden_dir.empty() && parallelism > 1) {
    std::fprintf(stderr,
                 "trac_profile: --golden requires --parallelism 1 "
                 "(clock-call order must be fixed)\n");
    return trac::cli::kExitUsage;
  }

  std::string schema_sql;
  if (!schema_path.empty() && !ReadFile(schema_path, &schema_sql)) {
    std::fprintf(stderr, "trac_profile: cannot read schema: %s\n",
                 schema_path.c_str());
    return trac::cli::kExitUsage;
  }

  int exit_code = 0;
  std::string json_out = "[\n";
  bool json_first = true;

  for (const std::string& input_file : input_files) {
    const fs::path ipath(input_file);
    const std::string name = ipath.filename().string();
    std::string text;
    if (!ReadFile(ipath, &text)) {
      std::fprintf(stderr, "trac_profile: cannot read input: %s\n",
                   input_file.c_str());
      return trac::cli::kExitUsage;
    }

    std::string block;
    size_t annotated = 0;
    std::vector<trac::ProfileDiagnostic> drift;

    if (ipath.extension() == ".ir") {
      // Drift-only mode: the input is already a profiled IR.
      auto parsed = trac::ParsePlanIr(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "trac_profile: %s: %s\n", name.c_str(),
                     parsed.status().ToString().c_str());
        return trac::cli::kExitUsage;
      }
      for (const trac::IrNode& node : parsed->nodes) {
        if (node.has_actual_rows || node.has_actual_ns) ++annotated;
      }
      drift = trac::AnalyzeProfileDrift(*parsed);
      block = parsed->Dump();
      block += FormatTopOperators(*parsed, top_k);
      block += FormatDrift(drift);
    } else {
      if (schema_sql.empty()) {
        std::fprintf(stderr, "trac_profile: .sql inputs need --schema\n");
        return trac::cli::kExitUsage;
      }
      // Fresh database + telemetry bundle per input: profiles never
      // bleed across corpus files, and the fake clock restarts at 0.
      trac::Database db;
      for (const std::string& stmt :
           SplitStatements(StripSqlComments(schema_sql))) {
        auto result = trac::ExecuteStatement(&db, stmt);
        if (!result.ok()) {
          std::fprintf(stderr, "trac_profile: schema statement failed: %s\n",
                       result.status().ToString().c_str());
          return trac::cli::kExitUsage;
        }
      }
      const std::vector<std::string> stmts =
          SplitStatements(StripSqlComments(text));
      if (stmts.size() != 1) {
        std::fprintf(stderr,
                     "trac_profile: %s: expected exactly one statement, "
                     "got %zu\n",
                     name.c_str(), stmts.size());
        return trac::cli::kExitUsage;
      }

      g_ticks.store(0, std::memory_order_relaxed);
      trac::MetricRegistry registry;
      trac::Tracer tracer;
      trac::FlightRecorder recorder;
      trac::Telemetry telemetry;
      telemetry.metrics = &registry;
      telemetry.tracer = &tracer;
      telemetry.clock = &FakeNowMicros;
      telemetry.recorder = &recorder;

      trac::Session session(&db);
      trac::RecencyReporter reporter(&db, &session);
      trac::RecencyReportOptions options;
      options.telemetry = &telemetry;
      options.relevance.parallelism = parallelism;
      options.profile = true;
      auto report = reporter.Run(stmts[0], options);
      if (!report.ok()) {
        std::fprintf(stderr, "trac_profile: %s: %s\n", name.c_str(),
                     report.status().ToString().c_str());
        return trac::cli::kExitUsage;
      }

      annotated = report->profiled_nodes;
      auto profiled = trac::ParsePlanIr(report->profiled_ir);
      if (!profiled.ok()) {
        std::fprintf(stderr,
                     "trac_profile: %s: profiled IR does not re-parse: %s\n",
                     name.c_str(), profiled.status().ToString().c_str());
        return trac::cli::kExitUsage;
      }
      drift = trac::AnalyzeProfileDrift(*profiled);
      char header[160];
      std::snprintf(header, sizeof(header),
                    "session: snapshot=%llu parallelism=%zu rows=%zu "
                    "sources=%zu annotated=%zu\n",
                    static_cast<unsigned long long>(
                        report->snapshot.version),
                    parallelism, report->result.rows.size(),
                    report->relevance.sources.size(), annotated);
      block = header;
      block += report->profiled_ir;
      block += FormatTopOperators(*profiled, top_k);
      block += FormatDrift(drift);
      const std::vector<trac::SessionProfileRecord> entries =
          recorder.Entries();
      block += "flight recorder: sessions=" +
               std::to_string(entries.size());
      if (!entries.empty()) {
        // The recorder holds only this input's session, whose IR is the
        // one `drift` analysed.
        size_t p001 = 0;
        size_t p002 = 0;
        for (const trac::ProfileDiagnostic& d : drift) {
          ++(d.code == trac::ProfileCode::kMisestimate ? p002 : p001);
        }
        block += " p001=" + std::to_string(p001) +
                 " p002=" + std::to_string(p002);
      }
      block += "\n";
    }

    // The findings gate follows the rule severities: TRAC-P001 is a
    // soundness bug and fails the run; TRAC-P002 is an advisory (it
    // prints, and the goldens pin it, but a point lookup legitimately
    // touching 1 of N indexed rows must not fail the clean corpus).
    // --expect-findings accepts either class.
    const bool hard = std::any_of(
        drift.begin(), drift.end(), [](const trac::ProfileDiagnostic& d) {
          return d.code == trac::ProfileCode::kActualOutsideStaticBounds;
        });
    if (expect_findings ? drift.empty() : hard) {
      if (expect_findings) {
        std::printf("FAIL %s: expected drift findings, got none\n",
                    name.c_str());
      }
      exit_code = trac::cli::kExitFindings;
    }

    if (json) {
      if (!json_first) json_out += ",\n";
      json_first = false;
      json_out += JsonForFile(name, annotated, drift);
    } else {
      std::printf("== %s\n%s", name.c_str(), block.c_str());
    }

    if (!golden_dir.empty() &&
        !trac::cli::GateGoldenDir("trac_profile", golden_dir, ipath, block,
                                  update, &exit_code)) {
      return trac::cli::kExitUsage;
    }
  }

  if (json) {
    json_out += "\n]\n";
    std::printf("%s", json_out.c_str());
  } else if (exit_code == 0) {
    std::printf("trac_profile: OK (%zu input%s)\n", input_files.size(),
                input_files.size() == 1 ? "" : "s");
  }
  return exit_code;
}

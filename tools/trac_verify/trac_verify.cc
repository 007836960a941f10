// trac_verify: offline plan-IR verifier for query and plan corpora.
//
// Usage:
//   trac_verify --schema <schema.sql> [--golden <dir>] [--update]
//               [--dump-ir] [--json] <file>...
//
// Two input kinds, told apart by extension:
//
//   *.sql  one SELECT statement. The query is bound against the schema,
//          its recency queries are generated (src/core/relevance.h), the
//          whole report session — user plan, every part with guards,
//          the merge, the temp writes — is lowered into the plan IR
//          (src/ir/lower.h) and the static verifier pass pipeline runs
//          over it.
//   *.ir   a plan IR file in the Dump() text format (src/ir/plan_ir.h),
//          parsed and verified as-is. This is the seeded-bad corpus
//          format: examples/plans/bad/*.ir pin one TRAC-V diagnostic
//          each.
//
//   --dump-ir         print the lowered/parsed IR before the report
//   --absint          also run the abstract interpreter and the
//                     semantic rules TRAC-V006/V007 it feeds (the
//                     library gates always run them; the CLI default
//                     keeps the structural view separable)
//   --dump-absint     append the per-node fact table (implies
//                     --absint)
//   --json            machine-readable output: a JSON array with one
//                     object per input file (diagnostics, ok flag)
//   --golden <dir>    compare each file's text block against
//                     <dir>/<stem>.txt and fail (exit 1) on mismatch
//   --update          rewrite the golden files instead of comparing
//   --expect-findings invert the findings gate: every input must yield
//                     at least one diagnostic (the seeded-bad corpus
//                     mode; golden mismatches still fail)
//
// Exit status: 0 clean, 1 diagnostics/regressions, 2 usage or I/O
// errors (tools/common/cli_golden.h). Mirrors tools/trac_analyze.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "../common/cli_golden.h"
#include "absint/absint.h"
#include "common/str_util.h"
#include "core/relevance.h"
#include "exec/planner.h"
#include "exec/statement.h"
#include "expr/binder.h"
#include "storage/database.h"
#include "verify/verifier.h"

namespace {

namespace fs = std::filesystem;

using trac::cli::ReadFile;
using trac::cli::SplitStatements;
using trac::cli::StripSqlComments;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --schema <schema.sql> [--golden <dir>] [--update] "
               "[--dump-ir] [--absint] [--dump-absint] "
               "[--json] [--expect-findings] "
               "<file.sql|file.ir>...\n",
               argv0);
  return trac::cli::kExitUsage;
}

/// Lowers the report session a query would execute: the reporter's own
/// PlanReportSession, then LowerReportSessionPlans. The session id is a
/// stand-in (the corpus has no live session); the IR is what a profiled
/// or TRAC_DEBUG_INVARIANTS report lowers.
trac::Result<trac::PlanIr> LowerSqlFile(const trac::Database& db,
                                        const trac::BoundQuery& query) {
  TRAC_ASSIGN_OR_RETURN(trac::RecencyQueryPlan plan,
                        trac::GenerateRecencyQueries(db, query));
  const trac::Snapshot snapshot = db.LatestSnapshot();
  TRAC_ASSIGN_OR_RETURN(
      trac::ReportSession session,
      trac::PlanReportSession(db, query, plan, snapshot));
  trac::SessionLayout layout;
  return trac::LowerReportSessionPlans(db, query, plan, session, snapshot,
                                       trac::HeartbeatTable::kDefaultName,
                                       /*session_id=*/1, &layout);
}

std::string JsonForFile(const std::string& name, const trac::PlanIr& ir,
                        const trac::VerifyReport& report) {
  std::string out = "  {\"file\": " + trac::JsonEscape(name) +
                    ", \"label\": " + trac::JsonEscape(ir.label) +
                    ", \"nodes\": " + std::to_string(ir.nodes.size()) +
                    ", \"ok\": " + (report.ok() ? "true" : "false") +
                    ", \"diagnostics\": [";
  for (size_t i = 0; i < report.diagnostics.size(); ++i) {
    const trac::VerifyDiagnostic& d = report.diagnostics[i];
    if (i != 0) out += ", ";
    out += "{\"code\": " +
           trac::JsonEscape(trac::VerifyCodeId(d.code)) +
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
  bool dump_ir = false;
  bool absint = false;
  bool dump_absint = false;
  bool json = false;
  bool expect_findings = false;
  std::vector<std::string> input_files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--schema" && i + 1 < argc) {
      schema_path = argv[++i];
    } else if (arg == "--golden" && i + 1 < argc) {
      golden_dir = argv[++i];
    } else if (arg == "--update") {
      update = true;
    } else if (arg == "--dump-ir") {
      dump_ir = true;
    } else if (arg == "--absint") {
      absint = true;
    } else if (arg == "--dump-absint") {
      absint = true;
      dump_absint = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--expect-findings") {
      expect_findings = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      input_files.push_back(arg);
    }
  }
  if (input_files.empty()) return Usage(argv[0]);
  if (update && golden_dir.empty()) {
    std::fprintf(stderr, "trac_verify: --update requires --golden\n");
    return trac::cli::kExitUsage;
  }

  // Load the schema when given (required for .sql inputs; .ir files are
  // self-contained).
  trac::Database db;
  bool have_schema = false;
  if (!schema_path.empty()) {
    std::string schema_sql;
    if (!ReadFile(schema_path, &schema_sql)) {
      std::fprintf(stderr, "trac_verify: cannot read schema: %s\n",
                   schema_path.c_str());
      return 2;
    }
    for (const std::string& stmt :
         SplitStatements(StripSqlComments(schema_sql))) {
      auto result = trac::ExecuteStatement(&db, stmt);
      if (!result.ok()) {
        std::fprintf(stderr, "trac_verify: schema statement failed: %s\n",
                     result.status().ToString().c_str());
        return 2;
      }
    }
    have_schema = true;
  }

  int exit_code = 0;
  std::string json_out = "[\n";
  bool json_first = true;

  for (const std::string& input_file : input_files) {
    const fs::path ipath(input_file);
    const std::string name = ipath.filename().string();
    std::string text;
    if (!ReadFile(ipath, &text)) {
      std::fprintf(stderr, "trac_verify: cannot read input: %s\n",
                   input_file.c_str());
      return 2;
    }

    trac::PlanIr ir;
    if (ipath.extension() == ".ir") {
      auto parsed = trac::ParsePlanIr(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "trac_verify: %s: %s\n", input_file.c_str(),
                     parsed.status().ToString().c_str());
        return 2;
      }
      ir = std::move(*parsed);
    } else {
      if (!have_schema) {
        std::fprintf(stderr,
                     "trac_verify: %s: .sql inputs require --schema\n",
                     input_file.c_str());
        return 2;
      }
      const std::vector<std::string> stmts =
          SplitStatements(StripSqlComments(text));
      if (stmts.size() != 1) {
        std::fprintf(stderr,
                     "trac_verify: %s: expected exactly one statement, got "
                     "%zu\n",
                     input_file.c_str(), stmts.size());
        return 2;
      }
      auto bound = trac::BindSql(db, stmts[0]);
      if (!bound.ok()) {
        std::fprintf(stderr, "trac_verify: %s: bind failed: %s\n",
                     input_file.c_str(), bound.status().ToString().c_str());
        return 2;
      }
      auto lowered = LowerSqlFile(db, *bound);
      if (!lowered.ok()) {
        std::fprintf(stderr, "trac_verify: %s: lowering failed: %s\n",
                     input_file.c_str(), lowered.status().ToString().c_str());
        return 2;
      }
      ir = std::move(*lowered);
    }

    std::string block;
    trac::VerifyOptions verify_options;
    verify_options.absint = absint;
    const trac::VerifyReport report = trac::VerifyIr(ir, verify_options);
    if (expect_findings ? report.ok() : !report.ok()) {
      if (expect_findings) {
        std::printf("FAIL %s: expected findings, got a clean report\n",
                    name.c_str());
      }
      exit_code = trac::cli::kExitFindings;
    }

    if (dump_ir) block += ir.Dump();
    block += report.Format(ir);
    if (dump_absint) block += trac::absint::AnalyzeIr(ir).Dump(ir);

    if (json) {
      if (!json_first) json_out += ",\n";
      json_first = false;
      json_out += JsonForFile(name, ir, report);
    } else {
      std::printf("== %s\n%s", name.c_str(), block.c_str());
    }

    if (!golden_dir.empty() &&
        !trac::cli::GateGoldenDir("trac_verify", golden_dir, ipath, block,
                                  update, &exit_code)) {
      return trac::cli::kExitUsage;
    }
  }
  if (json) {
    json_out += "\n]\n";
    std::printf("%s", json_out.c_str());
  } else if (exit_code == 0) {
    std::printf("trac_verify: OK (%zu file%s)\n", input_files.size(),
                input_files.size() == 1 ? "" : "s");
  }
  return exit_code;
}

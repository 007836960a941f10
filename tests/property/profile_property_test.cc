// Property: over the checked-in examples/queries corpus, a profiled
// report session obeys the conservation laws the attach pass promises
// (telemetry/profile.h), at parallelism 1 AND 4:
//
//   * the annotated IR round-trips through Dump/ParsePlanIr byte-exactly
//     and re-analyzing it reproduces the session's drift findings;
//   * no clean-corpus session ever trips TRAC-P001 (an actual outside
//     the proven static interval would be a soundness bug);
//   * rows are conserved along the dataflow: a filter never exceeds its
//     input, the merge node carries exactly |A(Q)| with its annotated
//     inputs (the pre-merge task rows) summing to at least that, and
//     the report node carries exactly the user result's row count;
//   * under a fixed-step clock, the summed actual_ns never exceeds the
//     session's own phase timings.
//
// scripts/check.sh runs this binary under TSan as well: parallelism 4
// exercises the sharded heartbeat fan-out writing task profiles from
// worker threads.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/recency_reporter.h"
#include "core/session.h"
#include "exec/statement.h"
#include "ir/plan_ir.h"
#include "storage/database.h"
#include "telemetry/profile.h"
#include "telemetry/telemetry.h"

namespace trac {
namespace {

namespace fs = std::filesystem;

// Fixed-step fake clock: every read advances simulated time by 1ms.
// Atomic so the parallelism-4 runs stay exact (and TSan-clean).
std::atomic<int64_t> g_ticks{0};
int64_t FakeNowMicros() { return g_ticks.fetch_add(1000) + 1000; }

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Strips full-line `-- comments` and splits on ';' outside strings.
std::vector<std::string> SqlStatements(const std::string& text) {
  std::istringstream lines(text);
  std::string stripped;
  std::string line;
  while (std::getline(lines, line)) {
    const size_t b = line.find_first_not_of(" \t\r");
    if (b != std::string::npos && line.compare(b, 2, "--") == 0) continue;
    stripped += line;
    stripped += '\n';
  }
  std::vector<std::string> stmts;
  std::string current;
  bool in_string = false;
  for (char c : stripped) {
    if (c == '\'') in_string = !in_string;
    if (c == ';' && !in_string) {
      stmts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  stmts.push_back(current);
  std::vector<std::string> nonempty;
  for (std::string& s : stmts) {
    if (s.find_first_not_of(" \t\r\n") != std::string::npos) {
      nonempty.push_back(std::move(s));
    }
  }
  return nonempty;
}

class ProfilePropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The profiles/ schema: activity/routing/config plus a 131-row
    // heartbeat registry, big enough that parallelism 4 plans a real
    // sharded heartbeat scan (and its per-shard task profiles).
    const fs::path schema =
        fs::path(TRAC_EXAMPLES_DIR) / "profiles" / "schema.sql";
    for (const std::string& stmt : SqlStatements(ReadFileOrDie(schema))) {
      auto result = ExecuteStatement(&db_, stmt);
      ASSERT_TRUE(result.ok()) << result.status() << "\n" << stmt;
    }
    const fs::path dir = fs::path(TRAC_EXAMPLES_DIR) / "queries";
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".sql" &&
          entry.path().filename().string()[0] == 'q') {
        const std::vector<std::string> stmts =
            SqlStatements(ReadFileOrDie(entry.path()));
        ASSERT_EQ(stmts.size(), 1u) << entry.path();
        queries_.push_back(stmts[0]);
      }
    }
    std::sort(queries_.begin(), queries_.end());
    ASSERT_GE(queries_.size(), 5u) << "corpus went missing?";
  }

  RecencyReport MustRun(RecencyReporter* reporter, const std::string& sql,
                        size_t parallelism, const Telemetry* telemetry) {
    RecencyReportOptions options;
    options.create_temp_tables = false;
    options.relevance.parallelism = parallelism;
    options.telemetry = telemetry;
    options.profile = true;
    auto report = reporter->Run(sql, options);
    EXPECT_TRUE(report.ok()) << report.status().ToString() << "\n" << sql;
    return report.ok() ? *report : RecencyReport{};
  }

  /// Checks every per-session law over one profiled report; returns the
  /// parsed annotated IR for cross-parallelism comparisons.
  PlanIr CheckSessionLaws(const RecencyReport& report, size_t parallelism,
                          const std::string& sql) {
    const std::string tag = sql + " @ par " + std::to_string(parallelism);
    EXPECT_FALSE(report.profiled_ir.empty()) << tag;
    EXPECT_GE(report.profiled_nodes, 1u) << tag;

    // Byte-exact round trip: a profiled session is a corpus artifact.
    auto parsed = ParsePlanIr(report.profiled_ir);
    EXPECT_TRUE(parsed.ok()) << tag << "\n" << report.profiled_ir;
    if (!parsed.ok()) return PlanIr{};
    EXPECT_EQ(parsed->Dump(), report.profiled_ir) << tag;

    // No clean-corpus session may trip the soundness rule.
    for (const ProfileDiagnostic& d : AnalyzeProfileDrift(*parsed)) {
      EXPECT_NE(d.code, ProfileCode::kActualOutsideStaticBounds)
          << tag << ": " << d.Format();
    }

    uint64_t annotated = 0;
    int64_t total_ns = 0;
    for (const IrNode& node : parsed->nodes) {
      if (node.has_actual_rows) ++annotated;
      if (node.has_actual_ns) {
        EXPECT_GE(node.actual_ns, 0) << tag << " node " << node.id;
        total_ns += node.actual_ns;
      }
      switch (node.kind) {
        case IrNodeKind::kFilter:
          // Row conservation along an edge: a filter only drops rows.
          if (node.has_actual_rows && !node.inputs.empty()) {
            const IrNode& in = parsed->nodes[node.inputs[0]];
            if (in.has_actual_rows) {
              EXPECT_LE(node.actual_rows, in.actual_rows)
                  << tag << " filter node " << node.id;
            }
          }
          break;
        case IrNodeKind::kMerge: {
          // The merge emits exactly the distinct relevant sources, and
          // its annotated inputs (per-task pre-merge rows; a
          // guard-suppressed part stays bare and contributed nothing)
          // must sum to at least that.
          EXPECT_TRUE(node.has_actual_rows) << tag;
          if (!node.has_actual_rows) break;
          EXPECT_EQ(node.actual_rows, report.relevance.sources.size()) << tag;
          uint64_t premerge = 0;
          for (size_t in_id : node.inputs) {
            const IrNode& in = parsed->nodes[in_id];
            if (in.has_actual_rows) premerge += in.actual_rows;
          }
          EXPECT_GE(premerge, node.actual_rows) << tag;
          break;
        }
        case IrNodeKind::kReport:
          // The report node carries the user result's cardinality — the
          // same first-input strand absint takes its static bound from.
          EXPECT_TRUE(node.has_actual_rows) << tag;
          if (node.has_actual_rows) {
            EXPECT_EQ(node.actual_rows, report.result.rows.size()) << tag;
          }
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(annotated, report.profiled_nodes) << tag;

    // Under the fixed-step clock every annotated ns value derives from
    // the same tick stream the phase timings read, so the per-operator
    // sum can never exceed the session's own phase budget (busy, not
    // wall, bounds the parallel task strands).
    const int64_t budget_ns =
        (report.parse_generate_micros + report.user_query_micros +
         report.relevance_busy_micros + report.relevance_exec_micros +
         report.stats_micros) *
        1000;
    EXPECT_LE(total_ns, budget_ns) << tag;
    return std::move(*parsed);
  }

  Database db_;
  std::vector<std::string> queries_;
};

TEST_F(ProfilePropertyTest, ConservationLawsHoldAtBothParallelismLevels) {
  RecencyReporter reporter(&db_, nullptr);
  MetricRegistry metrics;
  Tracer tracer;
  FlightRecorder recorder;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.tracer = &tracer;
  telemetry.clock = &FakeNowMicros;
  telemetry.recorder = &recorder;

  for (const std::string& sql : queries_) {
    const RecencyReport serial = MustRun(&reporter, sql, 1, &telemetry);
    const RecencyReport fanned = MustRun(&reporter, sql, 4, &telemetry);
    const PlanIr ir1 = CheckSessionLaws(serial, 1, sql);
    const PlanIr ir4 = CheckSessionLaws(fanned, 4, sql);

    // The shard decomposition must not change what was observed: both
    // levels agree on the relevant set and the user result cardinality.
    ASSERT_EQ(serial.relevance.sources, fanned.relevance.sources) << sql;
    EXPECT_EQ(serial.result.rows.size(), fanned.result.rows.size()) << sql;
    // The par-4 lowering has at least as many profile surfaces (shard
    // scans) as the serial one.
    EXPECT_GE(fanned.profiled_nodes, 1u) << sql;
    EXPECT_GE(ir4.nodes.size(), ir1.nodes.size()) << sql;
  }

  // Every session landed in the flight recorder; the ring retains the
  // newest K and each retained record is a self-contained artifact.
  const uint64_t expected = static_cast<uint64_t>(2 * queries_.size());
  EXPECT_EQ(recorder.total_recorded(), expected);
  const std::vector<SessionProfileRecord> entries = recorder.Entries();
  EXPECT_EQ(entries.size(),
            std::min<uint64_t>(expected, FlightRecorder::kDefaultCapacity));
  for (const SessionProfileRecord& rec : entries) {
    auto parsed = ParsePlanIr(rec.profiled_ir);
    EXPECT_TRUE(parsed.ok());
    EXPECT_GE(rec.annotated_nodes, 1u);
    if (!parsed.ok()) continue;
    for (const ProfileDiagnostic& d : AnalyzeProfileDrift(*parsed)) {
      EXPECT_NE(d.code, ProfileCode::kActualOutsideStaticBounds)
          << d.Format();
    }
  }
}

// Profiling is opt-in and only observes: with it on and off, at
// parallelism 1 and 4, a report says the same thing, and only the
// profiled run leaves an IR or a flight-recorder entry. Default options
// profile nothing.
TEST_F(ProfilePropertyTest, DisablingProfilingLeavesNoTrace) {
  RecencyReporter reporter(&db_, nullptr);
  MetricRegistry metrics;
  Tracer tracer;
  FlightRecorder recorder;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.tracer = &tracer;
  telemetry.clock = &FakeNowMicros;
  telemetry.recorder = &recorder;
  uint64_t profiled = 0;
  for (const std::string& sql : queries_) {
    for (const size_t parallelism : {size_t{1}, size_t{4}}) {
      const std::string tag = sql + " @ par " + std::to_string(parallelism);
      const RecencyReport on = MustRun(&reporter, sql, parallelism, &telemetry);
      ++profiled;
      RecencyReportOptions options;
      options.create_temp_tables = false;
      options.relevance.parallelism = parallelism;
      options.telemetry = &telemetry;
      options.profile = false;
      auto off = reporter.Run(sql, options);
      ASSERT_TRUE(off.ok()) << off.status().ToString() << "\n" << tag;
      EXPECT_FALSE(on.profiled_ir.empty()) << tag;
      EXPECT_TRUE(off->profiled_ir.empty()) << tag;
      EXPECT_EQ(off->profiled_nodes, 0u) << tag;
      EXPECT_EQ(recorder.total_recorded(), profiled) << tag;
      EXPECT_EQ(off->FormatNotices(), on.FormatNotices()) << tag;
      EXPECT_EQ(off->result.rows, on.result.rows) << tag;
      EXPECT_EQ(off->relevance.sources, on.relevance.sources) << tag;
    }
  }

  // A default-constructed RecencyReportOptions (temp tables on, process
  // telemetry) records into neither recorder.
  Session session(&db_);
  RecencyReporter with_session(&db_, &session);
  const uint64_t default_recorded = FlightRecorder::Default().total_recorded();
  for (const std::string& sql : queries_) {
    auto report = with_session.Run(sql, RecencyReportOptions());
    ASSERT_TRUE(report.ok()) << report.status().ToString() << "\n" << sql;
    EXPECT_TRUE(report->profiled_ir.empty()) << sql;
    EXPECT_EQ(report->profiled_nodes, 0u) << sql;
  }
  EXPECT_EQ(FlightRecorder::Default().total_recorded(), default_recorded);
  EXPECT_EQ(recorder.total_recorded(), profiled);
}

}  // namespace
}  // namespace trac

// Property: every plan the planner produces for the examples/queries/
// corpus — the user plan, every generated recency part with its guards,
// and the shard fan-out of a parallel executor — lowers to a plan IR
// that the static verifier accepts with zero findings, under both
// serial planning and parallelism > 1. The corpus files are the same
// ones tools/trac_verify lints in CI; the session comes from the
// reporter's own PlanReportSession and LowerReportSessionPlans, so this
// sees exactly the IR a TRAC_DEBUG_INVARIANTS report verifies.
//
// Subsumption: trac_verify and the debug report check a session's plans
// inside the session IR. That loses no check: whatever VerifyIr finds
// on a plan lowered alone, it also finds on that plan's subgraph of the
// session, on the clean corpus and on plans mutated to fail alone.

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/relevance.h"
#include "exec/planner.h"
#include "exec/statement.h"
#include "expr/binder.h"
#include "ir/lower.h"
#include "storage/database.h"
#include "verify/verifier.h"

namespace trac {
namespace {

namespace fs = std::filesystem;

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

class VerifyPropertyTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    const fs::path schema =
        fs::path(TRAC_EXAMPLES_DIR) / "plans" / "schema.sql";
    for (const std::string& stmt : SqlStatements(ReadFileOrDie(schema))) {
      auto result = ExecuteStatement(&db_, stmt);
      ASSERT_TRUE(result.ok()) << result.status() << "\n" << stmt;
    }
  }

  std::vector<fs::path> CorpusQueries() {
    std::vector<fs::path> out;
    const fs::path dir = fs::path(TRAC_EXAMPLES_DIR) / "queries";
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      if (p.extension() == ".sql" && p.filename().string()[0] == 'q') {
        out.push_back(p);
      }
    }
    std::sort(out.begin(), out.end());
    EXPECT_GE(out.size(), 5u) << "corpus went missing?";
    return out;
  }

  Database db_;
};

TEST_P(VerifyPropertyTest, EveryPlannedCorpusQueryVerifiesClean) {
  const size_t parallelism = GetParam();
  for (const fs::path& qpath : CorpusQueries()) {
    SCOPED_TRACE(qpath.filename().string());
    const std::vector<std::string> stmts =
        SqlStatements(ReadFileOrDie(qpath));
    ASSERT_EQ(stmts.size(), 1u);
    auto query = BindSql(db_, stmts[0]);
    ASSERT_TRUE(query.ok()) << query.status();

    auto plan = GenerateRecencyQueries(db_, *query);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const Snapshot snapshot = db_.LatestSnapshot();
    auto session =
        PlanReportSession(db_, *query, *plan, snapshot, parallelism);
    ASSERT_TRUE(session.ok()) << session.status();
    SessionLayout layout;
    const PlanIr ir = LowerReportSessionPlans(
        db_, *query, *plan, *session, snapshot, HeartbeatTable::kDefaultName,
        /*session_id=*/1, &layout);
    const VerifyReport report = VerifyIr(ir);
    EXPECT_TRUE(report.ok()) << report.Format(ir) << "\n" << ir.Dump();
  }
}

/// Random SELECTs over the plans schema: one relation or an
/// activity/routing join (sometimes without a join predicate, which
/// gives the recency parts EXISTS guards), a conjunction of up to three
/// atoms (an atom is sometimes a disjunction), and sometimes COUNT(*).
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::vector<std::string> atoms;
    std::string sql;
    switch (rng_.Uniform(4)) {
      case 0:
      case 1: {
        const bool activity = rng_.Uniform(2) == 0;
        sql = Head("mach_id") + (activity ? "activity" : "routing");
        const std::string third = activity ? "value = " + Value()
                                           : "neighbor = " + Machine();
        for (size_t i = 0, n = 1 + rng_.Uniform(3); i < n; ++i) {
          atoms.push_back(Pick({"mach_id = " + Machine(), third,
                                "event_time >= " + Time()}));
        }
        break;
      }
      case 2:
        sql = Head("a.value") + "activity a, routing r";
        if (rng_.Uniform(4) != 0) {
          atoms.push_back(Pick({"a.mach_id = r.mach_id",
                                "r.neighbor = a.mach_id"}));
        }
        for (size_t i = 0, n = 1 + rng_.Uniform(2); i < n; ++i) {
          atoms.push_back(Pick({"r.neighbor = " + Machine(),
                                "a.value = " + Value(),
                                "a.mach_id = " + Machine()}));
        }
        break;
      default:
        sql = Head("setting") + "config";
        atoms.push_back("name = 'n" + std::to_string(rng_.Uniform(3)) + "'");
        break;
    }
    for (size_t i = 0; i < atoms.size(); ++i) {
      sql += (i == 0 ? " WHERE " : " AND ") + atoms[i];
    }
    return sql;
  }

 private:
  std::string Head(const std::string& column) {
    return "SELECT " + (rng_.Uniform(5) == 0 ? "COUNT(*)" : column) +
           " FROM ";
  }
  std::string Machine() {
    return "'m00" + std::to_string(rng_.Uniform(10)) + "'";
  }
  std::string Value() { return rng_.Uniform(2) == 0 ? "'idle'" : "'busy'"; }
  std::string Time() {
    return "'2006-03-1" + std::to_string(rng_.Uniform(10)) + " 00:00:00'";
  }
  std::string Pick(std::vector<std::string> choices) {
    std::string atom = choices[rng_.Uniform(choices.size())];
    if (rng_.Uniform(4) == 0) {
      atom = "(" + atom + " OR " + choices[rng_.Uniform(choices.size())] + ")";
    }
    return atom;
  }

  Random rng_;
};

/// One planned query of a session: the user query (`part` == kNone), a
/// part's main query (`guard` == kNone) or one of the part's guards.
struct PlanSlot {
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t part = kNone;
  size_t guard = kNone;
};

std::vector<PlanSlot> PlannedQueries(const ReportSession& session) {
  std::vector<PlanSlot> slots = {PlanSlot()};
  for (size_t i = 0; i < session.parts.size(); ++i) {
    if (session.parts[i].shards > 0) continue;
    slots.push_back(PlanSlot{i, PlanSlot::kNone});
    for (size_t g = 0; g < session.parts[i].guards.size(); ++g) {
      slots.push_back(PlanSlot{i, g});
    }
  }
  return slots;
}

const BoundQuery& QueryOf(PlanSlot slot, const BoundQuery& user,
                          const RecencyQueryPlan& plan) {
  if (slot.part == PlanSlot::kNone) return user;
  const RecencyQueryPlan::Part& part = plan.parts[slot.part];
  return slot.guard == PlanSlot::kNone ? part.query : part.guards[slot.guard];
}

QueryPlan& PlanOf(PlanSlot slot, ReportSession* session) {
  if (slot.part == PlanSlot::kNone) return session->user_plan;
  PlannedPart& part = session->parts[slot.part];
  return slot.guard == PlanSlot::kNone ? part.main : part.guards[slot.guard];
}

SessionLayout::QueryRange RangeOf(PlanSlot slot, const SessionLayout& layout) {
  if (slot.part == PlanSlot::kNone) return layout.user;
  const SessionLayout::Part& part = layout.parts[slot.part];
  return slot.guard == PlanSlot::kNone ? part.main : part.guards[slot.guard];
}

/// (code, node id relative to the subgraph's first node) of every
/// finding in `report` anchored in [begin, end).
std::set<std::pair<std::string, size_t>> FindingsIn(const VerifyReport& report,
                                                    size_t begin, size_t end) {
  std::set<std::pair<std::string, size_t>> out;
  for (const VerifyDiagnostic& d : report.diagnostics) {
    if (d.node >= begin && d.node < end) {
      out.insert({std::string(VerifyCodeId(d.code)), d.node - begin});
    }
  }
  return out;
}

/// True when `query` joins the Heartbeat registry with another relation.
bool JoinsRegistry(const Database& db, const BoundQuery& query) {
  if (query.relations.size() < 2) return false;
  for (const BoundTableRef& rel : query.relations) {
    if (db.catalog().schema(rel.table_id).name() ==
        HeartbeatTable::kDefaultName) {
      return true;
    }
  }
  return false;
}

/// Expects every finding VerifyIr makes on a plan of `session` lowered
/// alone, with the session's heartbeat table and by VerifyPlan's own
/// lowering, at the same node of that plan's subgraph in the session
/// IR. Returns how many plans failed alone.
///
/// One gap is allowed, and only for VerifyPlan's lowering: it names no
/// Heartbeat table, so the registry's source_id carries no provenance
/// there and a join with the registry does not widen the provenance
/// set. A conjunct set re-applied after that join is then a TRAC-V007
/// alone, while the session, which knows the registry, sees the join
/// widen the set and stays silent. The planner never re-applies a
/// conjunct set, and TRAC_DEBUG_INVARIANTS builds still run VerifyPlan
/// on every executed plan.
size_t ExpectLoneFindingsInSession(const Database& db, const BoundQuery& user,
                                   const RecencyQueryPlan& plan,
                                   ReportSession* session, Snapshot snapshot) {
  SessionLayout layout;
  const PlanIr session_ir = LowerReportSessionPlans(
      db, user, plan, *session, snapshot, HeartbeatTable::kDefaultName,
      /*session_id=*/1, &layout);
  const VerifyReport in_session = VerifyIr(session_ir);
  LowerOptions with_registry;
  with_registry.heartbeat_table = std::string(HeartbeatTable::kDefaultName);
  size_t failed_alone = 0;
  for (const PlanSlot slot : PlannedQueries(*session)) {
    SCOPED_TRACE("part " + std::to_string(slot.part) + " guard " +
                 std::to_string(slot.guard));
    const SessionLayout::QueryRange range = RangeOf(slot, layout);
    const auto session_findings =
        FindingsIn(in_session, range.begin, range.end);
    bool failed = false;
    for (const LowerOptions& options : {LowerOptions(), with_registry}) {
      SCOPED_TRACE("heartbeat table '" + options.heartbeat_table + "'");
      const PlanIr lone = LowerQueryPlan(db, QueryOf(slot, user, plan),
                                         PlanOf(slot, session), snapshot,
                                         options);
      EXPECT_EQ(lone.nodes.size(), range.end - range.begin);
      const VerifyReport alone = VerifyIr(lone);
      failed = failed || !alone.ok();
      for (const auto& finding : FindingsIn(alone, 0, lone.nodes.size())) {
        if (session_findings.count(finding) > 0) continue;
        const bool registry_gap =
            options.heartbeat_table.empty() && finding.first == "TRAC-V007" &&
            JoinsRegistry(db, QueryOf(slot, user, plan));
        EXPECT_TRUE(registry_gap)
            << finding.first << " at node " << finding.second
            << " alone, not in the session:\n"
            << alone.Format(lone) << in_session.Format(session_ir);
      }
    }
    failed_alone += failed ? 1 : 0;
  }
  return failed_alone;
}

TEST_P(VerifyPropertyTest, SessionSubsumesEveryLonePlanFinding) {
  const size_t parallelism = GetParam();
  std::vector<std::string> corpus;
  for (const fs::path& qpath : CorpusQueries()) {
    corpus.push_back(SqlStatements(ReadFileOrDie(qpath)).at(0));
  }
  QueryGenerator gen(/*seed=*/17);
  for (int i = 0; i < 60; ++i) corpus.push_back(gen.Generate());

  const Snapshot snapshot = db_.LatestSnapshot();
  size_t mutated_failing = 0;
  for (const std::string& sql : corpus) {
    SCOPED_TRACE(sql);
    auto query = BindSql(db_, sql);
    ASSERT_TRUE(query.ok()) << query.status();
    auto plan = GenerateRecencyQueries(db_, *query);
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto session =
        PlanReportSession(db_, *query, *plan, snapshot, parallelism);
    ASSERT_TRUE(session.ok()) << session.status();
    // The clean plans pass alone and in their session.
    EXPECT_EQ(
        ExpectLoneFindingsInSession(db_, *query, *plan, &*session, snapshot),
        0u);

    // Mutation: re-apply a level's exact conjunct set as the constant
    // filter, a TRAC-V007 redundant filter when nothing widened the
    // provenance in between. Lower the mutated plan into the session
    // and compare.
    for (const PlanSlot slot : PlannedQueries(*session)) {
      for (const LevelPlan& level : PlanOf(slot, &*session).levels) {
        if (level.local_preds.empty()) continue;
        ReportSession mutated = *session;
        PlanOf(slot, &mutated).constant_preds = level.local_preds;
        mutated_failing += ExpectLoneFindingsInSession(db_, *query, *plan,
                                                       &mutated, snapshot);
      }
    }
  }
  // The mutations did make lone plans fail, so the check had teeth.
  EXPECT_GT(mutated_failing, 10u);
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, VerifyPropertyTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace trac

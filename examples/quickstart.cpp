// Quickstart: the paper's Section 5.1 session, end to end.
//
// Builds the sample Activity (Table 1) and Routing (Table 2) relations
// plus a Heartbeat table where source m2 is a month stale, then runs the
// "which machines reported idle?" query through the recency reporter —
// the library equivalent of the prototype's recencyReport() PostgreSQL
// table function — and finally queries the session temp tables the
// report left behind.

#include <cstdio>
#include <string>

#include "core/recency_reporter.h"
#include "exec/executor.h"
#include "expr/binder.h"

namespace {

trac::Timestamp Ts(const char* text) {
  auto r = trac::Timestamp::Parse(text);
  if (!r.ok()) {
    std::fprintf(stderr, "bad timestamp %s: %s\n", text,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return *r;
}

void Check(const trac::Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  using trac::ColumnDef;
  using trac::TypeId;
  using trac::Value;

  trac::Database db;

  // -- Table 1: Activity(mach_id, value, event_time), data source column
  // mach_id (the machine that reported the activity).
  {
    trac::TableSchema schema(
        "activity", {ColumnDef("mach_id", TypeId::kString),
                     ColumnDef("value", TypeId::kString),
                     ColumnDef("event_time", TypeId::kTimestamp)});
    Check(schema.SetDataSourceColumn("mach_id"));
    Check(db.CreateTable(std::move(schema)).status());
    Check(db.Insert("activity", {Value::Str("m1"), Value::Str("idle"),
                                 Value::Ts(Ts("2006-03-11 20:37:46"))}));
    Check(db.Insert("activity", {Value::Str("m2"), Value::Str("busy"),
                                 Value::Ts(Ts("2006-02-10 18:22:01"))}));
    Check(db.Insert("activity", {Value::Str("m3"), Value::Str("idle"),
                                 Value::Ts(Ts("2006-03-12 10:23:05"))}));
    Check(db.CreateIndex("activity", "mach_id"));
  }

  // -- Table 2: Routing(mach_id, neighbor, event_time).
  {
    trac::TableSchema schema(
        "routing", {ColumnDef("mach_id", TypeId::kString),
                    ColumnDef("neighbor", TypeId::kString),
                    ColumnDef("event_time", TypeId::kTimestamp)});
    Check(schema.SetDataSourceColumn("mach_id"));
    Check(db.CreateTable(std::move(schema)).status());
    Check(db.Insert("routing", {Value::Str("m1"), Value::Str("m3"),
                                Value::Ts(Ts("2006-03-12 23:20:06"))}));
    Check(db.Insert("routing", {Value::Str("m2"), Value::Str("m3"),
                                Value::Ts(Ts("2006-02-10 03:34:21"))}));
    Check(db.CreateIndex("routing", "mach_id"));
  }

  // -- Heartbeat: 11 sources; m2 suffered a "hard network disconnect" a
  // month ago, everyone else reported within the last ~30 minutes.
  auto hb = trac::HeartbeatTable::Create(&db);
  Check(hb.status());
  Check(hb->SetRecency("m1", Ts("2006-03-15 14:20:05")));
  Check(hb->SetRecency("m2", Ts("2006-02-12 17:23:00")));
  Check(hb->SetRecency("m3", Ts("2006-03-15 14:40:05")));
  for (int i = 4; i <= 11; ++i) {
    Check(hb->SetRecency("m" + std::to_string(i),
                         Ts("2006-03-15 14:20:05") +
                             (i - 3) * trac::Timestamp::kMicrosPerMinute));
  }

  // -- The user query, with recency and consistency reporting.
  trac::Session session(&db);
  trac::RecencyReporter reporter(&db, &session);
  const char* user_sql =
      "SELECT mach_id, value FROM Activity A WHERE value = 'idle'";
  std::printf("mydb=# SELECT * FROM recencyReport($$\n    %s$$);\n\n",
              user_sql);

  auto report = reporter.Run(user_sql);
  Check(report.status());

  std::printf("%s\n", report->FormatNotices().c_str());
  std::printf("%s\n", report->result.ToString().c_str());

  // -- Inspect the temp tables exactly as the transcript does.
  std::printf("-- query the exceptional relevant data sources\n");
  std::printf("mydb=# SELECT * FROM %s;\n",
              report->exceptional_temp_table.c_str());
  auto exceptional =
      trac::ExecuteSql(db, "SELECT * FROM " + report->exceptional_temp_table);
  Check(exceptional.status());
  std::printf("%s\n", exceptional->ToString().c_str());

  std::printf("-- query the \"normal\" relevant data sources\n");
  std::printf("mydb=# SELECT * FROM %s;\n",
              report->normal_temp_table.c_str());
  auto normal =
      trac::ExecuteSql(db, "SELECT * FROM " + report->normal_temp_table);
  Check(normal.status());
  std::printf("%s\n", normal->ToString().c_str());

  // -- What the analyzer generated under the hood, rendered as SQL.
  auto bound = trac::BindSql(db, user_sql);
  Check(bound.status());
  auto plan = trac::GenerateRecencyQueries(db, *bound);
  Check(plan.status());
  std::printf("-- generated recency quer%s:\n",
              plan->parts.size() == 1 ? "y" : "ies");
  for (const auto& part : plan->parts) {
    std::printf("--   %s\n", trac::RecencyPartSql(db, part).c_str());
  }
  std::printf("-- minimality guaranteed: %s\n",
              report->relevance.minimal ? "yes" : "no (upper bound)");
  return 0;
}

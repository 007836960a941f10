// An interactive SQL shell over the embedded engine — the client-tooling
// face of the library. Besides plain DDL/DML/SELECT it exposes the
// paper's reporter the way the prototype did through PostgreSQL:
//
//   trac> CREATE TABLE activity (mach_id TEXT DATA SOURCE, value TEXT);
//   trac> INSERT INTO activity VALUES ('m1', 'idle');
//   trac> \recency on
//   trac> SELECT mach_id FROM activity WHERE value = 'idle';
//   ... rows + NOTICE block with relevant sources / bound of inconsistency
//
// Meta commands:
//   \recency on|off    attach a recency report to every SELECT
//   \tables            list tables
//   \plan <select>     show the generated recency queries for a SELECT
//   \save <path>       checkpoint the database to a file
//   \open <path>       replace the session database with a checkpoint
//   \help              this text
//   \quit              exit
//
// Reads statements from stdin (also usable non-interactively:
//   ./trac_shell < script.sql).

#include <cstdio>
#include <memory>
#include <iostream>
#include <sstream>
#include <string>

#include "core/recency_reporter.h"
#include "exec/statement.h"
#include "expr/binder.h"
#include "storage/persist.h"

namespace {

void PrintHelp() {
  std::printf(
      "statements: CREATE TABLE / CREATE INDEX / DROP TABLE / INSERT / "
      "UPDATE / DELETE / SELECT\n"
      "meta: \\recency on|off, \\tables, \\plan <select>, "
      "\\save <path>, \\open <path>, \\help, \\quit\n");
}

}  // namespace

int main() {
  auto db_ptr = std::make_unique<trac::Database>();
  auto session = std::make_unique<trac::Session>(db_ptr.get());
  auto reporter =
      std::make_unique<trac::RecencyReporter>(db_ptr.get(), session.get());
  bool recency_on = false;

  // The reporter needs a heartbeat table; create it eagerly so users
  // can INSERT INTO heartbeat directly.
  auto hb = trac::HeartbeatTable::Create(db_ptr.get());
  if (!hb.ok()) {
    std::fprintf(stderr, "%s\n", hb.status().ToString().c_str());
    return 1;
  }

  std::printf("trac shell — embedded TRAC database. \\help for help.\n");
  std::string buffer;
  std::string line;
  while (true) {
    std::printf(buffer.empty() ? "trac> " : "  ... ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;

    // Meta commands act on a whole line.
    if (buffer.empty() && !line.empty() && line[0] == '\\') {
      std::istringstream in(line);
      std::string cmd, arg;
      in >> cmd;
      std::getline(in, arg);
      while (!arg.empty() && arg.front() == ' ') arg.erase(arg.begin());
      if (cmd == "\\quit" || cmd == "\\q") break;
      if (cmd == "\\help") {
        PrintHelp();
      } else if (cmd == "\\tables") {
        for (const std::string& name : db_ptr->catalog().TableNames()) {
          std::printf("%s\n", name.c_str());
        }
      } else if (cmd == "\\recency") {
        recency_on = (arg == "on");
        std::printf("recency reporting %s\n", recency_on ? "on" : "off");
      } else if (cmd == "\\plan") {
        auto bound = trac::BindSql(*db_ptr, arg);
        if (!bound.ok()) {
          std::printf("error: %s\n", bound.status().ToString().c_str());
          continue;
        }
        auto plan = trac::GenerateRecencyQueries(*db_ptr, *bound);
        if (!plan.ok()) {
          std::printf("error: %s\n", plan.status().ToString().c_str());
          continue;
        }
        for (const auto& part : plan->parts) {
          std::printf("recency query (via %s, %s): %s\n",
                      bound->relations[part.via_relation].display_name.c_str(),
                      part.minimal ? "minimum" : "upper bound",
                      trac::RecencyPartSql(*db_ptr, part).c_str());
        }
        std::printf("%s", plan->analysis.Format().c_str());
      } else if (cmd == "\\save") {
        trac::Status s = trac::SaveDatabase(*db_ptr, arg);
        std::printf("%s\n", s.ok() ? "saved" : s.ToString().c_str());
      } else if (cmd == "\\open") {
        auto fresh = std::make_unique<trac::Database>();
        trac::Status s = trac::LoadDatabase(fresh.get(), arg);
        if (!s.ok()) {
          std::printf("%s\n", s.ToString().c_str());
        } else {
          // The session (and its temp tables) belongs to the old
          // database; tear everything down in dependency order.
          reporter.reset();
          session.reset();
          db_ptr = std::move(fresh);
          session = std::make_unique<trac::Session>(db_ptr.get());
          reporter = std::make_unique<trac::RecencyReporter>(db_ptr.get(),
                                                             session.get());
          std::printf("opened %s\n", arg.c_str());
        }
      } else {
        std::printf("unknown meta command; \\help for help\n");
      }
      continue;
    }

    // Accumulate until a statement-terminating ';'.
    buffer += line;
    buffer += ' ';
    if (line.find(';') == std::string::npos) continue;
    std::string sql;
    sql.swap(buffer);

    // SELECT with recency reporting goes through the reporter; anything
    // else through the statement API.
    bool is_select = sql.find_first_not_of(" \t") != std::string::npos &&
                     (sql[sql.find_first_not_of(" \t")] == 's' ||
                      sql[sql.find_first_not_of(" \t")] == 'S');
    if (recency_on && is_select) {
      auto report = reporter->Run(sql);
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
        continue;
      }
      std::printf("%s", report->FormatNotices().c_str());
      std::printf("%s(%zu rows)\n\n", report->result.ToString().c_str(),
                  report->result.num_rows());
      continue;
    }

    auto result = trac::ExecuteStatement(db_ptr.get(), sql);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    if (result->kind == trac::StatementResult::Kind::kSelect) {
      std::printf("%s(%zu rows)\n\n", result->result.ToString().c_str(),
                  result->result.num_rows());
    } else {
      std::printf("%s\n", result->message.c_str());
    }
  }
  std::printf("\n");
  return 0;
}

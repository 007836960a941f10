// Cost-based rewriter cost/benefit (src/opt): the same aggregate range
// query planned and executed with the optimizer on and off. Three
// quantities matter:
//
//   - plan_us with the optimizer on vs off: what the rewrite pipeline
//     (table statistics + candidate generation + costing per attempt)
//     costs at planning time;
//   - exec_us with the optimizer on vs off: what the applied
//     convert-to-range-scan rewrite buys at execution time (an ordered
//     index walk over the selected fraction instead of a full scan);
//   - correctness is free: both configurations must return the same
//     count, asserted every iteration.
//
// The selectivity sweep (1%, 10%, 50%) shows where the crossover lives:
// the narrower the range, the more the rewrite pays.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "exec/executor.h"
#include "exec/planner.h"
#include "exec/statement.h"
#include "opt/rewrite.h"
#include "storage/database.h"

namespace trac {
namespace bench {
namespace {

/// One shared instance: `rows` activity rows with an indexed value
/// column whose suffix ordering makes range selectivity exact.
struct OptimizerEnv {
  static OptimizerEnv& Get() {
    static auto* env = new OptimizerEnv();
    return *env;
  }

  OptimizerEnv() {
    rows = TotalRows();
    auto exec = [&](const std::string& sql) {
      auto result = ExecuteStatement(&db, sql);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        std::abort();
      }
    };
    exec("CREATE TABLE activity (mach_id TEXT DATA SOURCE, value TEXT, "
         "event_time TIMESTAMP)");
    exec("CREATE INDEX ON activity (value)");
    std::string insert;
    for (size_t i = 0; i < rows; ++i) {
      if (insert.empty()) insert = "INSERT INTO activity VALUES ";
      char key[16];
      std::snprintf(key, sizeof key, "v%08zu", i);
      insert += "('m" + std::to_string(i % 64) + "', '" + key +
                "', '2006-03-15 14:00:00'),";
      if (insert.size() > 60000 || i + 1 == rows) {
        insert.back() = ' ';
        exec(insert);
        insert.clear();
      }
    }
  }

  /// COUNT(*) over the top `percent`% of the indexed value ordering.
  std::string Query(size_t percent) const {
    const size_t cutoff = rows - rows * percent / 100;
    char key[16];
    std::snprintf(key, sizeof key, "v%08zu", cutoff);
    return "SELECT COUNT(*) FROM activity WHERE value >= '" +
           std::string(key) + "'";
  }

  Database db;
  size_t rows = 0;
};

void RunOne(benchmark::State& state, size_t percent, bool optimize) {
  OptimizerEnv& env = OptimizerEnv::Get();
  auto query = BindSql(env.db, env.Query(percent));
  if (!query.ok()) {
    state.SkipWithError(query.status().ToString().c_str());
    return;
  }
  const Snapshot snap = env.db.LatestSnapshot();
  const int64_t want =
      static_cast<int64_t>(env.rows * percent / 100);

  opt::SetOptimizerEnabled(optimize);
  int64_t plan_total = 0, exec_total = 0;
  size_t n = 0;
  for (auto _ : state) {
    const int64_t t0 = NowMicros();
    auto plan = PlanQuery(env.db, *query, snap);
    const int64_t t1 = NowMicros();
    if (!plan.ok()) {
      state.SkipWithError(plan.status().ToString().c_str());
      break;
    }
    auto result = ExecuteQuery(env.db, *query, snap);
    const int64_t t2 = NowMicros();
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    if (result->count() != want) {
      state.SkipWithError("optimizer changed the answer");
      break;
    }
    benchmark::DoNotOptimize(result->rows);
    plan_total += t1 - t0;
    exec_total += t2 - t1;
    ++n;
  }
  opt::SetOptimizerEnabled(true);

  const double plan_us = n > 0 ? static_cast<double>(plan_total) / n : 0.0;
  const double exec_us = n > 0 ? static_cast<double>(exec_total) / n : 0.0;
  state.counters["plan_us"] = plan_us;
  state.counters["exec_us"] = exec_us;
  const std::string key = "optimizer/sel" + std::to_string(percent) +
                          (optimize ? "/on" : "/off");
  ResultRegistry::Instance().Record(key + "/plan", plan_us);
  ResultRegistry::Instance().Record(key + "/exec", exec_us);
}

void PrintSummary() {
  auto& reg = ResultRegistry::Instance();
  std::printf(
      "\n=== Cost-based rewriter (rows = %zu) ===\n"
      "%6s %12s %12s %12s %12s %10s\n",
      OptimizerEnv::Get().rows, "sel%", "plan_off_us", "plan_on_us",
      "exec_off_us", "exec_on_us", "exec_gain");
  for (size_t percent : {size_t{1}, size_t{10}, size_t{50}}) {
    const std::string off = "optimizer/sel" + std::to_string(percent) + "/off";
    const std::string on = "optimizer/sel" + std::to_string(percent) + "/on";
    const double exec_off = reg.Get(off + "/exec");
    const double exec_on = reg.Get(on + "/exec");
    std::printf("%6zu %12.1f %12.1f %12.1f %12.1f %9.2fx\n", percent,
                reg.Get(off + "/plan"), reg.Get(on + "/plan"), exec_off,
                exec_on, exec_on > 0 ? exec_off / exec_on : 0.0);
  }
  std::printf(
      "\nplan_on - plan_off is the full rewrite bill (statistics + "
      "candidates + costing). exec_gain > 1 means the "
      "convert-to-range-scan rewrite paid for it.\n");
}

}  // namespace
}  // namespace bench
}  // namespace trac

int main(int argc, char** argv) {
  trac::bench::ParseThreadsFlag(&argc, argv);
  trac::bench::ParseJsonFlag(&argc, argv, "optimizer");
  benchmark::Initialize(&argc, argv);
  for (size_t percent : {size_t{1}, size_t{10}, size_t{50}}) {
    for (bool optimize : {false, true}) {
      std::string name = "optimizer/sel" + std::to_string(percent) +
                         (optimize ? "/on" : "/off");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [percent, optimize](benchmark::State& state) {
            trac::bench::RunOne(state, percent, optimize);
          })
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.2);
    }
  }
  trac::bench::RegistryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  trac::bench::PrintSummary();
  trac::bench::WriteBenchJsonIfRequested("optimizer");
  return 0;
}

// Parallel recency-query execution: serial vs. fanned-out evaluation of
// the same plans on the same snapshot (core/relevance.cc). Measures the
// relevance-execution component in isolation — the part the thread pool
// parallelizes — for the Focused plans of Q1..Q4 and the Naive plan.
// The Naive plan is one task (a walk of the registry's source_id index)
// at any thread count, so its rows still report Naive/N/merge and
// Naive/N/fanout, with no fan-out to win. So is Q4's: its first part is
// a walk behind an EXISTS guard that passes, which runs whole on the
// calling thread, and its join part, whose sources the walk already
// names, does not run (the skip rule, DESIGN.md 4b).
//
//   bench_parallel_relevance --threads=4
//
// registers each configuration at 1 thread and at --threads (default 4,
// env TRAC_BENCH_THREADS) and prints a speedup table at the end. The
// acceptance configuration is >= 2x on the Focused multi-part queries
// at 4 threads on a multicore machine; busy/wall is printed alongside so
// a core-starved box (busy/wall ~= 1 at any thread count) is
// distinguishable from a fan-out regression.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.h"
#include "core/relevance.h"

namespace trac {
namespace bench {
namespace {

/// A >= 64-source data set: the largest divisor of TotalRows() from the
/// preferred list (the workload builder requires #sources | #rows).
size_t NumSources() {
  const size_t rows = TotalRows();
  for (size_t s : {500, 320, 256, 250, 200, 128, 100, 80, 64}) {
    if (rows % s == 0) return s;
  }
  return rows / 10;
}

struct ParallelEnv {
  std::unique_ptr<Database> db;
  EvalWorkload workload;
  struct Prepared {
    std::string name;
    RecencyQueryPlan plan;
  };
  std::vector<Prepared> plans;  // Q1..Q4 Focused, then Naive.

  static ParallelEnv& Get() {
    static ParallelEnv* env = [] {
      auto* e = new ParallelEnv();
      e->db = std::make_unique<Database>();
      EvalWorkloadOptions options;
      options.total_activity_rows = TotalRows();
      options.num_sources = NumSources();
      auto workload = BuildEvalWorkload(e->db.get(), options);
      if (!workload.ok()) {
        std::fprintf(stderr, "workload build failed: %s\n",
                     workload.status().ToString().c_str());
        std::abort();
      }
      e->workload = *workload;
      for (auto& [name, sql] : e->workload.AllQueries()) {
        auto bound = BindSql(*e->db, sql);
        auto plan = bound.ok() ? GenerateRecencyQueries(*e->db, *bound)
                               : Result<RecencyQueryPlan>(bound.status());
        if (!plan.ok()) {
          std::fprintf(stderr, "plan failed for %s: %s\n", name.c_str(),
                       plan.status().ToString().c_str());
          std::abort();
        }
        e->plans.push_back({name, std::move(*plan)});
      }
      auto naive = GenerateNaivePlan(*e->db);
      if (!naive.ok()) {
        std::fprintf(stderr, "naive plan failed: %s\n",
                     naive.status().ToString().c_str());
        std::abort();
      }
      e->plans.push_back({"Naive", std::move(*naive)});
      return e;
    }();
    return *env;
  }
};

std::string Key(const std::string& plan, size_t threads) {
  return plan + "/" + std::to_string(threads);
}

void RunOne(benchmark::State& state, size_t plan_index, size_t threads) {
  ParallelEnv& env = ParallelEnv::Get();
  const auto& prepared = env.plans[plan_index];
  const Snapshot snap = env.db->LatestSnapshot();

  RelevanceOptions options;
  options.parallelism = threads;
  // Planned once, outside the timed loop: wall covers execution only.
  auto planned = PlanRecencyParts(*env.db, prepared.plan, snap);
  if (!planned.ok()) {
    state.SkipWithError(planned.status().ToString().c_str());
    return;
  }

  int64_t total_wall = 0;
  int64_t total_busy = 0;
  int64_t total_max_task = 0;
  int64_t total_merge = 0;
  double total_imbalance = 0.0;
  int64_t n = 0;
  for (auto _ : state) {
    const int64_t t0 = NowMicros();
    auto exec = ExecuteRecencyQueriesDetailed(*env.db, prepared.plan,
                                              *planned, snap, options);
    const int64_t wall = NowMicros() - t0;
    if (!exec.ok()) {
      state.SkipWithError(exec.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(exec->sources);
    total_wall += wall;
    int64_t busy = 0;
    int64_t max_task = 0;
    for (int64_t us : exec->task_micros) {
      busy += us;
      max_task = std::max(max_task, us);
    }
    total_busy += busy;
    total_max_task += max_task;
    total_merge += exec->merge_micros;
    // Task imbalance: the longest strand over the mean strand. 1.0 is a
    // perfectly even split; the fan-out can't speed up past
    // busy / max_task no matter how many cores it gets.
    if (!exec->task_micros.empty() && busy > 0) {
      total_imbalance +=
          static_cast<double>(max_task) * exec->task_micros.size() / busy;
    }
    ++n;
  }
  const double mean_wall = n > 0 ? static_cast<double>(total_wall) / n : 0.0;
  const double mean_busy = n > 0 ? static_cast<double>(total_busy) / n : 0.0;
  const double mean_max_task =
      n > 0 ? static_cast<double>(total_max_task) / n : 0.0;
  const double mean_merge = n > 0 ? static_cast<double>(total_merge) / n : 0.0;
  const double mean_imbalance = n > 0 ? total_imbalance / n : 0.0;
  state.counters["wall_us"] = mean_wall;
  state.counters["busy_over_wall"] =
      mean_wall > 0 ? mean_busy / mean_wall : 0.0;
  ResultRegistry::Instance().Record(Key(prepared.name, threads), mean_wall);
  ResultRegistry::Instance().Record(Key(prepared.name, threads) + "/busy",
                                    mean_busy);
  ResultRegistry::Instance().Record(Key(prepared.name, threads) + "/imbalance",
                                    mean_imbalance);
  // Wall time past the longest strand splits into the serial set merge
  // (timed by the library itself) and true fan-out: task spawn, pool
  // scheduling and everything else outside the tasks and the merge.
  ResultRegistry::Instance().Record(Key(prepared.name, threads) + "/merge",
                                    mean_merge);
  ResultRegistry::Instance().Record(Key(prepared.name, threads) + "/fanout",
                                    mean_wall - mean_max_task - mean_merge);
}

void PrintSpeedups() {
  ParallelEnv& env = ParallelEnv::Get();
  auto& reg = ResultRegistry::Instance();
  const size_t threads = BenchThreads();
  std::printf(
      "\n=== Parallel recency-query execution (rows = %zu, sources = %zu, "
      "threads = %zu) ===\n",
      TotalRows(), NumSources(), threads);
  std::printf("%8s %14s %14s %10s %12s %11s %10s %10s\n", "plan",
              "serial_us", "parallel_us", "speedup", "busy/wall", "imbalance",
              "merge_us", "fanout_us");
  for (const auto& prepared : env.plans) {
    const double serial = reg.Get(Key(prepared.name, 1));
    const double parallel = reg.Get(Key(prepared.name, threads));
    const double busy = reg.Get(Key(prepared.name, threads) + "/busy");
    const double imbalance =
        reg.Get(Key(prepared.name, threads) + "/imbalance");
    const double merge = reg.Get(Key(prepared.name, threads) + "/merge");
    const double fanout = reg.Get(Key(prepared.name, threads) + "/fanout");
    std::printf("%8s %14.1f %14.1f %9.2fx %12.2f %11.2f %10.1f %10.1f\n",
                prepared.name.c_str(), serial, parallel,
                parallel > 0 ? serial / parallel : 0.0,
                parallel > 0 ? busy / parallel : 0.0, imbalance, merge,
                fanout);
  }
  std::printf(
      "\nExpected on a >= %zu-core machine: >= 2x on Q3, whose plan has "
      "many independent parts (Q4 runs one task: its guarded registry "
      "walk covers its join part). busy/wall ~= 1 "
      "at %zu threads means the host could not actually run the strands "
      "concurrently (core-starved), not that the fan-out regressed. "
      "imbalance is max/mean strand time (1.0 = even split; the fan-out "
      "cannot beat busy / max strand); merge_us is the serial set merge "
      "and fanout_us the rest of wall past the longest strand (spawn "
      "and scheduling).\n",
      threads, threads);
}

}  // namespace
}  // namespace bench
}  // namespace trac

int main(int argc, char** argv) {
  using trac::bench::BenchThreads;
  using trac::bench::ParallelEnv;
  using trac::bench::RunOne;

  trac::bench::ParseThreadsFlag(&argc, argv);
  trac::bench::ParseJsonFlag(&argc, argv, "parallel_relevance");
  benchmark::Initialize(&argc, argv);
  const size_t threads = BenchThreads();
  ParallelEnv& env = ParallelEnv::Get();
  for (size_t i = 0; i < env.plans.size(); ++i) {
    for (size_t t : {size_t{1}, threads}) {
      std::string name = "par_relevance/" + env.plans[i].name +
                         "/threads:" + std::to_string(t);
      benchmark::RegisterBenchmark(name.c_str(),
                                   [i, t](benchmark::State& state) {
                                     RunOne(state, i, t);
                                   })
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.2);
    }
  }
  trac::bench::RegistryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  trac::bench::PrintSpeedups();
  trac::bench::WriteBenchJsonIfRequested("parallel_relevance");
  return 0;
}

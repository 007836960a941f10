// Profiler-overhead smoke: runs every workload query as a full report
// session with per-operator profiling on and off and compares the
// min-of-N wall times. The profile collector is plain counters plus a
// handful of ClockFn reads, and the per-session attach/drift/record
// tail is fixed-cost, so the summed delta must stay small — check.sh
// gates on --max-delta-pct (the DESIGN.md section 5.1 overhead
// contract).
//
//   bench_profile_overhead [--iters=N] [--max-delta-pct=P] [--json]
//
// Exits 1 when the summed profiled time exceeds the unprofiled time by
// more than P percent (default: report only). Uses min-of-N per query:
// the minimum is the scheduler-noise-resistant statistic, and the
// overhead being gated is deterministic work on the session path. The
// two arms are interleaved: every iteration runs one profiled and one
// unprofiled report, and which runs first alternates, so a shift in
// machine state (clock speed, caches, other tenants) lands on both arms
// instead of on one back-to-back block.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"

namespace trac {
namespace bench {
namespace {

int64_t ReportMicros(BenchEnv& env, const BenchEnv::PreparedQuery& query,
                     bool profile) {
  RecencyReportOptions options = MeasuredOptions(RecencyMethod::kFocused);
  options.profile = profile;
  const int64_t t0 = NowMicros();
  auto report =
      env.reporter->RunWithPlan(query.bound, query.focused_plan, options);
  const int64_t elapsed = NowMicros() - t0;
  if (!report.ok()) {
    std::fprintf(stderr, "report failed for %s: %s\n", query.name.c_str(),
                 report.status().ToString().c_str());
    std::abort();
  }
  return elapsed;
}

struct MinMicros {
  int64_t off = 0;
  int64_t on = 0;
};

MinMicros MinReportMicros(BenchEnv& env, const BenchEnv::PreparedQuery& query,
                          size_t iters) {
  MinMicros best;
  for (size_t i = 0; i < iters + 1; ++i) {
    for (size_t arm = 0; arm < 2; ++arm) {
      const bool profile = (i + arm) % 2 == 1;
      const int64_t elapsed = ReportMicros(env, query, profile);
      // First iteration is warmup (cache/allocator effects), not measured.
      if (i == 0) continue;
      int64_t& slot = profile ? best.on : best.off;
      if (slot == 0 || elapsed < slot) slot = elapsed;
    }
  }
  return best;
}

int Main(int argc, char** argv) {
  size_t iters = 50;
  double max_delta_pct = -1.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--iters=", 8) == 0) {
      iters = static_cast<size_t>(std::atoll(arg + 8));
    } else if (std::strncmp(arg, "--max-delta-pct=", 16) == 0) {
      max_delta_pct = std::atof(arg + 16);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--iters=N] [--max-delta-pct=P] [--json]\n",
                   argv[0]);
      return 2;
    }
  }

  BenchEnv& env = BenchEnv::Get(/*ratio=*/100);
  std::printf("%-6s %12s %12s %9s\n", "query", "off_us", "on_us", "delta%");
  int64_t total_off = 0;
  int64_t total_on = 0;
  for (const BenchEnv::PreparedQuery& query : env.queries) {
    const auto [off, on] = MinReportMicros(env, query, iters);
    total_off += off;
    total_on += on;
    const double delta =
        off > 0 ? 100.0 * (static_cast<double>(on) - off) / off : 0.0;
    std::printf("%-6s %12lld %12lld %8.2f%%\n", query.name.c_str(),
                static_cast<long long>(off), static_cast<long long>(on),
                delta);
    ResultRegistry::Instance().Record(query.name + "/profile_off",
                                      static_cast<double>(off));
    ResultRegistry::Instance().Record(query.name + "/profile_on",
                                      static_cast<double>(on));
  }
  const double total_delta =
      total_off > 0
          ? 100.0 * (static_cast<double>(total_on) - total_off) / total_off
          : 0.0;
  std::printf("%-6s %12lld %12lld %8.2f%%\n", "total",
              static_cast<long long>(total_off),
              static_cast<long long>(total_on), total_delta);
  ResultRegistry::Instance().Record("total/profile_off",
                                    static_cast<double>(total_off));
  ResultRegistry::Instance().Record("total/profile_on",
                                    static_cast<double>(total_on));
  ResultRegistry::Instance().Record("total/delta_pct", total_delta);
  WriteBenchJsonIfRequested("profile_overhead");

  if (max_delta_pct >= 0.0 && total_delta > max_delta_pct) {
    std::fprintf(stderr,
                 "profiler overhead %.2f%% exceeds the %.2f%% budget\n",
                 total_delta, max_delta_pct);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace trac

int main(int argc, char** argv) {
  trac::bench::ParseJsonFlag(&argc, argv, "profile_overhead");
  return trac::bench::Main(argc, argv);
}

// Profiler-overhead smoke: runs every workload query as a full report
// session with per-operator profiling on and off and compares wall
// times. The profile collector is plain counters plus a handful of
// ClockFn reads, and the per-session lower/attach/dump/record tail is
// fixed-cost, so the summed delta must stay small — check.sh gates on
// --max-delta-pct (the DESIGN.md section 5.1 overhead contract).
//
//   bench_profile_overhead [--iters=N] [--max-delta-pct=P] [--json]
//
// The run is kRounds independent rounds. A round takes min-of-N per
// query and arm, then the summed delta over the queries. Within a round the two
// arms are interleaved: every iteration runs one profiled and one
// unprofiled report, and which runs first alternates, so a shift in
// machine state (clock speed, caches, other tenants) lands on both
// arms. The gated statistic is the median of the R round deltas: a
// burst of noise that skews one round's minima moves one round, not the
// verdict. Exits 1 when that median exceeds P percent (default: report
// only).

#include <algorithm>
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

/// Odd, so the median is one round's delta.
constexpr size_t kRounds = 9;

double DeltaPct(int64_t off, int64_t on) {
  return off > 0 ? 100.0 * (static_cast<double>(on) - off) / off : 0.0;
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
  // best[q] is query q's min over every round, for the per-query table.
  std::vector<MinMicros> best(env.queries.size());
  std::vector<double> round_deltas;
  std::printf("%-6s %12s %12s %9s\n", "round", "off_us", "on_us", "delta%");
  for (size_t r = 0; r < kRounds; ++r) {
    int64_t round_off = 0;
    int64_t round_on = 0;
    for (size_t q = 0; q < env.queries.size(); ++q) {
      const auto [off, on] = MinReportMicros(env, env.queries[q], iters);
      round_off += off;
      round_on += on;
      if (r == 0 || off < best[q].off) best[q].off = off;
      if (r == 0 || on < best[q].on) best[q].on = on;
    }
    round_deltas.push_back(DeltaPct(round_off, round_on));
    std::printf("%-6zu %12lld %12lld %8.2f%%\n", r,
                static_cast<long long>(round_off),
                static_cast<long long>(round_on), round_deltas.back());
  }

  std::printf("\n%-6s %12s %12s %9s\n", "query", "off_us", "on_us",
              "delta%");
  int64_t total_off = 0;
  int64_t total_on = 0;
  for (size_t q = 0; q < env.queries.size(); ++q) {
    const BenchEnv::PreparedQuery& query = env.queries[q];
    const auto [off, on] = best[q];
    total_off += off;
    total_on += on;
    std::printf("%-6s %12lld %12lld %8.2f%%\n", query.name.c_str(),
                static_cast<long long>(off), static_cast<long long>(on),
                DeltaPct(off, on));
    ResultRegistry::Instance().Record(query.name + "/profile_off",
                                      static_cast<double>(off));
    ResultRegistry::Instance().Record(query.name + "/profile_on",
                                      static_cast<double>(on));
  }
  std::printf("%-6s %12lld %12lld %8.2f%%\n", "total",
              static_cast<long long>(total_off),
              static_cast<long long>(total_on),
              DeltaPct(total_off, total_on));

  std::sort(round_deltas.begin(), round_deltas.end());
  const double median_delta = round_deltas[kRounds / 2];
  std::printf("median round delta over %zu rounds: %.2f%%\n", kRounds,
              median_delta);
  ResultRegistry::Instance().Record("total/profile_off",
                                    static_cast<double>(total_off));
  ResultRegistry::Instance().Record("total/profile_on",
                                    static_cast<double>(total_on));
  ResultRegistry::Instance().Record("total/delta_pct", median_delta);
  WriteBenchJsonIfRequested("profile_overhead");

  if (max_delta_pct >= 0.0 && median_delta > max_delta_pct) {
    std::fprintf(stderr,
                 "profiler overhead %.2f%% (median of %zu rounds) exceeds "
                 "the %.2f%% budget\n",
                 median_delta, kRounds, max_delta_pct);
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

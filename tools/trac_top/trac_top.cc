// trac_top: the TRAC staleness dashboard. Builds the Section 5.2
// synthetic workload, runs a batch of recency reports through the full
// pipeline (parse -> generate -> plan -> user query -> relevance ->
// stats), and renders one telemetry scrape: top-K stalest sources, the
// bound-of-inconsistency distribution, the exceptional-source counter,
// the last report's span tree, and the raw Prometheus-style exposition.
//
// Usage:
//   trac_top [--rows N] [--sources N] [--exceptional N] [--reports N]
//            [--parallelism N] [--topk K] [--json] [--deterministic]
//            [--golden FILE] [--update]
//
//   --json           emit the machine-readable scrape (registry JSON +
//                    span-tree JSON) instead of the dashboard text
//   --deterministic  drive all telemetry off a fixed-step fake clock so
//                    two runs produce byte-identical output (implied by
//                    --golden/--update; requires --parallelism 1)
//   --golden FILE    compare the dashboard against FILE byte for byte
//                    and fail (exit 1) on drift
//   --update         rewrite FILE instead of comparing
//
// Exit status: 0 clean, 1 golden mismatch, 2 usage or I/O errors.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/recency_reporter.h"
#include "core/session.h"
#include "ir/plan_ir.h"
#include "monitor/staleness.h"
#include "storage/database.h"
#include "telemetry/profile.h"
#include "telemetry/telemetry.h"
#include "workload/eval_workload.h"

namespace {

// Fixed-step clock: every call advances simulated time by 1ms. With a
// serial run the pipeline makes the same clock calls in the same order
// every time, so spans and histograms are byte-deterministic.
int64_t FakeNowMicros() {
  static std::atomic<int64_t> ticks{0};
  return ticks.fetch_add(1, std::memory_order_relaxed) * 1000;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--rows N] [--sources N] [--exceptional N] "
               "[--reports N] [--parallelism N] [--topk K] [--json] "
               "[--deterministic] [--golden FILE] [--update]\n",
               argv0);
  return 2;
}

struct Flags {
  size_t rows = 2000;
  size_t sources = 40;
  size_t exceptional = 4;
  size_t reports = 8;
  size_t parallelism = 1;
  size_t topk = 5;
  bool json = false;
  bool deterministic = false;
  std::string golden;
  bool update = false;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_num = [&](size_t* out) {
      if (i + 1 >= argc) return false;
      *out = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
      return true;
    };
    if (arg == "--rows") {
      if (!next_num(&flags.rows)) return Usage(argv[0]);
    } else if (arg == "--sources") {
      if (!next_num(&flags.sources)) return Usage(argv[0]);
    } else if (arg == "--exceptional") {
      if (!next_num(&flags.exceptional)) return Usage(argv[0]);
    } else if (arg == "--reports") {
      if (!next_num(&flags.reports)) return Usage(argv[0]);
    } else if (arg == "--parallelism") {
      if (!next_num(&flags.parallelism)) return Usage(argv[0]);
    } else if (arg == "--topk") {
      if (!next_num(&flags.topk)) return Usage(argv[0]);
    } else if (arg == "--json") {
      flags.json = true;
    } else if (arg == "--deterministic") {
      flags.deterministic = true;
    } else if (arg == "--golden" && i + 1 < argc) {
      flags.golden = argv[++i];
    } else if (arg == "--update") {
      flags.update = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!flags.golden.empty()) flags.deterministic = true;
  if (flags.update && flags.golden.empty()) {
    std::fprintf(stderr, "trac_top: --update requires --golden\n");
    return 2;
  }
  if (flags.deterministic && flags.parallelism > 1) {
    std::fprintf(stderr,
                 "trac_top: --deterministic requires --parallelism 1 "
                 "(clock-call order must be fixed)\n");
    return 2;
  }

  // All domain metrics flow into the process-default registry (the
  // storage/monitor layers publish there unconditionally), so the
  // dashboard scrapes that; only the clock is swappable.
  trac::Telemetry telemetry = trac::Telemetry::Default();
  if (flags.deterministic) telemetry.clock = &FakeNowMicros;
  // Per-run flight recorder: the slowest-operators row reads the last
  // profiled session from here, not from whatever the process default
  // accumulated.
  trac::FlightRecorder recorder;
  telemetry.recorder = &recorder;

  trac::Database db;
  trac::EvalWorkloadOptions workload_options;
  workload_options.total_activity_rows =
      flags.rows - (flags.rows % std::max<size_t>(1, flags.sources));
  workload_options.num_sources = flags.sources;
  workload_options.num_exceptional_sources = flags.exceptional;
  workload_options.create_indexes = true;
  auto workload = trac::BuildEvalWorkload(&db, workload_options);
  if (!workload.ok()) {
    std::fprintf(stderr, "trac_top: workload: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }

  // Publish the monitor-layer staleness gauges as of the workload's
  // reference instant (the paper's March 2006 base time).
  const trac::Status staleness = trac::UpdateSourceStaleness(
      &db, "heartbeat", workload_options.base_time, telemetry.metrics);
  if (!staleness.ok()) {
    std::fprintf(stderr, "trac_top: staleness: %s\n",
                 staleness.ToString().c_str());
    return 2;
  }

  // Run the report batch, cycling Q1..Q4.
  trac::Session session(&db);
  trac::RecencyReporter reporter(&db, &session);
  trac::RecencyReportOptions report_options;
  report_options.relevance.parallelism = flags.parallelism;
  report_options.telemetry = &telemetry;
  report_options.profile = true;  // The dashboard reads the recorder.
  const auto queries = workload->AllQueries();
  uint64_t last_trace_id = 0;
  for (size_t i = 0; i < flags.reports; ++i) {
    const auto& [name, sql] = queries[i % queries.size()];
    auto report = reporter.Run(sql, report_options);
    if (!report.ok()) {
      std::fprintf(stderr, "trac_top: report %s: %s\n", name.c_str(),
                   report.status().ToString().c_str());
      return 2;
    }
    last_trace_id = report->trace_id;
  }

  std::string out;
  if (flags.json) {
    out += "{\"metrics\": ";
    std::string metrics_json = telemetry.metrics->ScrapeJson();
    while (!metrics_json.empty() && metrics_json.back() == '\n')
      metrics_json.pop_back();
    out += metrics_json;
    out += ",\n\"last_report_trace\": ";
    out += telemetry.tracer->DumpTraceJson(last_trace_id);
    out += "}\n";
  } else {
    out += "== trac_top ==\n";
    out += "workload: rows=" +
           std::to_string(workload_options.total_activity_rows) +
           " sources=" + std::to_string(flags.sources) +
           " exceptional=" + std::to_string(flags.exceptional) +
           " reports=" + std::to_string(flags.reports) +
           " parallelism=" + std::to_string(flags.parallelism) + "\n";

    out += "\n-- top " + std::to_string(flags.topk) +
           " stalest sources (trac_source_staleness_micros) --\n";
    std::vector<trac::GaugeSample> staleness_samples;
    for (trac::GaugeSample& sample : telemetry.metrics->GaugeSamples()) {
      if (sample.name == "trac_source_staleness_micros")
        staleness_samples.push_back(std::move(sample));
    }
    std::sort(staleness_samples.begin(), staleness_samples.end(),
              [](const trac::GaugeSample& a, const trac::GaugeSample& b) {
                if (a.value != b.value) return a.value > b.value;
                return a.labels < b.labels;
              });
    for (size_t i = 0; i < staleness_samples.size() && i < flags.topk; ++i) {
      const trac::GaugeSample& sample = staleness_samples[i];
      const std::string source =
          sample.labels.empty() ? "?" : sample.labels[0].second;
      out += "  " + source + "  " +
             trac::FormatDurationMicros(sample.value) + "\n";
    }

    auto histogram_block = [&](const char* metric, const trac::LabelSet&
                                                       labels) {
      trac::Histogram* h = telemetry.metrics->GetHistogram(metric, "", labels);
      out += "  count=" + std::to_string(h->Count()) +
             " sum_micros=" + std::to_string(h->Sum()) + "\n";
      for (size_t i = 0; i < trac::Histogram::kNumFiniteBuckets; ++i) {
        const int64_t n = h->BucketCount(i);
        if (n == 0) continue;
        out += "  le=" +
               std::to_string(trac::Histogram::BucketUpperBound(i)) + "  " +
               std::to_string(n) + "\n";
      }
      const int64_t overflow =
          h->BucketCount(trac::Histogram::kNumFiniteBuckets);
      if (overflow != 0)
        out += "  le=+Inf  " + std::to_string(overflow) + "\n";
    };
    out += "\n-- bound of inconsistency "
           "(trac_report_inconsistency_bound_micros) --\n";
    histogram_block("trac_report_inconsistency_bound_micros", {});
    out += "\n-- recency-query latency "
           "(trac_report_phase_micros{phase=relevance}) --\n";
    histogram_block("trac_report_phase_micros", {{"phase", "relevance"}});

    out += "\n-- counters --\n";
    for (const char* name :
         {"trac_reports_total", "trac_report_exceptional_sources_total",
          "trac_queries_executed_total",
          "trac_planner_stats_walks_total"}) {
      out += "  " + std::string(name) + " " +
             std::to_string(
                 telemetry.metrics->GetCounter(name, "")->Value()) +
             "\n";
    }

    // The flight recorder's newest session: the per-operator profile
    // of the last report, ranked by attributed busy time.
    out += "\n-- slowest operators (last profiled session) --\n";
    const std::vector<trac::SessionProfileRecord> sessions =
        recorder.Entries();
    if (sessions.empty()) {
      out += "  (no profiled sessions)\n";
    } else {
      const trac::SessionProfileRecord& last = sessions.back();
      auto profiled = trac::ParsePlanIr(last.profiled_ir);
      size_t p001 = 0;
      size_t p002 = 0;
      if (profiled.ok()) {
        for (const trac::ProfileDiagnostic& d :
             trac::AnalyzeProfileDrift(*profiled)) {
          ++(d.code == trac::ProfileCode::kMisestimate ? p002 : p001);
        }
      }
      out += "  sessions recorded=" +
             std::to_string(recorder.total_recorded()) +
             " retained=" + std::to_string(sessions.size()) +
             " annotated=" + std::to_string(last.annotated_nodes) +
             " p001=" + std::to_string(p001) +
             " p002=" + std::to_string(p002) + "\n";
      if (profiled.ok()) {
        std::vector<const trac::IrNode*> ranked;
        for (const trac::IrNode& node : profiled->nodes) {
          if (node.has_actual_ns || node.has_actual_rows)
            ranked.push_back(&node);
        }
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const trac::IrNode* a, const trac::IrNode* b) {
                           if (a->actual_ns != b->actual_ns)
                             return a->actual_ns > b->actual_ns;
                           if (a->actual_rows != b->actual_rows)
                             return a->actual_rows > b->actual_rows;
                           return a->id < b->id;
                         });
        for (size_t i = 0; i < ranked.size() && i < flags.topk; ++i) {
          const trac::IrNode& node = *ranked[i];
          out += "  node " + std::to_string(node.id) + " (" +
                 std::string(trac::IrNodeKindToString(node.kind)) +
                 ")  actual_ns=" + std::to_string(node.actual_ns) +
                 "  actual_rows=" + std::to_string(node.actual_rows) + "\n";
        }
      }
    }

    out += "\n-- last report span tree --\n";
    out += telemetry.tracer->DumpTraceJson(last_trace_id);

    out += "\n-- scrape --\n";
    out += telemetry.metrics->ScrapeText();
  }

  if (!flags.golden.empty()) {
    if (flags.update) {
      std::ofstream golden_out(flags.golden);
      if (!golden_out) {
        std::fprintf(stderr, "trac_top: cannot write golden: %s\n",
                     flags.golden.c_str());
        return 2;
      }
      golden_out << out;
      std::printf("updated %s\n", flags.golden.c_str());
      return 0;
    }
    std::string expected;
    if (!ReadFile(flags.golden, &expected)) {
      std::printf("FAIL: missing golden %s (run with --update)\n",
                  flags.golden.c_str());
      return 1;
    }
    if (expected != out) {
      std::printf("FAIL: scrape drifted from golden %s\n",
                  flags.golden.c_str());
      std::printf("--- expected ---\n%s--- actual ---\n%s", expected.c_str(),
                  out.c_str());
      return 1;
    }
    std::printf("OK %s\n", flags.golden.c_str());
    return 0;
  }

  std::fputs(out.c_str(), stdout);
  return 0;
}

#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "ir/plan_ir.h"
#include "telemetry/profile.h"

namespace trac {
namespace oracle {
namespace {

std::string FmtTs(Timestamp t) { return t.ToString(); }

std::string FmtMicros(int64_t v) { return std::to_string(v) + "us"; }

void Violation(OracleOutcome* out, std::string msg) {
  out->violations.push_back(std::move(msg));
}

}  // namespace

void OracleOutcome::Merge(const OracleOutcome& other) {
  checks += other.checks;
  exemptions += other.exemptions;
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
}

std::string OracleOutcome::Summary() const {
  if (ok()) {
    std::string s = "PASS (" + std::to_string(checks) + " checks";
    if (exemptions > 0) s += ", " + std::to_string(exemptions) + " exempt";
    return s + ")";
  }
  std::string s = "FAIL (" + std::to_string(violations.size()) +
                  " violations / " + std::to_string(checks) + " checks)";
  const size_t show = violations.size() < 3 ? violations.size() : 3;
  for (size_t i = 0; i < show; ++i) s += "\n  - " + violations[i];
  if (violations.size() > show) {
    s += "\n  - ... " + std::to_string(violations.size() - show) + " more";
  }
  return s;
}

OracleOutcome CheckBoundDominance(const ScenarioRunner& runner,
                                  const RecencyReport& report) {
  OracleOutcome out;
  const std::vector<std::pair<std::string, Timestamp>> truth_rows =
      runner.grid().heartbeat().GetAll(runner.db()->LatestSnapshot());
  std::map<std::string, Timestamp> truth(truth_rows.begin(), truth_rows.end());

  // (a) Reported recencies are the Heartbeat table's values, verbatim.
  for (const SourceRecency& sr : report.relevance.sources) {
    ++out.checks;
    auto it = truth.find(sr.source);
    if (it == truth.end()) {
      Violation(&out, "reported source '" + sr.source +
                          "' does not exist in the Heartbeat table");
      continue;
    }
    if (it->second != sr.recency) {
      Violation(&out, "recency of '" + sr.source + "': reported " +
                          FmtTs(sr.recency) + ", Heartbeat says " +
                          FmtTs(it->second));
    }
  }

  // (b) + (c) The bound and the extremes over the normal sources.
  const RecencyStats& stats = report.stats;
  if (!stats.normal.empty()) {
    Timestamp min_r = stats.normal.front().recency;
    Timestamp max_r = stats.normal.front().recency;
    std::string min_id = stats.normal.front().source;
    std::string max_id = stats.normal.front().source;
    for (const SourceRecency& sr : stats.normal) {
      if (sr.recency < min_r) {
        min_r = sr.recency;
        min_id = sr.source;
      }
      if (sr.recency > max_r) {
        max_r = sr.recency;
        max_id = sr.source;
      }
    }
    const int64_t true_bound = max_r - min_r;
    ++out.checks;
    if (stats.inconsistency_bound_micros < true_bound) {
      Violation(&out,
                "bound of inconsistency UNDERCLAIMS: reported " +
                    FmtMicros(stats.inconsistency_bound_micros) +
                    " < true spread " + FmtMicros(true_bound));
    } else if (stats.inconsistency_bound_micros > true_bound) {
      Violation(&out, "bound of inconsistency mismatch: reported " +
                          FmtMicros(stats.inconsistency_bound_micros) +
                          " != recomputed " + FmtMicros(true_bound));
    }
    ++out.checks;
    if (!stats.least_recent.has_value() ||
        stats.least_recent->recency != min_r) {
      Violation(&out, "least-recent mismatch: true minimum is '" + min_id +
                          "' at " + FmtTs(min_r));
    }
    ++out.checks;
    if (!stats.most_recent.has_value() ||
        stats.most_recent->recency != max_r) {
      Violation(&out, "most-recent mismatch: true maximum is '" + max_id +
                          "' at " + FmtTs(max_r));
    }
  } else {
    ++out.checks;
    if (stats.least_recent.has_value() || stats.most_recent.has_value() ||
        stats.inconsistency_bound_micros != 0) {
      Violation(&out,
                "no normal sources but extremes/bound are still reported");
    }
  }

  // (d) Recency claims never overtake the true shipping frontier. The
  // recency timestamp r promises "every event of this source before r
  // has reported in" (Section 3.1); the frontier is the earliest event
  // that has NOT. Truncation-lossy sources are exactly the case where
  // the protocol's promise is physically broken, so they are exempt.
  for (const SourceRecency& sr : report.relevance.sources) {
    if (runner.injector().IsLossy(sr.source)) {
      ++out.exemptions;
      continue;
    }
    ++out.checks;
    Result<Timestamp> frontier =
        runner.injector().TrueFrontier(sr.source, runner.now());
    if (!frontier.ok()) {
      Violation(&out, "no frontier for '" + sr.source +
                          "': " + frontier.status().ToString());
      continue;
    }
    if (sr.recency > *frontier) {
      Violation(&out, "recency of '" + sr.source + "' OVERCLAIMS: claims " +
                          FmtTs(sr.recency) + " but true frontier is " +
                          FmtTs(*frontier));
    }
  }
  return out;
}

OracleOutcome CheckZscoreAgreement(const RecencyStats& stats,
                                   double threshold) {
  OracleOutcome out;
  struct Entry {
    const SourceRecency* sr;
    bool reported_exceptional;
  };
  std::vector<Entry> all;
  for (const SourceRecency& sr : stats.normal) all.push_back({&sr, false});
  for (const SourceRecency& sr : stats.exceptional) all.push_back({&sr, true});
  if (all.empty()) {
    ++out.checks;
    if (stats.mean_micros != 0 || stats.stddev_micros != 0) {
      Violation(&out, "no relevant sources but nonzero moments reported");
    }
    return out;
  }

  // Independent recomputation: long-double accumulators, population
  // variance — deliberately not the production algorithm.
  const long double n = static_cast<long double>(all.size());
  long double sum = 0;
  for (const Entry& e : all) {
    sum += static_cast<long double>(e.sr->recency.micros());
  }
  const long double mean = sum / n;
  long double var = 0;
  for (const Entry& e : all) {
    const long double d = static_cast<long double>(e.sr->recency.micros()) - mean;
    var += d * d;
  }
  var /= n;
  const long double stddev = sqrtl(var);

  auto close = [](long double a, long double b) {
    const long double scale =
        std::max<long double>({1.0L, fabsl(a), fabsl(b)});
    return fabsl(a - b) <= 1e-9L * scale;
  };
  ++out.checks;
  if (!close(mean, static_cast<long double>(stats.mean_micros))) {
    Violation(&out, "mean mismatch: reported " +
                        std::to_string(stats.mean_micros) + ", recomputed " +
                        std::to_string(static_cast<double>(mean)));
  }
  ++out.checks;
  if (!close(stddev, static_cast<long double>(stats.stddev_micros))) {
    Violation(&out, "stddev mismatch: reported " +
                        std::to_string(stats.stddev_micros) +
                        ", recomputed " +
                        std::to_string(static_cast<double>(stddev)));
  }

  for (const Entry& e : all) {
    ++out.checks;
    bool expect_exceptional;
    if (stddev == 0) {
      // Degenerate spread: no source can be exceptional (Section 4.3's
      // z-score is undefined; the paper's split keeps everything normal).
      expect_exceptional = false;
    } else {
      const long double z =
          fabsl(static_cast<long double>(e.sr->recency.micros()) - mean) /
          stddev;
      const long double t = static_cast<long double>(threshold);
      if (fabsl(z - t) <= 1e-9L * std::max<long double>(1.0L, fabsl(z))) {
        // Boundary ulp zone: either classification is defensible.
        ++out.exemptions;
        continue;
      }
      expect_exceptional = z > t;
    }
    if (expect_exceptional != e.reported_exceptional) {
      Violation(&out,
                "z-score split disagrees for '" + e.sr->source + "' at " +
                    FmtTs(e.sr->recency) + ": report says " +
                    (e.reported_exceptional ? "exceptional" : "normal") +
                    ", brute-force recomputation says " +
                    (expect_exceptional ? "exceptional" : "normal"));
    }
  }
  return out;
}

OracleOutcome CheckGuarantee(const RecencyReport& report,
                             const std::vector<std::string>& true_sources) {
  OracleOutcome out;
  std::set<std::string> reported;
  for (const SourceRecency& sr : report.relevance.sources) {
    reported.insert(sr.source);
  }
  const std::set<std::string> expected(true_sources.begin(),
                                       true_sources.end());
  const RecencyGuarantee verdict = report.relevance.analysis.verdict;
  ++out.checks;
  switch (verdict) {
    case RecencyGuarantee::kExactMinimum:
      if (reported != expected) {
        Violation(&out, "EXACT_MINIMUM verdict but A(Q) (" +
                            std::to_string(reported.size()) +
                            " sources) != analytic S(Q) (" +
                            std::to_string(expected.size()) + " sources)");
      }
      break;
    case RecencyGuarantee::kUpperBound:
      if (!std::includes(reported.begin(), reported.end(), expected.begin(),
                         expected.end())) {
        Violation(&out,
                  "UPPER_BOUND verdict OVERCLAIMS: A(Q) misses a truly "
                  "relevant source (A must be a superset of S)");
      }
      break;
    case RecencyGuarantee::kEmptySet:
      if (!reported.empty() || !expected.empty()) {
        Violation(&out, "EMPTY_SET verdict but A(Q) has " +
                            std::to_string(reported.size()) +
                            " sources and S(Q) has " +
                            std::to_string(expected.size()));
      }
      break;
  }
  // Internal coherence: minimal flag must match the verdict.
  ++out.checks;
  const bool says_minimal = report.relevance.minimal;
  if (says_minimal != (verdict != RecencyGuarantee::kUpperBound)) {
    Violation(&out, "minimal flag disagrees with the verdict");
  }
  return out;
}

OracleOutcome CheckTelemetry(const ScenarioRunner& runner,
                             MetricRegistry& registry) {
  OracleOutcome out;
  const Timestamp now = runner.now();
  const std::vector<std::pair<std::string, Timestamp>> truth =
      runner.grid().heartbeat().GetAll(runner.db()->LatestSnapshot());

  std::map<std::pair<std::string, std::string>, int64_t> gauges;
  for (const GaugeSample& sample : registry.GaugeSamples()) {
    std::string source;
    for (const auto& [k, v] : sample.labels) {
      if (k == "source") source = v;
    }
    gauges[{sample.name, source}] = sample.value;
  }

  for (const auto& [source, recency] : truth) {
    ++out.checks;
    auto it = gauges.find({"trac_source_staleness_micros", source});
    if (it == gauges.end()) {
      Violation(&out, "no staleness gauge for '" + source + "'");
      continue;
    }
    const int64_t expect = now - recency;
    if (it->second != expect) {
      Violation(&out, "staleness gauge of '" + source + "' is " +
                          FmtMicros(it->second) + ", truth is " +
                          FmtMicros(expect));
    }
  }
  ++out.checks;
  auto total = gauges.find({"trac_monitor_sources", ""});
  if (total == gauges.end() ||
      total->second != static_cast<int64_t>(truth.size())) {
    Violation(&out,
              "trac_monitor_sources != Heartbeat count " +
                  std::to_string(truth.size()));
  }

  const int64_t step = runner.script().step_micros;
  for (const std::string& id : runner.source_ids()) {
    const Sniffer* sniffer = runner.grid().sniffer(id);
    if (sniffer == nullptr || sniffer->polls() == 0) continue;
    const LabelSet labels = {{"source", id}};
    ++out.checks;
    const int64_t polls =
        registry.GetCounter("trac_sniffer_polls_total", "", labels)->Value();
    if (polls != static_cast<int64_t>(sniffer->polls())) {
      Violation(&out, "poll counter of '" + id + "' is " +
                          std::to_string(polls) + ", sniffer polled " +
                          std::to_string(sniffer->polls()) + " times");
    }
    ++out.checks;
    const int64_t shipped =
        registry.GetCounter("trac_sniffer_records_shipped_total", "", labels)
            ->Value();
    if (shipped != static_cast<int64_t>(sniffer->records_shipped())) {
      Violation(&out, "shipped counter of '" + id + "' is " +
                          std::to_string(shipped) + ", sniffer shipped " +
                          std::to_string(sniffer->records_shipped()));
    }
    if (sniffer->has_shipped()) {
      ++out.checks;
      auto lag = gauges.find({"trac_sniffer_lag_micros", id});
      const int64_t expect =
          sniffer->last_poll() - sniffer->last_shipped_event();
      if (lag == gauges.end() || lag->second != expect) {
        Violation(&out, "lag gauge of '" + id + "' should be " +
                            FmtMicros(expect));
      }
    }
    // The backlog gauge snapshot is only recomputable when the last poll
    // happened after the most recent workload emission (otherwise it
    // reflects an older, smaller log — correct then, stale now).
    if (sniffer->last_poll() > now - step) {
      ++out.checks;
      auto backlog = gauges.find({"trac_sniffer_backlog_records", id});
      const int64_t expect = static_cast<int64_t>(
          runner.grid().source(id) == nullptr
              ? 0
              : runner.grid().source(id)->log().size() -
                    sniffer->records_shipped());
      if (backlog == gauges.end() || backlog->second != expect) {
        Violation(&out, "backlog gauge of '" + id + "' should be " +
                            std::to_string(expect) + " records");
      }
    } else {
      ++out.exemptions;
    }
  }
  return out;
}

OracleOutcome CheckTrace(const Tracer& tracer, const RecencyReport& report) {
  OracleOutcome out;
  const std::vector<SpanRecord> spans = tracer.CollectTrace(report.trace_id);
  ++out.checks;
  if (spans.empty()) {
    Violation(&out, "no spans recorded for the report's trace id");
    return out;
  }
  uint64_t root_id = 0;
  size_t roots = 0;
  for (const SpanRecord& span : spans) {
    if (span.parent_id == 0) {
      ++roots;
      root_id = span.span_id;
      if (span.name != "report") {
        Violation(&out, "root span is '" + span.name + "', not 'report'");
      }
    }
  }
  if (roots != 1) {
    Violation(&out, "expected exactly one root span, found " +
                        std::to_string(roots));
    return out;
  }
  uint64_t relevance_id = 0;
  std::set<std::string> child_names;
  for (const SpanRecord& span : spans) {
    if (span.parent_id != root_id) continue;
    child_names.insert(span.name);
    if (span.name == "relevance") relevance_id = span.span_id;
  }
  for (const char* want :
       {"parse", "plan", "verify", "user-query", "relevance", "stats"}) {
    ++out.checks;
    if (child_names.count(want) == 0) {
      Violation(&out, std::string("missing '") + want +
                          "' child span under the report root");
    }
  }
  for (const SpanRecord& span : spans) {
    if (span.name != "relevance-task") continue;
    ++out.checks;
    if (span.parent_id != relevance_id) {
      Violation(&out, "a relevance-task span is not parented under the "
                      "relevance span");
    }
  }
  return out;
}

OracleOutcome CheckStaticBounds(const RecencyReport& report) {
  OracleOutcome out;
  const uint64_t observed = report.relevance.sources.size();
  ++out.checks;
  if (observed < report.static_sources_lo) {
    Violation(&out, "observed " + std::to_string(observed) +
                        " relevant sources, below the static minimum " +
                        std::to_string(report.static_sources_lo));
  }
  if (report.static_sources_unbounded) {
    ++out.exemptions;  // No upper bound to check against.
  } else {
    ++out.checks;
    if (observed > report.static_sources_hi) {
      Violation(&out, "observed " + std::to_string(observed) +
                          " relevant sources, above the static maximum " +
                          std::to_string(report.static_sources_hi));
    }
  }
  return out;
}

OracleOutcome CheckProfileSoundness(const RecencyReport& report) {
  OracleOutcome out;
  if (report.profiled_ir.empty()) {
    ++out.exemptions;  // Profiling disabled for this report.
    return out;
  }
  Result<PlanIr> parsed = ParsePlanIr(report.profiled_ir);
  ++out.checks;
  if (!parsed.ok()) {
    Violation(&out, "profiled session IR does not re-parse: " +
                        parsed.status().ToString());
    return out;
  }
  ++out.checks;
  if (parsed->Dump() != report.profiled_ir) {
    Violation(&out,
              "profiled session IR does not round-trip byte-exactly "
              "through Dump/ParsePlanIr");
  }
  size_t annotated = 0;
  for (const IrNode& node : parsed->nodes) {
    if (node.has_actual_rows || node.has_actual_ns) ++annotated;
  }
  ++out.checks;
  if (annotated == 0) {
    Violation(&out, "profiled session IR carries no runtime annotations");
  }
  // Re-run the drift pass on the *parsed* IR: this exercises the whole
  // artifact path, not just the in-memory annotations.
  for (const ProfileDiagnostic& d : AnalyzeProfileDrift(*parsed)) {
    if (d.code != ProfileCode::kActualOutsideStaticBounds) continue;
    ++out.checks;
    Violation(&out, "profile soundness: " + d.Format());
  }
  ++out.checks;
  for (const ProfileDiagnostic& d : report.profile_drift) {
    if (d.code == ProfileCode::kActualOutsideStaticBounds) {
      Violation(&out, "report carries a TRAC-P001 finding: " + d.Format());
    }
  }
  return out;
}

OracleOutcome CheckReport(const ScenarioRunner& runner,
                          const RecencyReport& report,
                          const std::vector<std::string>& true_sources) {
  OracleOutcome out;
  out.Merge(CheckBoundDominance(runner, report));
  out.Merge(CheckZscoreAgreement(report.stats));
  out.Merge(CheckGuarantee(report, true_sources));
  out.Merge(CheckStaticBounds(report));
  out.Merge(CheckProfileSoundness(report));
  return out;
}

}  // namespace oracle
}  // namespace trac

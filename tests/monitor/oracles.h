#ifndef TRAC_TESTS_MONITOR_ORACLES_H_
#define TRAC_TESTS_MONITOR_ORACLES_H_

#include <string>
#include <vector>

#include "core/recency_reporter.h"
#include "monitor/scenario.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace trac {
namespace oracle {

/// Result of one oracle pass: how much was checked, how much was
/// legitimately exempt (lossy sources, stale gauges), and every
/// violation found. Oracles never assert — callers decide how to fail,
/// and the scenario shrinker needs the outcome as data.
struct OracleOutcome {
  size_t checks = 0;
  size_t exemptions = 0;
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  void Merge(const OracleOutcome& other);
  /// "PASS (42 checks, 1 exempt)" or "FAIL: <first violations...>".
  std::string Summary() const;
};

/// Oracle 1 — bound-of-inconsistency soundness. Against the simulator's
/// ground truth this checks that (a) every reported recency equals the
/// Heartbeat table's value, (b) the reported bound equals the recomputed
/// max - min over the normal sources (and in particular never
/// *underclaims* the true spread), (c) the least/most-recent extremes
/// are the true extremes, and (d) no non-lossy source's recency claim
/// overtakes its true shipping frontier — the DB never believes a
/// source has reported more than it actually delivered. Lossy sources
/// (log truncation genuinely breaks the heartbeat protocol's promise)
/// are exempted and counted.
OracleOutcome CheckBoundDominance(const ScenarioRunner& runner,
                                  const RecencyReport& report);

/// Oracle 2 — z-score classification agreement. Recomputes the
/// normal/exceptional partition from scratch (long-double accumulation,
/// population variance, strict |z| > threshold) and compares it to the
/// report's split. Sources whose |z| sits within 1e-9 relative of the
/// threshold are accepted either way (the recomputation is deliberately
/// *not* the production code path, so last-ulp disagreement at the
/// boundary is not a soundness bug) and counted as exemptions.
OracleOutcome CheckZscoreAgreement(const RecencyStats& stats,
                                   double threshold = 3.0);

/// Oracle 3 — recency guarantees never overclaim. `true_sources` is the
/// analytically known S(Q) of the query the report ran (sorted).
///   EXACT_MINIMUM -> reported set == S(Q);
///   UPPER_BOUND   -> reported set ⊇ S(Q);
///   EMPTY_SET     -> reported set empty and S(Q) empty.
OracleOutcome CheckGuarantee(const RecencyReport& report,
                             const std::vector<std::string>& true_sources);

/// Telemetry truth: every published gauge/counter the monitor layer
/// owns matches the simulator state. Staleness gauges are now - recency
/// for every source, `trac_monitor_sources` is the Heartbeat count, and
/// per polled sniffer the poll/shipped counters and the lag gauge are
/// recomputed exactly. The backlog gauge is only recomputable for
/// sniffers that polled during the most recent step (older publications
/// reflect a log size the simulator has since grown past); others are
/// counted exempt.
OracleOutcome CheckTelemetry(const ScenarioRunner& runner,
                             MetricRegistry& registry);

/// The report's span tree is complete: a single root "report" span with
/// parse/generate/plan/user-query/relevance/stats children, and every
/// "relevance-task" span parented under the relevance span.
OracleOutcome CheckTrace(const Tracer& tracer, const RecencyReport& report);

/// Oracle — profile soundness. A profiled report (options.profile set)
/// must yield a profiled session IR that (a) re-parses and
/// round-trips byte-exactly through Dump/ParsePlanIr, (b) carries at
/// least one runtime annotation, and (c) produces no TRAC-P001 drift
/// finding — an actual_rows outside the abstract interpreter's proven
/// cardinality interval would mean the static analysis (or the profiler
/// attribution) is unsound. The merge node carries the relevant-source
/// count, so (c) also checks that count against the proven source
/// interval. TRAC-P002 misestimate advisories are allowed. Unprofiled
/// reports are counted exempt.
OracleOutcome CheckProfileSoundness(const RecencyReport& report);

/// Composite: oracles 1-3 plus the profile-soundness oracle for one
/// report (`true_sources` as in CheckGuarantee).
OracleOutcome CheckReport(const ScenarioRunner& runner,
                          const RecencyReport& report,
                          const std::vector<std::string>& true_sources);

}  // namespace oracle
}  // namespace trac

#endif  // TRAC_TESTS_MONITOR_ORACLES_H_

#ifndef TRAC_TELEMETRY_PROFILE_H_
#define TRAC_TELEMETRY_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "ir/lower.h"
#include "ir/plan_ir.h"

namespace trac {

struct Telemetry;

/// Per-operator execution profiling — the "EXPLAIN ANALYZE" layer.
///
/// The executor (exec/executor.h) counts rows per pipeline stage into an
/// ExecProfile while it runs; the reporter collects one ExecProfile per
/// executed query (user query, each guard, each part main) plus the
/// walk/merge/stats numbers the relevance fan-out already measures into
/// a SessionProfile; AttachSessionProfile then writes the counters back
/// onto the session plan IR as `actual_rows=` / `actual_ns=` node
/// annotations, using the SessionLayout extents recorded at lowering
/// time. The annotated IR round-trips through Dump/ParsePlanIr, so a
/// profiled session is a plain corpus artifact any tool can re-analyze.
///
/// Overhead contract: row counters are unconditional plain increments on
/// thread-local state (no branches beyond what the executor already
/// takes); clock reads happen only when a profile sink is attached, and
/// only at stage boundaries (two per execution plus two per prepared
/// join level), through the injected ClockFn — never a raw clock
/// (common/clock.h).

/// Row counters of one query execution, one entry per plan level,
/// mirroring the lowering grammar of ir/lower.cc: per level a scan, an
/// optional local filter, and (for inner levels) a join plus an optional
/// level filter; then the optional constant filter and aggregate fold.
/// The structure flags record which optional stages the executed plan
/// had, so the attach walk never has to re-plan.
struct ExecProfile {
  struct Level {
    /// Rows the scan surfaced (visible versions the stage considered).
    uint64_t scan_rows = 0;
    /// Plan had a local filter stage (local index or local predicates).
    bool has_filter = false;
    /// Rows surviving the local predicates.
    uint64_t filter_rows = 0;
    /// Join pairs reaching this level (try_row invocations; inner
    /// levels only).
    uint64_t join_rows = 0;
    /// Plan had level (cross-relation) predicates at this level.
    bool has_level_filter = false;
    /// Join pairs surviving the level predicates.
    uint64_t level_rows = 0;
    /// Time spent preparing this level's candidates + hash build
    /// (inner levels only; 0 when no sink was attached).
    int64_t prepare_ns = 0;
  };
  std::vector<Level> levels;

  /// Plan had a constant-predicate filter (or was provably empty).
  bool has_const_filter = false;
  /// Query folds into an aggregate row (COUNT(*) or aggregate list).
  bool has_agg = false;
  /// Tuples that reached Emit() (pre-DISTINCT, pre-ORDER/LIMIT trim).
  uint64_t emitted_rows = 0;
  /// Rows in the final result set (1 for aggregates).
  uint64_t output_rows = 0;
  /// Wall time of the whole execution (0 when no sink was attached).
  int64_t total_ns = 0;
  /// Executions accumulated into this profile (1 per executor run).
  uint64_t invocations = 0;
};

/// Profile of one relevance execution task (core/relevance.h), which
/// runs one part: its guards, then its registry walk or main query.
struct TaskProfile {
  size_t part = 0;      ///< Index into RecencyQueryPlan::parts.
  uint64_t rows = 0;    ///< (source, recency) rows the task produced.
  int64_t micros = 0;   ///< Task wall time (same number the span records).
  /// One profile per executed guard, in execution order. A guard that
  /// returned empty stops the list — later guards and the main query
  /// (or walk) never ran.
  std::vector<ExecProfile> guards;
  ExecProfile main;  ///< Empty for a walk, which runs no plan.
  bool ran_main = false;  ///< The main query or walk ran.
};

/// Everything one report session executed, in the shape
/// AttachSessionProfile maps back onto the session IR.
struct SessionProfile {
  ExecProfile user;
  bool ran_user = false;
  /// One entry per executed relevance task, in plan-part order. A part
  /// skipped behind a registry walk (core/relevance.h) has none.
  std::vector<TaskProfile> tasks;
  uint64_t premerge_rows = 0;   ///< Task rows entering the set merge.
  uint64_t merged_rows = 0;     ///< Distinct sources after the merge.
  int64_t merge_micros = 0;     ///< Wall time of the merge fold.
  int64_t stats_micros = 0;     ///< Wall time of the stats phase.
  uint64_t normal_rows = 0;       ///< Rows written to sys_temp_a*.
  uint64_t exceptional_rows = 0;  ///< Rows written to sys_temp_e*.
};

/// Writes `profile` back onto `ir` as actual_rows=/actual_ns= node
/// annotations, using the subgraph extents `layout` recorded when the
/// session was lowered. Only nodes that demonstrably executed are
/// annotated: a skipped part, a guard-suppressed part main, or a
/// subgraph whose recorded shape no longer matches the profile, is
/// silently left bare (the drift pass judges only annotated nodes).
/// Returns the number of nodes annotated.
size_t AttachSessionProfile(PlanIr* ir, const SessionLayout& layout,
                            const SessionProfile& profile);

/// Estimate-drift rules over a profiled IR (TRAC-P namespace — runtime
/// profile findings, distinct from the static TRAC-V verifier rules).
enum class ProfileCode {
  /// TRAC-P001: an observed actual_rows falls outside the statically
  /// proven cardinality interval of its node (absint/domains.h). The
  /// static interval is sound by construction, so this is a soundness
  /// bug in the analysis, the lowering, or the profiler itself — the
  /// scenario harness wires it as a hard oracle.
  kActualOutsideStaticBounds = 1,
  /// TRAC-P002: a scan's planning-time row estimate overshoots the
  /// observed row count by at least kMisestimateFactor. Advisory only:
  /// printed for a human reading the profile, never an error.
  kMisestimate = 2,
};

/// TRAC-P002 fires when estimate >= kMisestimateFactor * max(actual, 1).
inline constexpr uint64_t kMisestimateFactor = 16;

std::string_view ProfileCodeId(ProfileCode code);

/// One drift finding, formatted like the verifier's diagnostics:
/// "[TRAC-P001] node 3 (scan): ...".
struct ProfileDiagnostic {
  ProfileCode code = ProfileCode::kActualOutsideStaticBounds;
  size_t node = 0;
  IrNodeKind kind = IrNodeKind::kScan;
  std::string message;

  std::string Format() const;
};

/// Runs the abstract interpreter over `ir` and compares every annotated
/// actual_rows against the proven static cardinality interval (P001) and
/// every annotated scan against its rows= estimate (P002). The returned
/// list is canonical: deduplicated by (code, node), stable-sorted by
/// (node, code). An IR with no actual annotations yields no findings.
/// The report path never calls this: readers of a recorded session
/// (trac_profile, trac_top, the scenario oracles) analyse its IR.
std::vector<ProfileDiagnostic> AnalyzeProfileDrift(const PlanIr& ir);

/// One flight-recorder entry: a fully profiled session, self-contained
/// (the IR text re-parses into the annotated plan).
struct SessionProfileRecord {
  uint64_t trace_id = 0;
  uint64_t snapshot = 0;
  std::string profiled_ir;  ///< Dump() of the annotated session IR.
  size_t annotated_nodes = 0;
};

/// Bounded ring of the last K profiled report sessions, for post-hoc
/// debugging ("what did the engine actually do just before this?").
/// Thread-safe; the mutex is a telemetry leaf (lock_rank::kTelemetry)
/// so recording is legal under any core lock.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 8;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(SessionProfileRecord record);

  /// The retained records, oldest first.
  [[nodiscard]] std::vector<SessionProfileRecord> Entries() const;

  size_t capacity() const { return capacity_; }
  /// Sessions ever recorded (>= Entries().size(); excess fell off).
  [[nodiscard]] uint64_t total_recorded() const;

  /// The process-wide default recorder.
  [[nodiscard]] static FlightRecorder& Default();

 private:
  const size_t capacity_;
  mutable Mutex mu_{lock_rank::kTelemetry, "FlightRecorder::mu_"};
  std::vector<SessionProfileRecord> ring_ TRAC_GUARDED_BY(mu_);
  size_t next_ TRAC_GUARDED_BY(mu_) = 0;  ///< Ring slot to overwrite.
  uint64_t total_ TRAC_GUARDED_BY(mu_) = 0;
};

/// `telemetry.recorder` if non-null, else the process default.
[[nodiscard]] FlightRecorder& ResolveFlightRecorder(const Telemetry& telemetry);

}  // namespace trac

#endif  // TRAC_TELEMETRY_PROFILE_H_

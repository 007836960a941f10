#ifndef TRAC_VERIFY_VERIFIER_H_
#define TRAC_VERIFY_VERIFIER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "ir/lower.h"
#include "ir/plan_ir.h"

namespace trac {

/// Static verifier over the plan dataflow IR (ir/plan_ir.h), run before
/// a plan executes in TRAC_DEBUG_INVARIANTS builds — the way LLVM/HLO
/// verifiers gate a compiler pipeline in its debug builds — and by
/// trac_verify and the tests. Each rule turns one clause of the reporting layer's
/// correctness contract into a machine check:
///
///   TRAC-V000  well-formed graph: every input edge references an
///              earlier node (node order is execution order, so forward
///              edges are impossible and cycles cannot form).
///   TRAC-V001  single-snapshot rule (Section 3.2): every scan in the
///              plan reads the same snapshot epoch.
///   TRAC-V002  temp tables: defined before use, and every temp node is
///              confined to one owning session.
///   TRAC-V004  provenance hygiene (Definition 2): relevant-source temp
///              writes carry a data-source column; order-sensitive
///              aggregates (sum/avg) never fold a data-source column;
///              generated plans never join a data-source column against
///              a regular column.
///
/// Rules V006 and V007 are semantic: they consume the abstract
/// interpreter's facts (absint/absint.h) instead of the node structure
/// alone, and fire only on IRs carrying the static annotations
/// (rows=/sel=/pred=) the lowering emits:
///
///   TRAC-V006  dead subplan feeding a merge: a strand gated by a
///              statically unsatisfiable predicate (`sel=zero`) can
///              never contribute rows to the rejoin.
///   TRAC-V007  redundant filter: a predicate fingerprint reapplied on
///              a dataflow path that already applied it on the same
///              provenance set.
///
/// TRAC-V003, TRAC-V005, TRAC-V008 and TRAC-V009..V016 are retired and
/// never reused.
enum class VerifyCode {
  kMalformedGraph = 0,     ///< TRAC-V000
  kSnapshotMismatch,       ///< TRAC-V001
  kTempUseBeforeDef,       ///< TRAC-V002
  kTempSessionEscape,      ///< TRAC-V002
  kProvenanceLeak,         ///< TRAC-V004
  kDeadMergeInput,         ///< TRAC-V006
  kRedundantFilter,        ///< TRAC-V007
};

/// Stable identifier, e.g. "TRAC-V001".
std::string_view VerifyCodeId(VerifyCode code);

/// One finding of the static verifier, anchored to an IR node.
struct VerifyDiagnostic {
  VerifyCode code = VerifyCode::kMalformedGraph;
  /// Id of the node the finding anchors to.
  size_t node = 0;
  /// Kind of that node, for self-contained rendering.
  IrNodeKind kind = IrNodeKind::kScan;
  std::string message;

  /// "[TRAC-V001] node 3 (scan): ...".
  std::string Format() const;
};

/// The verifier's result: pass/fail plus every finding. The diagnostic
/// list is canonical: deduplicated by (code, node) and stable-sorted by
/// (node, code), so renderings and --json output are byte-identical
/// regardless of pass order.
struct VerifyReport {
  std::vector<VerifyDiagnostic> diagnostics;

  bool ok() const { return diagnostics.empty(); }
  /// OK, or every finding folded into a single kInternal Status (a
  /// rejected plan is a library bug, not user error).
  [[nodiscard]] Status ToStatus() const;
  /// Multi-line lint-style block: header then one line per finding;
  /// "plan IR verified: N nodes, 0 diagnostics" when clean.
  std::string Format(const PlanIr& ir) const;
};

struct VerifyOptions {
  /// Run the abstract interpreter and the semantic rules V006/V007 it
  /// feeds. On by default so the debug-build checks (VerifyPlan, the
  /// reporter's session check) get full checking; trac_verify exposes it
  /// as the opt-in --absint flag to keep the structural view separable.
  bool absint = true;
};

/// Runs the full pass pipeline over `ir`. A TRAC-V000 finding
/// short-circuits the remaining passes (they assume a well-formed
/// graph). Never fails as a function — failures are diagnostics.
VerifyReport VerifyIr(const PlanIr& ir,
                      const VerifyOptions& options = VerifyOptions());

/// Convenience gate: VerifyIr(ir).ToStatus().
[[nodiscard]] Status VerifyIrStatus(const PlanIr& ir);

/// Lowers one planned query (LowerQueryPlan, no Heartbeat table named)
/// and verifies it. Debug- and test-only: ExecutePlan calls it on every
/// plan under TRAC_DEBUG_INVARIANTS; no release path does. Known gap
/// (TRAC-V007): with no Heartbeat table the registry's source_id
/// carries no provenance, so a conjunct set re-applied after a join with
/// the registry is flagged here while the report session, which lowers
/// with the registry, is not. Only hand-mutated plans hit it; the
/// planner never re-applies a conjunct set.
[[nodiscard]] Status VerifyPlan(const Database& db, const BoundQuery& query,
                                const QueryPlan& plan, Snapshot snapshot);

}  // namespace trac

#endif  // TRAC_VERIFY_VERIFIER_H_

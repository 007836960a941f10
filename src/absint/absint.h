#ifndef TRAC_ABSINT_ABSINT_H_
#define TRAC_ABSINT_ABSINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "absint/domains.h"
#include "ir/plan_ir.h"

namespace trac {
namespace absint {

/// Abstract interpretation over the plan dataflow IR: one ascending pass
/// in node order propagating two lattice domains (absint/domains.h)
/// through every node —
///
///   provenance  per-column data-source sets (Definition 2), seeded at
///               scans from the scanned table, unioned through joins
///               and merges;
///   cardinality row-count intervals from `rows=` scan annotations,
///               narrowed by filters (`sel=zero` collapses to [0..0]),
///               multiplied through joins, summed at merges;
///
/// plus the `dead` flag and the applied-predicate must-set. The results
/// feed the TRAC-V006/V007 semantic verifier rules (verify/verifier.h)
/// and the TRAC-P001 profile-drift rule (telemetry/profile.h), which
/// readers of a recorded session run over its profiled IR.
struct NodeFacts {
  /// One provenance set per output column (aligned with
  /// IrNode::columns). Regular columns stay empty; data-source columns
  /// carry the source-declaring relations they may identify.
  std::vector<SourceSet> column_sources;
  /// Union over `column_sources`: every source relation whose identity
  /// any column of this node can carry.
  SourceSet sources;
  CardInterval card;
  /// The node provably produces no rows because a statically
  /// unsatisfiable predicate (`sel=zero`) gates it. Deliberately NOT
  /// implied by an empty table (`rows=0`): emptiness at one snapshot is
  /// data, a refuted predicate is a plan property (TRAC-V006 fires only
  /// on the latter).
  bool dead = false;
  /// Must-set of predicate fingerprints already applied to every row
  /// reaching this node, each with the provenance set it was applied
  /// on. Filters union in their own fingerprint; merges intersect
  /// (a merged row passed only its own branch's filters); aggregates
  /// reset (output rows are not input rows).
  std::map<uint64_t, SourceSet> applied_preds;
};

struct AbsintResult {
  /// One fact set per IR node (facts[i] belongs to node id i).
  std::vector<NodeFacts> facts;

  /// Deterministic per-node fact table; appended to trac_verify output
  /// under --dump-absint and byte-pinned by the absint goldens.
  std::string Dump(const PlanIr& ir) const;
};

/// Analyzes every node once, in id order. On a well-formed IR (every
/// edge backward, as TRAC-V000 checks) that is the least fixpoint. Never
/// fails: unknown annotations are bottom/unbounded, out-of-range input
/// edges are ignored, and a forward or self edge reads its input at
/// bottom (the structural verifier rule TRAC-V000 owns rejecting those).
AbsintResult AnalyzeIr(const PlanIr& ir);

}  // namespace absint
}  // namespace trac

#endif  // TRAC_ABSINT_ABSINT_H_

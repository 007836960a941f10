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

/// Abstract interpretation over the plan dataflow IR: a worklist
/// fixpoint engine propagating three lattice domains (absint/domains.h)
/// through every node —
///
///   provenance  per-column data-source sets (Definition 2), seeded at
///               scans from the scanned table, unioned through joins
///               and merges;
///   staleness   source-age intervals from the `age=` annotations the
///               lowering reads out of the Heartbeat registry; the
///               interval width reaching the report node is a static
///               bound of inconsistency that must dominate whatever the
///               runtime stats phase observes;
///   cardinality row-count intervals from `rows=` scan annotations,
///               narrowed by filters (`sel=zero` collapses to [0..0]),
///               multiplied through joins, summed at merges.
///
/// The results feed the TRAC-V005..V008 semantic verifier rules
/// (verify/verifier.h) and, through the fixpoint the verifier hands
/// back, the reporter's static-bounds fields checked by the
/// scenario-harness oracle.
struct NodeFacts {
  /// One provenance set per output column (aligned with
  /// IrNode::columns). Regular columns stay empty; data-source columns
  /// carry the source-declaring relations they may identify.
  std::vector<SourceSet> column_sources;
  /// Union over `column_sources`: every source relation whose identity
  /// any column of this node can carry.
  SourceSet sources;
  StalenessInterval staleness;
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

  bool operator==(const NodeFacts& other) const {
    return column_sources == other.column_sources &&
           sources == other.sources && staleness == other.staleness &&
           card == other.card && dead == other.dead &&
           applied_preds == other.applied_preds;
  }
  bool operator!=(const NodeFacts& other) const { return !(*this == other); }
};

struct AbsintResult {
  /// One fact set per IR node (facts[i] belongs to node id i).
  std::vector<NodeFacts> facts;
  /// Worklist pops until the fixpoint settled.
  size_t iterations = 0;
  /// False only when the iteration cap fired before the facts settled
  /// (possible on ill-formed graphs with forward edges; a well-formed
  /// plan IR is a DAG in execution order and always converges).
  bool converged = false;

  /// Deterministic per-node fact table; appended to trac_verify output
  /// under --dump-absint and byte-pinned by the absint goldens.
  std::string Dump(const PlanIr& ir) const;
};

/// Runs the engine to fixpoint. Never fails: unknown annotations are
/// bottom/unbounded, out-of-range input edges are ignored (the
/// structural verifier rule TRAC-V000 owns rejecting those).
AbsintResult AnalyzeIr(const PlanIr& ir);

}  // namespace absint
}  // namespace trac

#endif  // TRAC_ABSINT_ABSINT_H_

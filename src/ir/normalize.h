#ifndef TRAC_IR_NORMALIZE_H_
#define TRAC_IR_NORMALIZE_H_

#include <string>
#include <vector>

#include "ir/plan_ir.h"

namespace trac {

/// Canonicalization of the plan IR, below the verifier in the layer
/// stack so the equivalence checker (verify/equiv.h) and trac_verify
/// --equiv can consume it without a dependency edge back up.

/// Dense ids and strictly-backward input edges — the property TRAC-V000
/// enforces and every canonicalization here relies on (node order is
/// execution order, so a well-formed IR is a DAG by construction). On
/// failure `*bad_node` names the first offending node.
bool IrWellFormed(const PlanIr& ir, size_t* bad_node);

/// Structural signature of one node: every semantic attribute except
/// the id and the input edge targets (the topology itself already
/// constrains those). Used as the deterministic tie-break between
/// simultaneously-ready nodes during normalization.
std::string IrNodeSignature(const IrNode& n);

/// Canonicalizes an IR without changing its meaning:
///   - nodes are re-ordered into a deterministic topological order
///     (ready nodes tie-broken by a structural signature, then original
///     id) and renumbered densely, with input edges remapped;
///   - order-insensitive (set) merge inputs are sorted.
/// Idempotent: NormalizeIr(NormalizeIr(x)) == NormalizeIr(x), and
/// Dump/ParsePlanIr round-trips are fixpoints of it (property-tested).
/// A malformed graph (non-dense ids or a non-backward input edge) is
/// returned as an unmodified copy — rejecting it is TRAC-V000's job.
PlanIr NormalizeIr(const PlanIr& ir);

/// As NormalizeIr; additionally fills `original_id` so that
/// (*original_id)[k] is the id node k of the result had in `ir`.
PlanIr NormalizeIr(const PlanIr& ir, std::vector<size_t>* original_id);

}  // namespace trac

#endif  // TRAC_IR_NORMALIZE_H_

#ifndef TRAC_VERIFY_EQUIV_H_
#define TRAC_VERIFY_EQUIV_H_

#include "ir/normalize.h"
#include "ir/plan_ir.h"
#include "verify/verifier.h"

namespace trac {

/// Static plan-IR equivalence checker: the proof engine behind the
/// optimizer's translation validation (opt/rewrite.h). Whole-plan query
/// equivalence under access restrictions is undecidable (Martinenghi),
/// so the checker is deliberately conservative: it normalizes both IRs
/// into a canonical form and discharges four decidable obligations —
/// TRAC-V009 (predicate residue preserved modulo placement), TRAC-V010
/// (per-column provenance preserved, Definition 2), TRAC-V011 (snapshot
/// epochs and merge determinism unchanged), TRAC-V012 (static
/// staleness/NOTICE bound not weakened). A clean report means the
/// rewrite provably preserves the recency-reporting contract; a finding
/// means the rewrite must be discarded, never that planning fails.
///
/// NormalizeIr, the canonicalization this checker builds on, lives in
/// ir/normalize.h (re-exported via the include above so existing callers
/// keep compiling).

/// Discharges the four equivalence obligations over a (before, after)
/// rewrite witness. Diagnostics are anchored at nodes of `after` (the
/// artifact under scrutiny); a malformed input on either side produces
/// a single TRAC-V000 finding and no further checking. Never fails as a
/// function: a non-empty report simply means "not provably equivalent".
VerifyReport CheckIrEquivalence(const PlanIr& before, const PlanIr& after);

}  // namespace trac

#endif  // TRAC_VERIFY_EQUIV_H_

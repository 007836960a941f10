#include "verify/verifier.h"

#include <algorithm>
#include <map>

#include "absint/absint.h"

namespace trac {

namespace {

void Report(VerifyReport* report, VerifyCode code, const IrNode& node,
            std::string message) {
  VerifyDiagnostic d;
  d.code = code;
  d.node = node.id;
  d.kind = node.kind;
  d.message = std::move(message);
  report->diagnostics.push_back(std::move(d));
}

/// TRAC-V000: ids dense and ascending, every edge points backward.
/// Returns false on any finding; the later passes index nodes by id and
/// assume edges are backward, so a malformed graph short-circuits.
bool CheckStructure(const PlanIr& ir, VerifyReport* report) {
  bool ok = true;
  for (size_t i = 0; i < ir.nodes.size(); ++i) {
    const IrNode& n = ir.nodes[i];
    if (n.id != i) {
      Report(report, VerifyCode::kMalformedGraph, n,
             "node id " + std::to_string(n.id) + " at position " +
                 std::to_string(i) + "; ids must be dense and ascending");
      ok = false;
      continue;
    }
    for (size_t in : n.inputs) {
      if (in >= n.id) {
        Report(report, VerifyCode::kMalformedGraph, n,
               "input edge to node " + std::to_string(in) +
                   " does not point backward; node order is execution "
                   "order, so forward edges (and thus cycles) are "
                   "ill-formed");
        ok = false;
      }
    }
  }
  return ok;
}

/// TRAC-V001: every scan reads the same snapshot epoch (Section 3.2:
/// the user query and its recency queries see one database state).
void CheckSingleSnapshot(const PlanIr& ir, VerifyReport* report) {
  bool have_epoch = false;
  uint64_t epoch = 0;
  size_t epoch_node = 0;
  for (const IrNode& n : ir.nodes) {
    if (n.kind != IrNodeKind::kScan) continue;
    if (!have_epoch) {
      have_epoch = true;
      epoch = n.snapshot;
      epoch_node = n.id;
      continue;
    }
    if (n.snapshot != epoch) {
      Report(report, VerifyCode::kSnapshotMismatch, n,
             "scan of '" + n.table + "' reads snapshot epoch " +
                 std::to_string(n.snapshot) + " but node " +
                 std::to_string(epoch_node) + " reads epoch " +
                 std::to_string(epoch) +
                 "; a report session must read one snapshot");
    }
  }
}

/// TRAC-V002: temp tables are defined (kTempWrite) before any
/// non-preexisting scan uses them, and every temp node belongs to the
/// same single session.
void CheckTempTables(const PlanIr& ir, VerifyReport* report) {
  std::map<std::string, size_t> defined;  // temp name -> defining node.
  bool have_session = false;
  uint64_t session = 0;
  size_t session_node = 0;
  for (const IrNode& n : ir.nodes) {
    if (n.kind == IrNodeKind::kScan && IsTempTableName(n.table) &&
        !n.preexisting_temp && defined.find(n.table) == defined.end()) {
      Report(report, VerifyCode::kTempUseBeforeDef, n,
             "scan of temp table '" + n.table +
                 "' has no earlier in-plan definition and is not marked "
                 "preexisting");
    }
    const bool is_temp_node =
        n.kind == IrNodeKind::kTempWrite ||
        (n.kind == IrNodeKind::kScan && IsTempTableName(n.table) &&
         !n.preexisting_temp);
    if (is_temp_node) {
      if (n.kind == IrNodeKind::kTempWrite && n.session == 0) {
        Report(report, VerifyCode::kTempSessionEscape, n,
               "temp write to '" + n.table +
                   "' is not owned by any session (session=0); temp "
                   "tables are session-confined");
      } else if (n.session != 0) {
        if (!have_session) {
          have_session = true;
          session = n.session;
          session_node = n.id;
        } else if (n.session != session) {
          Report(report, VerifyCode::kTempSessionEscape, n,
                 "temp table '" + n.table + "' belongs to session " +
                     std::to_string(n.session) + " but node " +
                     std::to_string(session_node) + " belongs to session " +
                     std::to_string(session) +
                     "; a plan may touch only its own session's temps");
        }
      }
    }
    if (n.kind == IrNodeKind::kTempWrite) defined[n.table] = n.id;
  }
}

/// TRAC-V004: provenance hygiene on the plan (Definition 2). (a) A
/// relevant-source temp write must carry at least one data-source
/// column — losing it severs the report from source identity. (b)
/// Sum/avg folds over a data-source column treat source identity as a
/// quantity. (c) Every input of a generated merge carries at least one
/// data-source column: each recency part exists to deliver source
/// identity to the rejoin, and a part whose output lost every
/// data-source column can only contribute garbage. No per-edge join
/// rule exists on purpose — equality with the registry key legally
/// confers source identity on a regular column (Notation 7's
/// substitution), so a mixed-provenance join is not evidence of a bug.
void CheckProvenance(const PlanIr& ir, VerifyReport* report) {
  for (const IrNode& n : ir.nodes) {
    if (n.kind == IrNodeKind::kTempWrite) {
      bool has_source = false;
      for (const IrColumn& c : n.columns) {
        has_source = has_source || c.provenance == ColumnProvenance::kDataSource;
      }
      if (!has_source) {
        Report(report, VerifyCode::kProvenanceLeak, n,
               "temp write to '" + n.table +
                   "' carries no data-source column; the relevant-source "
                   "set would lose source identity");
      }
    }
    if (n.kind == IrNodeKind::kAggregate) {
      for (const IrNode::Agg& a : n.aggs) {
        if ((a.fn == "sum" || a.fn == "avg") &&
            a.arg == ColumnProvenance::kDataSource) {
          Report(report, VerifyCode::kProvenanceLeak, n,
                 a.fn + " folds a data-source column; source identity is "
                        "not a quantity");
        }
      }
    }
    if (n.kind == IrNodeKind::kMerge && n.generated) {
      for (size_t in : n.inputs) {
        bool has_source = false;
        for (const IrColumn& c : ir.nodes[in].columns) {
          has_source =
              has_source || c.provenance == ColumnProvenance::kDataSource;
        }
        if (!has_source) {
          Report(report, VerifyCode::kProvenanceLeak, n,
                 "merge input node " + std::to_string(in) +
                     " carries no data-source column; the recency part "
                     "lost source identity before the rejoin");
        }
      }
    }
  }
}

std::string HexFingerprint(uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (size_t i = 0; i < 16; ++i) {
    out[15 - i] = kHex[(v >> (i * 4)) & 0xf];
  }
  return out;
}

/// TRAC-V006/V007: the semantic rules over the abstract interpreter's
/// facts (absint/absint.h). Only annotated IRs can trip them —
/// un-annotated corpus files analyze to bottom everywhere and stay
/// clean, which keeps the rules backward-compatible by construction.
void CheckAbsint(const PlanIr& ir, const absint::AbsintResult& res,
                 VerifyReport* report) {
  for (const IrNode& n : ir.nodes) {
    // TRAC-V006: a merge strand gated by a statically refuted predicate
    // can never contribute rows. Keyed on the dead flag, NOT on an
    // empty cardinality interval: an empty table is a property of one
    // snapshot's data, a refuted predicate is a property of the plan.
    if (n.kind == IrNodeKind::kMerge) {
      for (size_t in : n.inputs) {
        if (in < res.facts.size() && res.facts[in].dead) {
          Report(report, VerifyCode::kDeadMergeInput, n,
                 "merge input node " + std::to_string(in) +
                     " is a dead subplan (statically unsatisfiable "
                     "predicate upstream); the strand can never "
                     "contribute rows");
        }
      }
    }

    // TRAC-V007: the filter's predicate was already applied on this
    // dataflow path, on the same provenance set — i.e. against rows of
    // the same source universe, so the reapplication is a no-op.
    if (n.kind == IrNodeKind::kFilter && n.has_pred && !n.inputs.empty() &&
        n.inputs[0] < res.facts.size()) {
      const absint::NodeFacts& in0 = res.facts[n.inputs[0]];
      auto it = in0.applied_preds.find(n.pred_fingerprint);
      if (it != in0.applied_preds.end() && it->second == in0.sources) {
        Report(report, VerifyCode::kRedundantFilter, n,
               "predicate " + HexFingerprint(n.pred_fingerprint) +
                   " was already applied upstream on the same provenance "
                   "set " + it->second.ToString() +
                   "; the filter is redundant");
      }
    }
  }
}

/// Canonicalizes the finding list: dedupe by (code, node) keeping the
/// first (most specific) message, then stable-sort by (node, code).
/// This makes renderings and --json byte-identical regardless of which
/// pass found what first.
void CanonicalizeDiagnostics(VerifyReport* report) {
  std::map<std::pair<size_t, VerifyCode>, size_t> first;
  std::vector<VerifyDiagnostic> kept;
  kept.reserve(report->diagnostics.size());
  for (VerifyDiagnostic& d : report->diagnostics) {
    if (first.emplace(std::make_pair(d.node, d.code), kept.size()).second) {
      kept.push_back(std::move(d));
    }
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const VerifyDiagnostic& a, const VerifyDiagnostic& b) {
                     if (a.node != b.node) return a.node < b.node;
                     return a.code < b.code;
                   });
  report->diagnostics = std::move(kept);
}

}  // namespace

std::string_view VerifyCodeId(VerifyCode code) {
  switch (code) {
    case VerifyCode::kMalformedGraph:
      return "TRAC-V000";
    case VerifyCode::kSnapshotMismatch:
      return "TRAC-V001";
    case VerifyCode::kTempUseBeforeDef:
    case VerifyCode::kTempSessionEscape:
      return "TRAC-V002";
    case VerifyCode::kProvenanceLeak:
      return "TRAC-V004";
    case VerifyCode::kDeadMergeInput:
      return "TRAC-V006";
    case VerifyCode::kRedundantFilter:
      return "TRAC-V007";
  }
  return "TRAC-V???";
}

std::string VerifyDiagnostic::Format() const {
  std::string out = "[";
  out += VerifyCodeId(code);
  out += "] node " + std::to_string(node) + " (";
  out += IrNodeKindToString(kind);
  out += "): " + message;
  return out;
}

std::string VerifyReport::Format(const PlanIr& ir) const {
  std::string out = "plan IR '" + ir.label +
                    "': " + std::to_string(ir.nodes.size()) + " nodes, " +
                    std::to_string(diagnostics.size()) + " diagnostic" +
                    (diagnostics.size() == 1 ? "" : "s") + "\n";
  for (const VerifyDiagnostic& d : diagnostics) {
    out += "  " + d.Format() + "\n";
  }
  return out;
}

VerifyReport VerifyIr(const PlanIr& ir, const VerifyOptions& options) {
  VerifyReport report;
  if (!CheckStructure(ir, &report)) {
    CanonicalizeDiagnostics(&report);
    return report;
  }
  CheckSingleSnapshot(ir, &report);
  CheckTempTables(ir, &report);
  CheckProvenance(ir, &report);
  if (options.absint) {
    CheckAbsint(ir, absint::AnalyzeIr(ir), &report);
  }
  CanonicalizeDiagnostics(&report);
  return report;
}

[[nodiscard]] Status VerifyPlan(const Database& db, const BoundQuery& query,
                  const QueryPlan& plan, Snapshot snapshot) {
  return VerifyIrStatus(LowerQueryPlan(db, query, plan, snapshot));
}

Status VerifyReport::ToStatus() const {
  if (ok()) return Status::OK();
  std::string msg = "plan verification failed (" +
                    std::to_string(diagnostics.size()) + " finding" +
                    (diagnostics.size() == 1 ? "" : "s") + "): " +
                    diagnostics.front().Format();
  return Status::Internal(std::move(msg));
}

[[nodiscard]] Status VerifyIrStatus(const PlanIr& ir) {
  return VerifyIr(ir).ToStatus();
}

}  // namespace trac

#include "verify/equiv.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "absint/absint.h"
#include "ir/normalize.h"

namespace trac {

namespace {

std::string HexFingerprint(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return std::string(buf);
}

char ProvenanceChar(ColumnProvenance p) {
  return p == ColumnProvenance::kDataSource ? 'd' : 'r';
}

/// Same dedupe/sort discipline the verifier applies: stable-sort by
/// (node, code), drop duplicate (code, node) pairs.
void Canonicalize(VerifyReport* report) {
  std::stable_sort(report->diagnostics.begin(), report->diagnostics.end(),
                   [](const VerifyDiagnostic& a, const VerifyDiagnostic& b) {
                     if (a.node != b.node) return a.node < b.node;
                     return a.code < b.code;
                   });
  std::set<std::pair<VerifyCode, size_t>> seen;
  std::vector<VerifyDiagnostic> kept;
  for (VerifyDiagnostic& d : report->diagnostics) {
    if (seen.insert({d.code, d.node}).second) kept.push_back(std::move(d));
  }
  report->diagnostics = std::move(kept);
}

void Report(VerifyReport* report, const PlanIr& ir, VerifyCode code,
            size_t node, std::string message) {
  VerifyDiagnostic d;
  d.code = code;
  d.node = node;
  d.kind = node < ir.nodes.size() ? ir.nodes[node].kind : IrNodeKind::kScan;
  d.message = std::move(message);
  report->diagnostics.push_back(std::move(d));
}

/// The node whose output leaves the plan: by the execution-order
/// convention that is the last node.
size_t SinkId(const PlanIr& ir) { return ir.nodes.size() - 1; }

std::set<uint64_t> PredResidue(const PlanIr& ir) {
  std::set<uint64_t> residue;
  for (const IrNode& n : ir.nodes) {
    if (n.kind == IrNodeKind::kFilter && n.has_pred) {
      residue.insert(n.pred_fingerprint);
    }
  }
  return residue;
}

std::set<uint64_t> ScanEpochs(const PlanIr& ir) {
  std::set<uint64_t> epochs;
  for (const IrNode& n : ir.nodes) {
    if (n.kind == IrNodeKind::kScan) epochs.insert(n.snapshot);
  }
  return epochs;
}

std::string EpochSetToString(const std::set<uint64_t>& s) {
  std::string out = "{";
  for (auto it = s.begin(); it != s.end(); ++it) {
    if (it != s.begin()) out += ',';
    out += std::to_string(*it);
  }
  return out + "}";
}

/// Multiset of merge determinism contracts, rendered for the message.
std::multiset<std::string> MergeContracts(const PlanIr& ir) {
  std::multiset<std::string> contracts;
  for (const IrNode& n : ir.nodes) {
    if (n.kind != IrNodeKind::kMerge) continue;
    std::string c = n.set_merge ? "set" : "bag";
    if (n.sorted) c += "+sorted";
    contracts.insert(c);
  }
  return contracts;
}

/// The sink's column frame with the absint-inferred per-column source
/// sets folded in: name -> (provenance class, joined source set).
std::map<std::string, std::pair<ColumnProvenance, absint::SourceSet>>
SinkFrame(const PlanIr& ir, const absint::AbsintResult& analysis) {
  std::map<std::string, std::pair<ColumnProvenance, absint::SourceSet>> frame;
  const IrNode& sink = ir.nodes[SinkId(ir)];
  const absint::NodeFacts& facts = analysis.facts[sink.id];
  for (size_t c = 0; c < sink.columns.size(); ++c) {
    auto& slot = frame[sink.columns[c].name];
    slot.first = sink.columns[c].provenance;
    if (c < facts.column_sources.size()) {
      slot.second.JoinWith(facts.column_sources[c]);
    }
  }
  return frame;
}

}  // namespace

VerifyReport CheckIrEquivalence(const PlanIr& before, const PlanIr& after) {
  VerifyReport report;
  size_t bad = 0;
  if (before.nodes.empty() || !IrWellFormed(before, &bad)) {
    Report(&report, after, VerifyCode::kMalformedGraph, 0,
           "equivalence witness rejected: the original IR is malformed");
    Canonicalize(&report);
    return report;
  }
  if (after.nodes.empty() || !IrWellFormed(after, &bad)) {
    Report(&report, after, VerifyCode::kMalformedGraph,
           after.nodes.empty() ? 0 : bad,
           "equivalence witness rejected: the rewritten IR is malformed");
    Canonicalize(&report);
    return report;
  }

  // Fast path: a rewrite that only changed non-semantic order (node
  // numbering, set-merge input order) normalizes to the byte-identical
  // IR, and access-path-only rewrites do not change the IR at all.
  {
    PlanIr nb = NormalizeIr(before);
    PlanIr na = NormalizeIr(after);
    nb.label = na.label;
    if (nb.Dump() == na.Dump()) return report;
  }

  const absint::AbsintResult before_facts = absint::AnalyzeIr(before);
  const absint::AbsintResult after_facts = absint::AnalyzeIr(after);
  const size_t sink = SinkId(after);

  // -- TRAC-V009: predicate residue preserved modulo placement. The
  // residue is the *set* of filter fingerprints, so re-placing a
  // conjunct group or dropping a literally duplicated filter is legal;
  // inventing or losing a conjunct group is not.
  const std::set<uint64_t> res_before = PredResidue(before);
  const std::set<uint64_t> res_after = PredResidue(after);
  for (uint64_t fp : res_after) {
    if (res_before.count(fp) != 0) continue;
    size_t anchor = sink;
    for (const IrNode& n : after.nodes) {
      if (n.kind == IrNodeKind::kFilter && n.has_pred &&
          n.pred_fingerprint == fp) {
        anchor = n.id;
        break;
      }
    }
    Report(&report, after, VerifyCode::kPredicateResidueMismatch, anchor,
           "filter applies predicate fingerprint " + HexFingerprint(fp) +
               " that the original plan never applies");
  }
  for (uint64_t fp : res_before) {
    if (res_after.count(fp) != 0) continue;
    Report(&report, after, VerifyCode::kPredicateResidueMismatch, sink,
           "predicate fingerprint " + HexFingerprint(fp) +
               " applied by the original plan is missing from the rewrite");
  }

  // -- TRAC-V010: provenance preserved at every output column
  // (Definition 2): same column names, same provenance classes, and the
  // same inferred data-source set per column. The frame is compared as a
  // name-keyed set: column order is presentation, not provenance.
  const auto frame_before = SinkFrame(before, before_facts);
  const auto frame_after = SinkFrame(after, after_facts);
  for (const auto& [name, slot] : frame_before) {
    auto it = frame_after.find(name);
    if (it == frame_after.end()) {
      Report(&report, after, VerifyCode::kProvenanceNotPreserved, sink,
             "output column '" + name +
                 "' of the original plan is missing from the rewrite");
    } else if (it->second.first != slot.first) {
      Report(&report, after, VerifyCode::kProvenanceNotPreserved, sink,
             "output column '" + name + "' changed provenance class " +
                 ProvenanceChar(slot.first) + std::string(" -> ") +
                 ProvenanceChar(it->second.first));
    } else if (it->second.second != slot.second) {
      Report(&report, after, VerifyCode::kProvenanceNotPreserved, sink,
             "output column '" + name +
                 "' changed its inferred data-source set " +
                 slot.second.ToString() + " -> " +
                 it->second.second.ToString());
    }
  }
  for (const auto& [name, slot] : frame_after) {
    (void)slot;
    if (frame_before.count(name) == 0) {
      Report(&report, after, VerifyCode::kProvenanceNotPreserved, sink,
             "output column '" + name +
                 "' does not exist in the original plan");
    }
  }

  // -- TRAC-V011: snapshot-epoch set and merge determinism contracts
  // unchanged. The single-snapshot rule (TRAC-V001) is checked per IR;
  // here the obligation is that the rewrite did not *move* the plan to
  // different epochs or relax how parallel strands rejoin.
  const std::set<uint64_t> epochs_before = ScanEpochs(before);
  const std::set<uint64_t> epochs_after = ScanEpochs(after);
  if (epochs_before != epochs_after) {
    size_t anchor = sink;
    for (const IrNode& n : after.nodes) {
      if (n.kind == IrNodeKind::kScan && epochs_before.count(n.snapshot) == 0) {
        anchor = n.id;
        break;
      }
    }
    Report(&report, after, VerifyCode::kSnapshotContractChanged, anchor,
           "scan snapshot-epoch set changed " +
               EpochSetToString(epochs_before) + " -> " +
               EpochSetToString(epochs_after));
  }
  const std::multiset<std::string> merges_before = MergeContracts(before);
  const std::multiset<std::string> merges_after = MergeContracts(after);
  if (merges_before != merges_after) {
    size_t anchor = sink;
    for (const IrNode& n : after.nodes) {
      if (n.kind == IrNodeKind::kMerge) {
        anchor = n.id;
        break;
      }
    }
    Report(&report, after, VerifyCode::kSnapshotContractChanged, anchor,
           "merge determinism contract changed across the rewrite");
  }

  Canonicalize(&report);
  return report;
}

}  // namespace trac

#include "absint/absint.h"

#include <algorithm>

namespace trac {
namespace absint {

namespace {

// In-range input ids only; TRAC-V000 owns rejecting the rest.
std::vector<size_t> UsableInputs(const IrNode& n, size_t num_nodes) {
  std::vector<size_t> in;
  in.reserve(n.inputs.size());
  for (size_t id : n.inputs) {
    if (id < num_nodes) in.push_back(id);
  }
  return in;
}

// Fallback column rule when inputs do not align positionally (merge and
// aggregate rename/reshape columns): a data-source column may carry any
// source identity its inputs carry; a regular column carries none.
void ColumnsFromUnion(const IrNode& n, const SourceSet& input_union,
                      NodeFacts* f) {
  f->column_sources.assign(n.columns.size(), SourceSet{});
  for (size_t i = 0; i < n.columns.size(); ++i) {
    if (n.columns[i].provenance == ColumnProvenance::kDataSource) {
      f->column_sources[i] = input_union;
    }
  }
}

NodeFacts Transfer(const PlanIr& ir, const IrNode& n,
                   const std::vector<NodeFacts>& facts) {
  const size_t num_nodes = ir.nodes.size();
  const std::vector<size_t> in = UsableInputs(n, num_nodes);

  SourceSet input_union;
  for (size_t id : in) input_union.JoinWith(facts[id].sources);

  NodeFacts f;
  switch (n.kind) {
    case IrNodeKind::kScan: {
      f.column_sources.assign(n.columns.size(), SourceSet{});
      for (size_t i = 0; i < n.columns.size(); ++i) {
        if (n.columns[i].provenance == ColumnProvenance::kDataSource) {
          f.column_sources[i].Insert(n.table);
        }
      }
      f.card = n.has_rows ? CardInterval::UpTo(n.rows)
                          : CardInterval::Unknown();
      break;
    }
    case IrNodeKind::kFilter: {
      // Input 0 is the filtered stream; further inputs are guard gates
      // (the filter emits nothing when a gate subplan is empty).
      const NodeFacts* in0 = in.empty() ? nullptr : &facts[in[0]];
      if (in0 != nullptr &&
          in0->column_sources.size() == n.columns.size()) {
        f.column_sources = in0->column_sources;
      } else {
        ColumnsFromUnion(n, input_union, &f);
      }
      f.card = in0 != nullptr ? in0->card : CardInterval::Unknown();
      f.card.lo = 0;  // A filter may reject every row.
      for (size_t id : in) f.dead = f.dead || facts[id].dead;
      if (n.sel_zero) f.dead = true;
      if (f.dead) f.card = CardInterval::Exact(0);
      if (in0 != nullptr) f.applied_preds = in0->applied_preds;
      if (n.has_pred) {
        // Record the provenance context the predicate was applied on;
        // TRAC-V007 compares contexts before calling a reapplication
        // redundant. insert() keeps the outermost (first) context.
        f.applied_preds.insert(
            {n.pred_fingerprint,
             in0 != nullptr ? in0->sources : SourceSet{}});
      }
      break;
    }
    case IrNodeKind::kJoin: {
      // Output columns are the concatenation of the input edges when
      // the arities line up; otherwise fall back to the union rule.
      size_t total = 0;
      for (size_t id : in) total += facts[id].column_sources.size();
      if (!in.empty() && total == n.columns.size()) {
        f.column_sources.reserve(total);
        for (size_t id : in) {
          f.column_sources.insert(f.column_sources.end(),
                                  facts[id].column_sources.begin(),
                                  facts[id].column_sources.end());
        }
      } else {
        ColumnsFromUnion(n, input_union, &f);
      }
      f.card = in.empty() ? CardInterval::Unknown()
                          : facts[in[0]].card;
      for (size_t i = 1; i < in.size(); ++i) {
        f.card = CardInterval::Product(f.card, facts[in[i]].card);
      }
      if (in.size() < 2) f.card.lo = 0;
      for (size_t id : in) f.dead = f.dead || facts[id].dead;
      if (f.dead) f.card = CardInterval::Exact(0);
      // A joined row satisfied every predicate of both inputs.
      for (size_t id : in) {
        for (const auto& [fp, ctx] : facts[id].applied_preds) {
          f.applied_preds.insert({fp, ctx});
        }
      }
      break;
    }
    case IrNodeKind::kAggregate: {
      ColumnsFromUnion(n, input_union, &f);
      // The fold always emits exactly one row (COUNT over an empty
      // input is still a 0-count row), so a dead input does NOT make
      // the aggregate dead and its cardinality is exact.
      f.card = CardInterval::Exact(1);
      break;
    }
    case IrNodeKind::kMerge: {
      bool aligned = !in.empty();
      for (size_t id : in) {
        aligned = aligned &&
                  facts[id].column_sources.size() == n.columns.size();
      }
      if (aligned) {
        f.column_sources.assign(n.columns.size(), SourceSet{});
        for (size_t id : in) {
          for (size_t i = 0; i < n.columns.size(); ++i) {
            f.column_sources[i].JoinWith(facts[id].column_sources[i]);
          }
        }
      } else {
        ColumnsFromUnion(n, input_union, &f);
      }
      f.card = CardInterval::Exact(0);
      for (size_t id : in) f.card = CardInterval::Sum(f.card, facts[id].card);
      // A set merge dedups across strands: the minimum can collapse.
      if (n.set_merge) f.card.lo = 0;
      f.dead = !in.empty();
      for (size_t id : in) f.dead = f.dead && facts[id].dead;
      if (f.dead) f.card = CardInterval::Exact(0);
      // Must-analysis: a merged row passed only its own strand's
      // filters, so intersect, and only keep contexts that agree.
      if (!in.empty()) {
        f.applied_preds = facts[in[0]].applied_preds;
        for (size_t i = 1; i < in.size(); ++i) {
          const auto& other = facts[in[i]].applied_preds;
          for (auto it = f.applied_preds.begin();
               it != f.applied_preds.end();) {
            auto found = other.find(it->first);
            if (found == other.end() || found->second != it->second) {
              it = f.applied_preds.erase(it);
            } else {
              ++it;
            }
          }
        }
      }
      break;
    }
    case IrNodeKind::kTempWrite: {
      const NodeFacts* in0 = in.empty() ? nullptr : &facts[in[0]];
      if (in0 != nullptr &&
          in0->column_sources.size() == n.columns.size()) {
        f.column_sources = in0->column_sources;
      } else {
        ColumnsFromUnion(n, input_union, &f);
      }
      f.card = in0 != nullptr ? in0->card : CardInterval::Unknown();
      f.dead = in0 != nullptr && in0->dead;
      if (in0 != nullptr) f.applied_preds = in0->applied_preds;
      break;
    }
    case IrNodeKind::kReport: {
      ColumnsFromUnion(n, input_union, &f);
      f.card = in.empty() ? CardInterval::Unknown() : facts[in[0]].card;
      break;
    }
  }

  f.sources = SourceSet{};
  for (const SourceSet& s : f.column_sources) f.sources.JoinWith(s);
  return f;
}

}  // namespace

std::string AbsintResult::Dump(const PlanIr& ir) const {
  std::string out = "absint '" + ir.label +
                    "': " + std::to_string(ir.nodes.size()) + " nodes\n";
  for (size_t i = 0; i < ir.nodes.size() && i < facts.size(); ++i) {
    const IrNode& n = ir.nodes[i];
    const NodeFacts& f = facts[i];
    out += "  node " + std::to_string(n.id) + " " +
           std::string(IrNodeKindToString(n.kind)) +
           ": card=" + f.card.ToString() + " src=" + f.sources.ToString();
    if (f.dead) out += " dead";
    if (!f.applied_preds.empty()) {
      out += " preds=" + std::to_string(f.applied_preds.size());
    }
    out += "\n";
  }
  return out;
}

AbsintResult AnalyzeIr(const PlanIr& ir) {
  const size_t num_nodes = ir.nodes.size();
  AbsintResult res;
  res.facts.assign(num_nodes, NodeFacts{});
  for (size_t i = 0; i < num_nodes; ++i) {
    // Bottom: every node starts provably empty with no provenance.
    res.facts[i].column_sources.assign(ir.nodes[i].columns.size(),
                                       SourceSet{});
    res.facts[i].card = CardInterval::Exact(0);
  }
  // Node order is execution order and every edge of a well-formed IR
  // points backward, so each node's inputs are final when it is reached.
  // A forward or self edge (TRAC-V000) reads its input at bottom.
  for (size_t i = 0; i < num_nodes; ++i) {
    res.facts[i] = Transfer(ir, ir.nodes[i], res.facts);
  }
  return res;
}

}  // namespace absint
}  // namespace trac

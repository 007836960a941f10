#include "ir/normalize.h"

#include <algorithm>
#include <cstdio>
#include <vector>

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

}  // namespace

bool IrWellFormed(const PlanIr& ir, size_t* bad_node) {
  for (size_t i = 0; i < ir.nodes.size(); ++i) {
    if (ir.nodes[i].id != i) {
      *bad_node = i;
      return false;
    }
    for (size_t in : ir.nodes[i].inputs) {
      if (in >= i) {
        *bad_node = i;
        return false;
      }
    }
  }
  return true;
}

std::string IrNodeSignature(const IrNode& n) {
  std::string s(IrNodeKindToString(n.kind));
  s += '|';
  s += std::to_string(n.inputs.size());
  s += '|';
  s += n.table;
  s += '|';
  s += std::to_string(n.snapshot) + '/' + std::to_string(n.shard) + '/' +
       std::to_string(n.num_shards);
  s += n.preexisting_temp ? "|pre" : "|";
  if (n.has_rows) s += "|rows=" + std::to_string(n.rows);
  if (n.sel_zero) s += "|sel0";
  if (n.has_pred) s += "|pred=" + HexFingerprint(n.pred_fingerprint);
  for (const IrNode::JoinKey& k : n.keys) {
    s += '|';
    s += ProvenanceChar(k.probe);
    s += ProvenanceChar(k.build);
    if (k.relevance) s += '*';
  }
  for (const IrNode::Agg& a : n.aggs) {
    s += '|' + a.fn + ':';
    s += ProvenanceChar(a.arg);
  }
  if (n.set_merge) s += "|set";
  if (n.sorted) s += "|sorted";
  if (n.session != 0) s += "|session=" + std::to_string(n.session);
  if (n.generated) s += "|gen";
  for (const IrColumn& c : n.columns) {
    s += '|' + c.name + ':';
    s += ProvenanceChar(c.provenance);
  }
  return s;
}

PlanIr NormalizeIr(const PlanIr& ir) {
  std::vector<size_t> unused;
  return NormalizeIr(ir, &unused);
}

PlanIr NormalizeIr(const PlanIr& ir, std::vector<size_t>* original_id) {
  original_id->resize(ir.nodes.size());
  for (size_t i = 0; i < ir.nodes.size(); ++i) (*original_id)[i] = i;
  size_t bad = 0;
  if (!IrWellFormed(ir, &bad)) return ir;

  const size_t n = ir.nodes.size();
  std::vector<std::string> sig(n);
  for (size_t i = 0; i < n; ++i) sig[i] = IrNodeSignature(ir.nodes[i]);

  // Kahn's algorithm with a total tie-break over the ready set:
  // (signature, original id). Duplicate input edges count once per
  // occurrence so the in-degree bookkeeping stays exact.
  std::vector<size_t> indegree(n, 0);
  std::vector<std::vector<size_t>> consumers(n);
  for (size_t i = 0; i < n; ++i) {
    indegree[i] = ir.nodes[i].inputs.size();
    for (size_t in : ir.nodes[i].inputs) consumers[in].push_back(i);
  }
  std::vector<bool> placed(n, false);
  std::vector<size_t> order;
  order.reserve(n);
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (placed[i] || indegree[i] != 0) continue;
      if (best == n || sig[i] < sig[best] ||
          (sig[i] == sig[best] && i < best)) {
        best = i;
      }
    }
    // Well-formedness guarantees acyclicity, so a ready node exists.
    placed[best] = true;
    order.push_back(best);
    for (size_t c : consumers[best]) --indegree[c];
  }

  std::vector<size_t> new_id(n, 0);
  for (size_t k = 0; k < n; ++k) new_id[order[k]] = k;

  PlanIr out;
  out.label = ir.label;
  out.nodes.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    IrNode node = ir.nodes[order[k]];
    node.id = k;
    for (size_t& in : node.inputs) in = new_id[in];
    // A set merge is order-insensitive by contract, so its input order
    // is non-semantic: sort it into the canonical form.
    if (node.kind == IrNodeKind::kMerge && node.set_merge) {
      std::sort(node.inputs.begin(), node.inputs.end());
    }
    out.nodes.push_back(std::move(node));
    (*original_id)[k] = order[k];
  }
  return out;
}

}  // namespace trac

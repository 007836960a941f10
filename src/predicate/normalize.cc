#include "predicate/normalize.h"

namespace trac {

BoundExprPtr ToNnf(const BoundExpr& e, bool negate) {
  switch (e.kind) {
    case ExprKind::kNot:
      return ToNnf(*e.children[0], !negate);
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<BoundExprPtr> children;
      children.reserve(e.children.size());
      for (const auto& c : e.children) {
        children.push_back(ToNnf(*c, negate));
      }
      bool make_and = (e.kind == ExprKind::kAnd) != negate;  // De Morgan.
      return make_and ? MakeBoundAnd(std::move(children))
                      : MakeBoundOr(std::move(children));
    }
    case ExprKind::kCompare: {
      BoundExprPtr out = e.Clone();
      if (negate) out->op = NegateCompareOp(out->op);
      return out;
    }
    case ExprKind::kInList:
    case ExprKind::kIsNull: {
      BoundExprPtr out = e.Clone();
      if (negate) out->negated = !out->negated;
      return out;
    }
    case ExprKind::kBetween: {
      bool effective_negated = e.negated != negate;
      if (!effective_negated) {
        BoundExprPtr out = e.Clone();
        out->negated = false;
        return out;
      }
      // NOT (v BETWEEN lo AND hi)  =>  v < lo OR v > hi. Expanding keeps
      // every DNF conjunct a pure conjunction of basic terms.
      std::vector<BoundExprPtr> alts;
      alts.push_back(MakeBoundCompare(CompareOp::kLt, e.children[0]->Clone(),
                                      e.children[1]->Clone()));
      alts.push_back(MakeBoundCompare(CompareOp::kGt, e.children[0]->Clone(),
                                      e.children[2]->Clone()));
      return MakeBoundOr(std::move(alts));
    }
    case ExprKind::kLiteral: {
      BoundExprPtr out = e.Clone();
      if (negate && !out->literal.is_null() &&
          out->literal.type() == TypeId::kBool) {
        out->literal = Value::Bool(!out->literal.bool_val());
      }
      return out;  // NULL stays NULL under NOT.
    }
    case ExprKind::kColumnRef:
      // Not a legal predicate; preserved so the evaluator reports the
      // type error instead of the normalizer silently changing meaning.
      return e.Clone();
  }
  return e.Clone();
}

namespace {

// DNF as a list of conjuncts, each a list of atomic expressions.
using RawDnf = std::vector<std::vector<BoundExprPtr>>;

std::vector<BoundExprPtr> CloneTermList(const std::vector<BoundExprPtr>& v) {
  std::vector<BoundExprPtr> out;
  out.reserve(v.size());
  for (const auto& e : v) out.push_back(e->Clone());
  return out;
}

/// Distributes AND over OR in the NNF tree `e`, consuming it. Each term
/// moves into the last conjunct that needs it and is cloned only for the
/// earlier ones, so a pure conjunction clones nothing.
[[nodiscard]] Result<RawDnf> Distribute(BoundExprPtr e, size_t max_conjuncts) {
  switch (e->kind) {
    case ExprKind::kOr: {
      RawDnf out;
      for (auto& c : e->children) {
        TRAC_ASSIGN_OR_RETURN(RawDnf sub,
                              Distribute(std::move(c), max_conjuncts));
        for (auto& conj : sub) out.push_back(std::move(conj));
        if (out.size() > max_conjuncts) {
          return Status::ResourceExhausted("DNF conjunct limit exceeded");
        }
      }
      return out;
    }
    case ExprKind::kAnd: {
      RawDnf acc;
      acc.push_back({});  // One empty conjunct: the AND identity.
      for (auto& c : e->children) {
        TRAC_ASSIGN_OR_RETURN(RawDnf sub,
                              Distribute(std::move(c), max_conjuncts));
        if (acc.size() * sub.size() > max_conjuncts) {
          return Status::ResourceExhausted("DNF conjunct limit exceeded");
        }
        // Output (i, j) is acc[i] ++ sub[j]: acc[i] is last needed at
        // j = |sub| - 1, and sub[j] at i = |acc| - 1.
        RawDnf next;
        next.reserve(acc.size() * sub.size());
        for (size_t i = 0; i < acc.size(); ++i) {
          const bool last_use_of_sub = i + 1 == acc.size();
          for (size_t j = 0; j < sub.size(); ++j) {
            std::vector<BoundExprPtr> merged = j + 1 == sub.size()
                                                   ? std::move(acc[i])
                                                   : CloneTermList(acc[i]);
            merged.reserve(merged.size() + sub[j].size());
            for (auto& term : sub[j]) {
              merged.push_back(last_use_of_sub ? std::move(term)
                                               : term->Clone());
            }
            next.push_back(std::move(merged));
          }
        }
        acc = std::move(next);
      }
      return acc;
    }
    default: {
      RawDnf out;
      out.push_back({});
      out.back().push_back(std::move(e));
      return out;
    }
  }
}

}  // namespace

[[nodiscard]] Result<Dnf> ToDnf(const BoundExpr& predicate, const NormalizeOptions& options) {
  TRAC_ASSIGN_OR_RETURN(
      RawDnf raw,
      Distribute(ToNnf(predicate, /*negate=*/false), options.max_conjuncts));
  Dnf dnf;
  dnf.conjuncts.reserve(raw.size());
  for (auto& raw_conjunct : raw) {
    Conjunct conjunct;
    conjunct.reserve(raw_conjunct.size());
    for (auto& term : raw_conjunct) {
      conjunct.push_back(BasicTerm::Make(std::move(term)));
    }
    dnf.conjuncts.push_back(std::move(conjunct));
  }
  return dnf;
}

}  // namespace trac

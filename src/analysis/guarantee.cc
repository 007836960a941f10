#include "analysis/guarantee.h"

#include <algorithm>

#include "expr/constraints.h"

namespace trac {

std::string_view GuaranteeToString(RecencyGuarantee g) {
  switch (g) {
    case RecencyGuarantee::kExactMinimum:
      return "EXACT_MINIMUM";
    case RecencyGuarantee::kUpperBound:
      return "UPPER_BOUND";
    case RecencyGuarantee::kEmptySet:
      return "EMPTY_SET";
  }
  return "?";
}

std::string_view AnalysisCodeId(AnalysisCode code) {
  switch (code) {
    case AnalysisCode::kMixedPredicate:
      return "TRAC-W001";
    case AnalysisCode::kRegularColumnJoin:
      return "TRAC-W002";
    case AnalysisCode::kUnprovenSatisfiability:
      return "TRAC-W003";
    case AnalysisCode::kDnfBlowUp:
      return "TRAC-W004";
    case AnalysisCode::kNaiveAllSources:
      return "TRAC-W005";
    case AnalysisCode::kUnsatisfiableConjunct:
      return "TRAC-I001";
    case AnalysisCode::kRelationSelectionUnsat:
      return "TRAC-I002";
    case AnalysisCode::kUnmonitoredRelation:
      return "TRAC-I003";
    case AnalysisCode::kUnsatisfiableQuery:
      return "TRAC-E001";
    case AnalysisCode::kNoMonitoredRelation:
      return "TRAC-E002";
  }
  return "TRAC-????";
}

std::string_view AnalysisCodeCitation(AnalysisCode code, bool multi_relation) {
  switch (code) {
    case AnalysisCode::kMixedPredicate:
    case AnalysisCode::kRegularColumnJoin:
    case AnalysisCode::kUnprovenSatisfiability:
      return multi_relation ? "Corollary 5" : "Corollary 3";
    case AnalysisCode::kDnfBlowUp:
    case AnalysisCode::kNaiveAllSources:
      return "Theorem 1";
    case AnalysisCode::kUnsatisfiableConjunct:
    case AnalysisCode::kRelationSelectionUnsat:
    case AnalysisCode::kUnsatisfiableQuery:
      return multi_relation ? "Corollary 6" : "Corollary 2";
    case AnalysisCode::kUnmonitoredRelation:
    case AnalysisCode::kNoMonitoredRelation:
      return "Definition 2";
  }
  return "?";
}

std::string AnalysisDiagnostic::Format() const {
  std::string out = "[" + std::string(AnalysisCodeId(code)) + "]";
  if (conjunct != 0 || !relation.empty()) {
    out += " ";
    if (conjunct != 0) out += "conjunct " + std::to_string(conjunct);
    if (!relation.empty()) {
      if (conjunct != 0) out += ", ";
      out += "relation " + relation;
    }
  }
  out += ": " + message;
  if (!citation.empty()) out += " (" + citation + ")";
  return out;
}

std::string GuaranteeReport::Summary() const {
  std::string out(GuaranteeToString(verdict));
  if (!citation.empty()) out += " (" + citation + ")";
  return out;
}

std::string GuaranteeReport::Format() const {
  std::string out = "verdict: " + std::string(GuaranteeToString(verdict)) + "\n";
  out += "citation: " + (citation.empty() ? std::string("-") : citation) + "\n";
  out += "dnf: estimated " + std::to_string(estimated_dnf_conjuncts) +
         " conjunct(s), produced " +
         (dnf_overflow ? std::string("none (overflow)")
                       : std::to_string(dnf_conjuncts)) +
         ", live " + std::to_string(live_conjuncts) + "\n";
  if (diagnostics.empty()) {
    out += "diagnostics: none\n";
  } else {
    out += "diagnostics: " + std::to_string(diagnostics.size()) + "\n";
    for (const AnalysisDiagnostic& d : diagnostics) {
      out += d.Format() + "\n";
    }
  }
  return out;
}

namespace {

///// Recursive DNF-size estimate under an outer negation (NNF semantics:
/// negation swaps AND/OR and flips leaf polarity). `cap` saturates both
/// sums and products.
size_t EstimateRec(const BoundExpr& e, bool negate, size_t cap) {
  switch (e.kind) {
    case ExprKind::kNot:
      return EstimateRec(*e.children[0], !negate, cap);
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const bool conjunction = (e.kind == ExprKind::kAnd) != negate;
      size_t acc = conjunction ? 1 : 0;
      for (const auto& child : e.children) {
        const size_t c = EstimateRec(*child, negate, cap);
        if (conjunction) {
          acc = (c != 0 && acc > cap / c) ? cap : acc * c;
        } else {
          acc = std::min(cap, acc + c);
        }
        if (acc >= cap) return cap;
      }
      return acc;
    }
    case ExprKind::kBetween:
      // NOT BETWEEN expands to an OR of two comparisons in NNF.
      return (e.negated != negate) ? 2 : 1;
    default:
      return 1;
  }
}

/// First term of `terms` that is unsatisfiable on its own, rendered to
/// SQL; empty when the contradiction needs several terms.
std::string SingletonUnsatAnchor(const Database& db, const BoundQuery& query,
                                 const std::vector<const BasicTerm*>& terms,
                                 const SatOptions& sat) {
  for (const BasicTerm* term : terms) {
    if (CheckConjunctionSat(db, query, {term}, sat) == Sat::kUnsat) {
      return query.ExprToSql(db, *term->expr);
    }
  }
  return "";
}

}  // namespace

size_t EstimateDnfConjuncts(const BoundExpr& predicate, size_t cap) {
  return EstimateRec(predicate, /*negate=*/false, std::max<size_t>(cap, 1));
}

[[nodiscard]] Result<QueryAnalysis> AnalyzeQuery(const Database& db,
                                                 const BoundQuery& query,
                                                 const GuaranteeOptions& options) {
  QueryAnalysis qa;
  GuaranteeReport& rep = qa.report;
  const size_t num_rels = query.relations.size();
  const bool multi = num_rels > 1;

  auto diagnose = [&](AnalysisCode code, size_t conjunct,
                      const std::string& relation, std::string term_sql,
                      std::string message) {
    AnalysisDiagnostic d;
    d.code = code;
    d.conjunct = conjunct;
    d.relation = relation;
    d.term_sql = std::move(term_sql);
    d.citation = std::string(AnalysisCodeCitation(code, multi));
    d.message = std::move(message);
    rep.diagnostics.push_back(std::move(d));
  };

  // Which relations are monitored (have a data source column)?
  qa.ds_col.resize(num_rels);
  size_t monitored = 0;
  for (size_t r = 0; r < num_rels; ++r) {
    qa.ds_col[r] = db.catalog()
                       .schema(query.relations[r].table_id)
                       .data_source_column();
    if (qa.ds_col[r].has_value()) {
      ++monitored;
    } else {
      diagnose(AnalysisCode::kUnmonitoredRelation, 0,
               query.relations[r].display_name, "",
               "relation has no data source column; no source is relevant "
               "via it");
    }
  }

  // Section 3.4's Q' = Q ∧ C: conjoin every FROM relation's CHECK
  // constraints (remapped into the query's slot space) with the user
  // predicate before any classification.
  BoundExprPtr effective_where;
  {
    std::vector<BoundExprPtr> terms;
    if (query.where != nullptr) terms.push_back(query.where->Clone());
    for (size_t r = 0; r < num_rels; ++r) {
      TRAC_ASSIGN_OR_RETURN(
          std::vector<BoundExprPtr> constraints,
          BindCheckConstraints(db, query.relations[r].table_id));
      for (BoundExprPtr& cexpr : constraints) {
        cexpr->RewriteColumnRefs([r](BoundColumnRef* ref) { ref->rel = r; });
        terms.push_back(std::move(cexpr));
      }
    }
    if (terms.size() == 1) {
      effective_where = std::move(terms[0]);
    } else if (!terms.empty()) {
      effective_where = MakeBoundAnd(std::move(terms));
    }
  }

  // DNF size estimate, then the conversion itself. A blow-up is not an
  // error: the verdict degrades to kUpperBound (the relevance path falls
  // back to the complete all-sources answer, Theorem 1).
  if (effective_where != nullptr) {
    rep.estimated_dnf_conjuncts = EstimateDnfConjuncts(
        *effective_where, options.normalize.max_conjuncts + 1);
    Result<Dnf> normalized = ToDnf(*effective_where, options.normalize);
    if (!normalized.ok()) {
      if (normalized.status().code() != StatusCode::kResourceExhausted) {
        return normalized.status();
      }
      rep.dnf_overflow = true;
      rep.verdict = RecencyGuarantee::kUpperBound;
      rep.citation = std::string(
          AnalysisCodeCitation(AnalysisCode::kDnfBlowUp, multi));
      diagnose(AnalysisCode::kDnfBlowUp, 0, "", "",
               "DNF conversion abandoned: estimated " +
                   std::to_string(rep.estimated_dnf_conjuncts) +
                   " conjunct(s) exceed the limit of " +
                   std::to_string(options.normalize.max_conjuncts) +
                   "; the complete all-sources answer applies");
      return qa;
    }
    qa.dnf = std::move(*normalized);
  } else {
    qa.dnf.conjuncts.push_back(Conjunct{});  // TRUE: one empty conjunct.
    rep.estimated_dnf_conjuncts = 1;
  }
  rep.dnf_conjuncts = qa.dnf.conjuncts.size();

  if (monitored == 0) {
    rep.verdict = RecencyGuarantee::kEmptySet;
    rep.citation = std::string(
        AnalysisCodeCitation(AnalysisCode::kNoMonitoredRelation, multi));
    diagnose(AnalysisCode::kNoMonitoredRelation, 0, "", "",
             "no relation of the query is monitored; the relevant set is "
             "empty");
    return qa;
  }

  bool upper_bound = false;
  for (size_t ci = 0; ci < qa.dnf.conjuncts.size(); ++ci) {
    const Conjunct& conjunct = qa.dnf.conjuncts[ci];
    ConjunctAnalysis ca;
    ca.sat = CheckConjunctionSat(db, query, conjunct, options.sat);
    if (ca.sat == Sat::kUnsat) {
      // Corollaries 2 / 6: the conjunct contributes nothing; dropping it
      // keeps the answer exact. Anchor the contradiction to a single
      // term when one suffices.
      std::vector<const BasicTerm*> terms;
      for (const BasicTerm& t : conjunct) terms.push_back(&t);
      std::string anchor = SingletonUnsatAnchor(db, query, terms, options.sat);
      std::string message =
          "conjunct is unsatisfiable over the declared column domains and "
          "contributes nothing";
      if (!anchor.empty()) {
        message += "; basic term '" + anchor + "' alone is unsatisfiable";
      }
      diagnose(AnalysisCode::kUnsatisfiableConjunct, ci + 1, "", anchor,
               std::move(message));
      qa.conjuncts.push_back(std::move(ca));
      continue;
    }
    ++rep.live_conjuncts;

    for (size_t ri = 0; ri < num_rels; ++ri) {
      if (!qa.ds_col[ri].has_value()) continue;
      const std::string& rel_name = query.relations[ri].display_name;
      ConjunctRelationView view;
      view.relation = ri;

      std::vector<const BasicTerm*> sel;
      for (const BasicTerm& term : conjunct) {
        switch (ClassifyTerm(db, query, term, ri)) {
          case TermClass::kPs:
            view.ps.push_back(&term);
            sel.push_back(&term);
            break;
          case TermClass::kPr:
            view.pr.push_back(&term);
            sel.push_back(&term);
            break;
          case TermClass::kPm:
            view.pm.push_back(&term);
            sel.push_back(&term);
            break;
          case TermClass::kJs:
            view.js.push_back(&term);
            break;
          case TermClass::kJrm:
            view.jrm.push_back(&term);
            break;
          case TermClass::kPo:
            view.po.push_back(&term);
            break;
        }
      }
      view.has_mixed = !view.pm.empty();
      view.has_regular_join = !view.jrm.empty();

      // If the selection predicates on R_i alone are unsatisfiable, no
      // potential tuple of R_i exists: S(C, R_i) = ∅ and the part is
      // dropped without losing exactness.
      view.selection_sat = CheckConjunctionSat(db, query, sel, options.sat);
      if (view.selection_sat == Sat::kUnsat) {
        std::string anchor = SingletonUnsatAnchor(db, query, sel, options.sat);
        diagnose(AnalysisCode::kRelationSelectionUnsat, ci + 1, rel_name,
                 anchor,
                 "selection predicates admit no potential tuple; the "
                 "conjunct's part via this relation is dropped");
        ca.relations.push_back(std::move(view));
        continue;
      }

      // Theorem 3/4 preconditions, in the paper's order: no mixed
      // predicate, no join over a regular column, regular predicates
      // proven satisfiable.
      if (view.has_mixed) {
        upper_bound = true;
        std::string anchor = query.ExprToSql(db, *view.pm[0]->expr);
        std::string message = "mixed predicate '" + anchor +
                              "' references the data source column and a "
                              "regular column";
        diagnose(AnalysisCode::kMixedPredicate, ci + 1, rel_name,
                 std::move(anchor), std::move(message));
      } else if (view.has_regular_join) {
        upper_bound = true;
        std::string anchor = query.ExprToSql(db, *view.jrm[0]->expr);
        std::string message =
            "join predicate '" + anchor + "' ranges over a regular column";
        diagnose(AnalysisCode::kRegularColumnJoin, ci + 1, rel_name,
                 std::move(anchor), std::move(message));
      } else {
        view.regular_sat =
            CheckConjunctionSat(db, query, view.pr, options.sat);
        if (view.regular_sat == Sat::kSat) {
          view.minimal = true;
        } else {
          upper_bound = true;
          diagnose(AnalysisCode::kUnprovenSatisfiability, ci + 1, rel_name,
                   "",
                   "satisfiability of the regular-column predicates could "
                   "not be proven");
        }
      }
      ca.relations.push_back(std::move(view));
    }
    qa.conjuncts.push_back(std::move(ca));
  }

  if (rep.live_conjuncts == 0) {
    rep.verdict = RecencyGuarantee::kEmptySet;
    rep.citation = std::string(
        AnalysisCodeCitation(AnalysisCode::kUnsatisfiableQuery, multi));
    diagnose(AnalysisCode::kUnsatisfiableQuery, 0, "", "",
             "every DNF conjunct is unsatisfiable: the relevant set is "
             "provably empty");
  } else if (upper_bound) {
    rep.verdict = RecencyGuarantee::kUpperBound;
    rep.citation = std::string(
        AnalysisCodeCitation(AnalysisCode::kMixedPredicate, multi));
  } else {
    rep.verdict = RecencyGuarantee::kExactMinimum;
    rep.citation = multi ? "Theorem 4" : "Theorem 3";
  }
  return qa;
}

[[nodiscard]] Result<GuaranteeReport> AnalyzeRecencyGuarantee(
    const Database& db, const BoundQuery& query,
    const GuaranteeOptions& options) {
  TRAC_ASSIGN_OR_RETURN(QueryAnalysis qa, AnalyzeQuery(db, query, options));
  return std::move(qa.report);
}

}  // namespace trac

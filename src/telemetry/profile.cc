#include "telemetry/profile.h"

#include <algorithm>

#include "absint/absint.h"
#include "telemetry/telemetry.h"

namespace trac {

namespace {

void Annotate(PlanIr* ir, size_t id, uint64_t rows) {
  ir->nodes[id].has_actual_rows = true;
  ir->nodes[id].actual_rows = rows;
}

void AnnotateNs(PlanIr* ir, size_t id, int64_t ns) {
  ir->nodes[id].has_actual_ns = true;
  ir->nodes[id].actual_ns = ns < 0 ? 0 : ns;
}

/// The node-kind sequence the lowering grammar (ir/lower.cc) emits for a
/// query whose executed shape is `p`: per level a scan, an optional
/// local filter, and (inner levels) a join plus an optional level
/// filter; then the optional constant filter and aggregate fold.
std::vector<IrNodeKind> ExpectedShape(const ExecProfile& p) {
  std::vector<IrNodeKind> shape;
  for (size_t k = 0; k < p.levels.size(); ++k) {
    shape.push_back(IrNodeKind::kScan);
    if (p.levels[k].has_filter) shape.push_back(IrNodeKind::kFilter);
    if (k > 0) {
      shape.push_back(IrNodeKind::kJoin);
      if (p.levels[k].has_level_filter) shape.push_back(IrNodeKind::kFilter);
    }
  }
  if (p.has_const_filter) shape.push_back(IrNodeKind::kFilter);
  if (p.has_agg) shape.push_back(IrNodeKind::kAggregate);
  return shape;
}

/// Annotates the subgraph at `r` from `p`. The walk re-derives the
/// grammar from the profile's structure flags and verifies it against
/// the actual node kinds first — a mismatch (profile from a different
/// plan than the lowered one) annotates nothing rather than lying.
size_t AttachQueryRange(PlanIr* ir, const SessionLayout::QueryRange& r,
                        const ExecProfile& p) {
  if (p.invocations == 0) return 0;
  if (r.end > ir->nodes.size() || r.begin >= r.end) return 0;
  const std::vector<IrNodeKind> shape = ExpectedShape(p);
  if (shape.size() != r.end - r.begin) return 0;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (ir->nodes[r.begin + i].kind != shape[i]) return 0;
  }

  size_t id = r.begin;
  int64_t prepare_total_ns = 0;
  for (size_t k = 0; k < p.levels.size(); ++k) {
    const ExecProfile::Level& lvl = p.levels[k];
    Annotate(ir, id, lvl.scan_rows);
    if (k > 0) {
      AnnotateNs(ir, id, lvl.prepare_ns);
      prepare_total_ns += lvl.prepare_ns;
    }
    ++id;
    if (lvl.has_filter) Annotate(ir, id++, lvl.filter_rows);
    if (k > 0) {
      Annotate(ir, id++, lvl.join_rows);
      if (lvl.has_level_filter) Annotate(ir, id++, lvl.level_rows);
    }
  }
  if (p.has_const_filter) Annotate(ir, id++, p.emitted_rows);
  if (p.has_agg) Annotate(ir, id++, p.output_rows);

  // The top node is the subgraph's outgoing edge: it reports the rows
  // actually delivered downstream (post-DISTINCT/LIMIT — the IR has no
  // node for those trims) and the pipeline time not already attributed
  // to level preparation.
  Annotate(ir, r.end - 1, p.output_rows);
  AnnotateNs(ir, r.end - 1, p.total_ns - prepare_total_ns);
  return shape.size();
}

}  // namespace

size_t AttachSessionProfile(PlanIr* ir, const SessionLayout& layout,
                            const SessionProfile& profile) {
  size_t annotated = 0;
  const size_t n = ir->nodes.size();

  if (profile.ran_user) {
    annotated += AttachQueryRange(ir, layout.user, profile.user);
  }

  for (const TaskProfile& task : profile.tasks) {
    if (task.part >= layout.parts.size()) continue;
    const SessionLayout::Part& part = layout.parts[task.part];
    if (part.walk) {
      if (part.scan_id >= n) continue;
      Annotate(ir, part.scan_id, task.rows);
      AnnotateNs(ir, part.scan_id, task.micros * 1000);
      ++annotated;
      continue;
    }
    for (size_t g = 0; g < task.guards.size() && g < part.guards.size(); ++g) {
      annotated += AttachQueryRange(ir, part.guards[g], task.guards[g]);
    }
    if (task.ran_main) {
      annotated += AttachQueryRange(ir, part.main, task.main);
    }
    if (part.has_gate && part.gate_id < n) {
      // The gate passes the main query's rows iff every guard proved
      // nonempty; a suppressed part delivers nothing.
      Annotate(ir, part.gate_id, task.ran_main ? task.rows : 0);
      ++annotated;
    }
  }

  if (!profile.tasks.empty() && layout.merge_id < n) {
    Annotate(ir, layout.merge_id, profile.merged_rows);
    AnnotateNs(ir, layout.merge_id, profile.merge_micros * 1000);
    ++annotated;
  }
  if (layout.tempwrite_ids.size() >= 1 && layout.tempwrite_ids[0] < n) {
    Annotate(ir, layout.tempwrite_ids[0], profile.normal_rows);
    ++annotated;
  }
  if (layout.tempwrite_ids.size() >= 2 && layout.tempwrite_ids[1] < n) {
    Annotate(ir, layout.tempwrite_ids[1], profile.exceptional_rows);
    ++annotated;
  }
  if (layout.report_id < n &&
      ir->nodes[layout.report_id].kind == IrNodeKind::kReport) {
    // The report node "emits" the user-query result (its first input
    // strand — the same input absint takes the static cardinality
    // from); the relevant-source count already sits on the merge node.
    // The attributed time is the stats phase the report alone pays.
    if (profile.ran_user) {
      Annotate(ir, layout.report_id, profile.user.output_rows);
    }
    AnnotateNs(ir, layout.report_id, profile.stats_micros * 1000);
    ++annotated;
  }
  return annotated;
}

std::string_view ProfileCodeId(ProfileCode code) {
  switch (code) {
    case ProfileCode::kActualOutsideStaticBounds:
      return "TRAC-P001";
    case ProfileCode::kMisestimate:
      return "TRAC-P002";
  }
  return "TRAC-P???";
}

std::string ProfileDiagnostic::Format() const {
  std::string out = "[";
  out += ProfileCodeId(code);
  out += "] node " + std::to_string(node) + " (";
  out += IrNodeKindToString(kind);
  out += "): " + message;
  return out;
}

std::vector<ProfileDiagnostic> AnalyzeProfileDrift(const PlanIr& ir) {
  std::vector<ProfileDiagnostic> out;
  const absint::AbsintResult analysis = absint::AnalyzeIr(ir);
  for (const IrNode& node : ir.nodes) {
    if (!node.has_actual_rows || node.id >= analysis.facts.size()) continue;
    const absint::CardInterval& card = analysis.facts[node.id].card;
    if (node.actual_rows < card.lo ||
        (!card.unbounded && node.actual_rows > card.hi)) {
      ProfileDiagnostic d;
      d.code = ProfileCode::kActualOutsideStaticBounds;
      d.node = node.id;
      d.kind = node.kind;
      d.message = "actual_rows=" + std::to_string(node.actual_rows) +
                  " outside the proven cardinality interval [" +
                  std::to_string(card.lo) + ", " +
                  (card.unbounded ? std::string("inf")
                                  : std::to_string(card.hi)) +
                  "]";
      out.push_back(std::move(d));
    }
    if (node.kind == IrNodeKind::kScan && node.has_rows) {
      const uint64_t actual = std::max<uint64_t>(node.actual_rows, 1);
      if (node.rows / actual >= kMisestimateFactor) {
        ProfileDiagnostic d;
        d.code = ProfileCode::kMisestimate;
        d.node = node.id;
        d.kind = node.kind;
        d.message = "estimate rows=" + std::to_string(node.rows) +
                    " overshoots actual_rows=" +
                    std::to_string(node.actual_rows) + " by >= " +
                    std::to_string(kMisestimateFactor) + "x";
        out.push_back(std::move(d));
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ProfileDiagnostic& a, const ProfileDiagnostic& b) {
                     if (a.node != b.node) return a.node < b.node;
                     return static_cast<int>(a.code) < static_cast<int>(b.code);
                   });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const ProfileDiagnostic& a,
                           const ProfileDiagnostic& b) {
                          return a.node == b.node && a.code == b.code;
                        }),
            out.end());
  return out;
}

void FlightRecorder::Record(SessionProfileRecord record) {
  MutexLock lock(&mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
    next_ = (next_ + 1) % capacity_;
  }
  ++total_;
}

std::vector<SessionProfileRecord> FlightRecorder::Entries() const {
  MutexLock lock(&mu_);
  std::vector<SessionProfileRecord> out;
  out.reserve(ring_.size());
  // Once the ring has wrapped, `next_` is the oldest slot.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

uint64_t FlightRecorder::total_recorded() const {
  MutexLock lock(&mu_);
  return total_;
}

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder& ResolveFlightRecorder(const Telemetry& telemetry) {
  return telemetry.recorder != nullptr ? *telemetry.recorder
                                       : FlightRecorder::Default();
}

}  // namespace trac

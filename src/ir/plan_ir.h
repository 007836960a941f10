#ifndef TRAC_IR_PLAN_IR_H_
#define TRAC_IR_PLAN_IR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace trac {

/// A small dataflow IR every execution plan is lowered into before it
/// runs (ir/lower.h) and that the static verifier checks (verify/
/// verifier.h). The IR models *what the engine is about to do* — which
/// snapshot each scan reads, how sharded scans rejoin, where temp tables
/// are defined and consumed, and how column provenance flows — so the
/// consistency contract of the reporting layer (user query and recency
/// queries on one snapshot, Section 3.2) becomes a checkable artifact
/// instead of a comment.
///
/// Shape: a DAG of nodes; `IrNode::inputs` are the incoming edges. Each
/// node's annotations describe its *outgoing* edge payload: `columns`
/// is the column set (with provenance) the node produces, and a scan's
/// `snapshot`/`shard` describe the read it feeds downstream. Node order
/// is execution order: the engine runs node k before node k+1, which is
/// what makes "def before use" a meaningful check on a DAG.
enum class IrNodeKind {
  kScan = 0,   ///< Base-table or temp-table read at one snapshot epoch.
  kFilter,     ///< Predicate application (constant/local/level preds).
  kJoin,       ///< One join level (hash / index-nested-loop / nested).
  kAggregate,  ///< Aggregate fold (COUNT/SUM/AVG/MIN/MAX).
  kMerge,      ///< Rejoin of parallel strands (parts or scan shards).
  kTempWrite,  ///< Materialization into a session temp table.
  kReport,     ///< The recency report consuming user result + sources.
};

std::string_view IrNodeKindToString(IrNodeKind kind);

/// Provenance class of one column (the paper's Definition 2 boundary):
/// data-source columns identify the source that produced a tuple and
/// are the only columns relevance may flow through; everything else is
/// a regular column.
enum class ColumnProvenance { kRegular = 0, kDataSource = 1 };

/// One column of a node's outgoing edge.
struct IrColumn {
  std::string name;
  ColumnProvenance provenance = ColumnProvenance::kRegular;
};

struct IrNode {
  size_t id = 0;
  IrNodeKind kind = IrNodeKind::kScan;
  /// Ids of the nodes whose output this node consumes.
  std::vector<size_t> inputs;
  /// Outgoing-edge column set (name + provenance).
  std::vector<IrColumn> columns;

  // -- kScan / kTempWrite: the table read or written.
  std::string table;
  // -- kScan: snapshot epoch the read is pinned to.
  uint64_t snapshot = 0;
  // -- kScan: version-range shard `shard` of `num_shards` (1 = whole).
  size_t shard = 0;
  size_t num_shards = 1;
  /// kScan of a temp table whose definition predates this plan (the
  /// table already existed when the plan was lowered); exempt from the
  /// in-plan def-before-use rule.
  bool preexisting_temp = false;
  /// kScan: published row-version count of the table at lowering time —
  /// an upper bound on the rows any snapshot read can see (MVCC versions
  /// only grow). Absent (`has_rows` false) = unknown cardinality.
  bool has_rows = false;
  uint64_t rows = 0;
  /// kScan: catalog-declared source-age interval of the data this scan
  /// can produce, in recency-timestamp microseconds [age_lo, age_hi]
  /// (from the Heartbeat registry at lowering time). Absent = unknown;
  /// the staleness domain treats it as bottom.
  bool has_age = false;
  int64_t age_lo = 0;
  int64_t age_hi = 0;

  // -- kFilter: static selectivity/identity annotations.
  /// The predicate was statically proven unsatisfiable (TRAC-E001):
  /// selectivity is exactly zero and the subplan below is dead.
  bool sel_zero = false;
  /// 64-bit fingerprint of the filter's rendered predicate conjunction
  /// (FNV-1a over the sorted canonical SQL terms); 0 + `has_pred` false
  /// = no predicate annotation. Equal fingerprints on one dataflow path
  /// mean the same predicate is applied twice (TRAC-V007).
  bool has_pred = false;
  uint64_t pred_fingerprint = 0;

  // -- kJoin: provenance classes of each equi-key pair.
  struct JoinKey {
    ColumnProvenance probe = ColumnProvenance::kRegular;
    ColumnProvenance build = ColumnProvenance::kRegular;
    /// Descriptive: one side is the source registry's key (the Heartbeat
    /// source-id column), i.e. the edge relevance flows through. The
    /// other side may legally be a regular column — equality with the
    /// registry key confers source identity (the generator substitutes
    /// H.c_s into J_s terms, Notation 7) — so no per-edge provenance
    /// rule applies; the verifier instead checks that source identity
    /// survives to every merge input (TRAC-V004).
    bool relevance = false;
  };
  std::vector<JoinKey> keys;

  // -- kAggregate: one entry per aggregate output.
  struct Agg {
    std::string fn;  ///< "count", "sum", "avg", "min", "max", "count*".
    ColumnProvenance arg = ColumnProvenance::kRegular;
  };
  std::vector<Agg> aggs;

  // -- kMerge: determinism contract of the rejoin.
  /// Order-insensitive set merge (dedup keyed on the merged columns):
  /// any arrival order yields the same result.
  bool set_merge = false;
  /// The merge explicitly sorts its output.
  bool sorted = false;

  // -- kScan (temp) / kTempWrite: owning session id; 0 = no session.
  uint64_t session = 0;

  /// kTempWrite: the declared data-source universe of a relevant-source
  /// temp (the monitored tables plus the Heartbeat registry, sorted).
  /// The abstract interpreter checks the write's inferred column
  /// provenance against this set (TRAC-V008); empty = undeclared.
  std::vector<std::string> declared_sources;

  /// kReport: the bound-of-inconsistency width (microseconds) the
  /// guarantee NOTICE promises. The static staleness interval reaching
  /// the report must fit inside it (TRAC-V005); absent = no promise.
  bool has_bound = false;
  int64_t notice_bound_micros = 0;

  /// Node belongs to machine-generated recency machinery (a generated
  /// recency part, its merge, temp writes, the report node) rather than
  /// to the user's own query.
  bool generated = false;

  /// Runtime profile annotations (telemetry/profile.h): rows this node
  /// actually produced and busy time actually attributed to it, written
  /// back onto the session IR after execution. Absent on nodes that did
  /// not execute (guard-suppressed parts) — the drift pass
  /// (TRAC-P001/P002) only judges annotated nodes.
  bool has_actual_rows = false;
  uint64_t actual_rows = 0;
  bool has_actual_ns = false;
  int64_t actual_ns = 0;
};

/// True for session temp-table names (sys_temp_a*/sys_temp_e*).
bool IsTempTableName(std::string_view name);

struct PlanIr {
  /// What the IR models, e.g. "query" or "report_session".
  std::string label;
  /// Nodes in execution order; IrNode::id == index.
  std::vector<IrNode> nodes;

  /// Appends a node of `kind` and returns it (id assigned).
  IrNode& Add(IrNodeKind kind);

  /// Stable one-line-per-node text form; ParsePlanIr is its inverse
  /// (byte-exact round trip), so dumps double as corpus files.
  std::string Dump() const;
};

/// Parses the Dump() format (used by the seeded-bad plan corpus under
/// examples/plans/ and by trac_verify). Lines starting with '#' and
/// blank lines are skipped. Node ids must be dense and ascending.
/// Structural properties beyond syntax (acyclicity, valid input ids)
/// are the verifier's job, not the parser's.
[[nodiscard]] Result<PlanIr> ParsePlanIr(std::string_view text);

}  // namespace trac

#endif  // TRAC_IR_PLAN_IR_H_
